"""Print SHA-256 digests of `dispatch_endvertex` outcomes over a fixed corpus.

Usage, from the root of a checkout:

    python3 tests/dispatch_digest.py

It imports `endvertex` from that checkout's `src/`, so running it on two
trees compares their dispatchers.  The name has no `test_` prefix:
pytest does not collect it.

Corpus: 600 seeded graphs with n <= 10, 100 from each of
`rand_connected_graph`, `rand_chordal`, `rand_split`, `rand_interval`,
`rand_unit_interval` and `rand_claw_net_free`, x 7 kinds x 5 class hints
(auto and the four hints) x every target.

Printed, one per line:
  * `verdicts`: SHA-256 over (graph, kind, hint, target, verdict,
    exception, classes);
  * `witnesses`: the same with the witness order added;
  * `methods`: the same with witness, method and detail added;
  * `answers`: SHA-256 over (graph, kind, hint, target, verdict,
    exception, witness, method, detail), `methods` without `classes`,
    so that a change in which classes dispatch established can be told
    apart from a change in its answers;
  * the number of queries per (kind, hint, method), so that two trees'
    method changes can be counted;
  * for a second corpus above every oracle guard (20 seeded
    `rand_interval` graphs with n = 20-24 x 7 kinds x auto and the
    interval hint x 3 targets), where dispatch answers UNKNOWN whenever
    no characterization settles the query: the `slice` SHA-256 over the
    same fields as `answers`, and the number of its queries per (kind,
    hint, method, verdict), with the detail of each UNKNOWN, so that
    a change of UNKNOWN text can be counted;
  * `deciders`: SHA-256 over the first corpus x the five public
    `decide_*` functions x every target, recording the answer or
    `raised Type: message`, with the number of calls.

The interval and unit interval recognizers are memoized per graph (each
runs at most once per graph), because exhaustive recognizers, where a
tree still has them, are exponential on some graphs of the corpus.  Each
is whichever name the `deciders` module binds for the class table's row:
`_interval_from_pass`, which reads the chordal row's MCS record, or the
older `recognize_interval`, and `recognize_unit_interval` or the older
`_unit_interval_order`, so the script runs on trees from before and
after those changes.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)
from endvertex import (  # noqa: E402
    SearchKind,
    Verdict,
    decide_dfs_claw_net_free,
    decide_dfs_interval,
    decide_mcs_split,
    decide_mns_chordal,
    decide_unit_interval,
    dispatch_endvertex,
)
from endvertex import deciders  # noqa: E402

FAMILIES = (fx.rand_connected_graph, fx.rand_chordal, fx.rand_split, fx.rand_interval,
            fx.rand_unit_interval, fx.rand_claw_net_free)
HINTS = (None, "split", "chordal", "interval", "unit-interval")
DECIDERS = (decide_mns_chordal, decide_mcs_split, decide_unit_interval,
            decide_dfs_claw_net_free, decide_dfs_interval)


def corpus():
    rng = random.Random(9001)
    for family in FAMILIES:
        for _ in range(100):
            yield family(rng, rng.randint(1, 10))


def above_guard():
    """(graph, targets) pairs with n above every oracle guard."""
    rng = random.Random(9002)
    for _ in range(20):
        g = fx.rand_interval(rng, rng.randint(20, 24))
        yield g, rng.sample(range(g.n), 3)


def memoized(recognizer):
    cache = {}

    def recognize(g, *certificate):
        if g not in cache:
            cache.clear()
            cache[g] = recognizer(g, *certificate)
        return cache[g]

    return recognize


def main() -> None:
    for name in ("_interval_from_pass", "recognize_interval", "recognize_unit_interval",
                 "_unit_interval_order"):
        if hasattr(deciders, name):
            setattr(deciders, name, memoized(getattr(deciders, name)))
    shas = {name: hashlib.sha256() for name in ("verdicts", "witnesses", "methods", "answers")}
    methods: Counter = Counter()
    total = 0
    for g in corpus():
        graph = sorted(g.edges())
        for kind in SearchKind:
            for hint in HINTS:
                for t in range(g.n):
                    total += 1
                    try:
                        res = dispatch_endvertex(g, t, kind, class_hint=hint)
                    except Exception as exc:  # every exception is part of the outcome
                        answer = f"raised {type(exc).__name__}: {exc}"
                        outcome = (answer,)
                        method = "raised"
                        extra: tuple = ()
                    else:
                        answer = res.verdict.value
                        outcome = (answer, res.classes)
                        method = res.method
                        extra = (res.method, res.detail)
                    key = (graph, kind.value, hint, t)
                    witness = () if method == "raised" else (res.witness,)
                    shas["verdicts"].update(f"{key!r} {outcome!r}\n".encode())
                    shas["witnesses"].update(f"{key!r} {outcome!r} {witness!r}\n".encode())
                    shas["methods"].update(f"{key!r} {outcome!r} {witness!r} {extra!r}\n".encode())
                    shas["answers"].update(f"{key!r} {answer!r} {witness!r} {extra!r}\n".encode())
                    methods[kind.value, hint or "auto", method] += 1
    print(f"{total} dispatches")
    for name, sha in shas.items():
        print(f"{name}: {sha.hexdigest()}")
    for (kind, hint, method), count in sorted(methods.items()):
        print(f"{kind:8} {hint:14} {method:40} {count}")

    sha = hashlib.sha256()
    slice_counts: Counter = Counter()
    for g, targets in above_guard():
        graph = sorted(g.edges())
        for kind in SearchKind:
            for hint in (None, "interval"):
                for t in targets:
                    res = dispatch_endvertex(g, t, kind, class_hint=hint)
                    key = (graph, kind.value, hint, t)
                    answer, extra = res.verdict.value, (res.method, res.detail)
                    sha.update(f"{key!r} {answer!r} {(res.witness,)!r} {extra!r}\n".encode())
                    shown = res.detail if res.verdict is Verdict.UNKNOWN else ""
                    slice_counts[kind.value, hint or "auto", res.method, answer, shown] += 1
    print(f"slice: {sum(slice_counts.values())} dispatches above the guards, {sha.hexdigest()}")
    for (kind, hint, method, answer, shown), count in sorted(slice_counts.items()):
        print(f"{kind:8} {hint:14} {method:40} {answer:8} {count:4} {shown}")

    sha = hashlib.sha256()
    total = 0
    for g in corpus():
        graph = sorted(g.edges())
        for decide in DECIDERS:
            for t in range(g.n):
                total += 1
                try:
                    answer = decide(g, t)
                except Exception as exc:  # every exception is part of the outcome
                    answer = f"raised {type(exc).__name__}: {exc}"
                sha.update(f"{(graph, decide.__name__, t)!r} {answer!r}\n".encode())
    print(f"deciders: {total} calls, {sha.hexdigest()}")


if __name__ == "__main__":
    main()
