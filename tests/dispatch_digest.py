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
  * the number of queries per (kind, hint, method), so that two trees'
    method changes can be counted.

The interval and unit interval recognizers are memoized per graph (each
runs at most once per graph), because exhaustive recognizers, where a
tree still has them, are exponential on some graphs of the corpus.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)
from endvertex import SearchKind, dispatch_endvertex  # noqa: E402
from endvertex import deciders  # noqa: E402

FAMILIES = (fx.rand_connected_graph, fx.rand_chordal, fx.rand_split, fx.rand_interval,
            fx.rand_unit_interval, fx.rand_claw_net_free)
HINTS = (None, "split", "chordal", "interval", "unit-interval")


def corpus():
    rng = random.Random(9001)
    for family in FAMILIES:
        for _ in range(100):
            yield family(rng, rng.randint(1, 10))


def memoized(recognizer):
    cache = {}

    def recognize(g, *certificate):
        if g not in cache:
            cache.clear()
            cache[g] = recognizer(g, *certificate)
        return cache[g]

    return recognize


def main() -> None:
    deciders._interval_order = memoized(deciders._interval_order)
    deciders._unit_interval_order = memoized(deciders._unit_interval_order)
    shas = {name: hashlib.sha256() for name in ("verdicts", "witnesses", "methods")}
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
                        outcome = (f"raised {type(exc).__name__}: {exc}",)
                        method = "raised"
                        extra: tuple = ()
                    else:
                        outcome = (res.verdict.value, res.classes)
                        method = res.method
                        extra = (res.method, res.detail)
                    key = (graph, kind.value, hint, t)
                    witness = () if method == "raised" else (res.witness,)
                    shas["verdicts"].update(f"{key!r} {outcome!r}\n".encode())
                    shas["witnesses"].update(f"{key!r} {outcome!r} {witness!r}\n".encode())
                    shas["methods"].update(f"{key!r} {outcome!r} {witness!r} {extra!r}\n".encode())
                    methods[kind.value, hint or "auto", method] += 1
    print(f"{total} dispatches")
    for name, sha in shas.items():
        print(f"{name}: {sha.hexdigest()}")
    for (kind, hint, method), count in sorted(methods.items()):
        print(f"{kind:8} {hint:14} {method:40} {count}")


if __name__ == "__main__":
    main()
