"""Print a SHA-256 digest of search and oracle outcomes over a fixed corpus.

Usage, from the root of a checkout:

    python3 tests/parity_digest.py

It imports `endvertex` from that checkout's `src/`.  Two trees whose
`run_search`, `validate_order`, `witness_order_mcs`, `witness_order_mns`,
exhaustive oracle, `eligible_set` and randomized probe give the same
outputs (orders, verdicts, violation positions, end-vertex sets,
witnesses, hit counts, exception types and messages) print the same
digest, so a change that must keep every output is checked by running
this script on the change and on its parent.  The name has no `test_`
prefix: pytest does not collect it.

Corpus (everything drawn from fixed seeds):
  * 3000 random graphs with n <= 9, 40 % drawn without a spanning tree
    (so often disconnected) x 7 kinds x `LowestId`, `HighestId`, a full
    `FixedPreference`, a partial one with repeats and out-of-range
    entries and `SeededRandom` x starts free, in range and out of range;
    `validate_order` on two orders that follow the kind's rule until
    nothing is eligible, a random permutation and three non-permutations
    per kind;
  * 60 graphs with n = 30-150 (random connected, random chordal, windows
    of width 1-6) whose `LowestId`, `HighestId`, `FixedPreference` and
    `SeededRandom` orders of every kind are validated under all 7 kinds;
  * `witness_order_mcs` and `witness_order_mns` on the running instance
    and 24 random formulas (k = 3-5) under every assignment (unsatisfying
    ones raise);
  * the oracle on 400 random graphs with n <= 8, 40 % of them drawn
    without a spanning tree: for every kind the end-vertex set with a
    free and a fixed start, every target's witness, MCS/MNS terminal
    orders (random limit and start) and `eligible_set` after a random
    prefix; Generic and BFS end-vertex sets and witnesses on 12 random
    connected graphs with n = 9-11;
  * MCS and LBFS probe hits for every target of 40 random connected
    graphs (n <= 12, 0-50 trials) and on the running instance's MCS
    gadget.
"""

from __future__ import annotations

import hashlib
import random
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)
from endvertex import (  # noqa: E402
    CnfFormula,
    FixedPreference,
    Graph,
    HighestId,
    LowestId,
    SearchKind,
    SearchReplay,
    SeededRandom,
    build_mcs_gadget,
    eligible_set,
    endvertex_set_exhaustive,
    is_endvertex_exhaustive,
    randomized_endvertex_probe,
    run_search,
    validate_order,
    witness_order_mcs,
    witness_order_mns,
)
from reference import terminal_orders_exhaustive  # noqa: E402

RUNNING_INSTANCE = CnfFormula(4, (
    ((1, False), (2, True), (3, False)),
    ((1, True), (3, False), (4, True)),
    ((1, False), (3, False), (4, False)),
))


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.calls: dict[str, int] = {}
        self.raised = 0

    def record(self, fn, *args, **kwargs):
        self.calls[fn.__name__] = self.calls.get(fn.__name__, 0) + 1
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.raised += 1
            out = None
            self.sha.update(f"{fn.__name__} raised {type(exc).__name__}: {exc}\n".encode())
        else:
            self.sha.update(f"{fn.__name__} -> {out!r}\n".encode())
        return out


def replay_order(kind, g, rng):
    """A random order that follows the kind's rule until nothing is
    eligible, then takes any unvisited vertex."""
    replay = SearchReplay(g, kind)
    while len(replay.order) < g.n:
        replay.advance(rng.choice(replay.eligible() or replay.unvisited()))
    return list(replay.order)


def small_graphs(d: Digest) -> None:
    rng = random.Random(8001)
    for trial in range(3000):
        n = rng.randint(1, 9)
        if trial % 5 < 2:
            p = rng.uniform(0.0, 0.6)
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
        else:
            g = fx.rand_connected_graph(rng, n)
        perm = rng.sample(range(n), n)
        policies = (LowestId(), HighestId(), FixedPreference(tuple(perm)),
                    FixedPreference(tuple(rng.choices(range(-1, n + 1), k=rng.randint(0, n + 2)))),
                    SeededRandom(rng.getrandbits(32)))
        for kind in SearchKind:
            for policy in policies:
                for start in (None, rng.randrange(n), n):
                    d.record(run_search, kind, g, start=start, policy=policy)
            for order in (replay_order(kind, g, rng), replay_order(kind, g, rng),
                          rng.sample(range(n), n), perm[:-1], perm + perm[:1], [n] + perm[1:]):
                d.record(validate_order, kind, g, order)


def mid_graphs(d: Digest) -> None:
    rng = random.Random(8002)
    for trial in range(60):
        n = rng.randint(30, 150)
        if trial % 3 == 0:
            g = fx.rand_connected_graph(rng, n, rng.uniform(0.02, 0.1))
        elif trial % 3 == 1:
            g = fx.rand_chordal(rng, n, rng.uniform(0.2, 0.8))
        else:
            g = fx.window(n, rng.randint(1, 6))
        policies = (LowestId(), HighestId(), FixedPreference(tuple(rng.sample(range(n), n))),
                    SeededRandom(rng.getrandbits(32)))
        for kind in SearchKind:
            for policy in policies:
                order = d.record(run_search, kind, g, policy=policy)
                for other in SearchKind:
                    d.record(validate_order, other, g, order)


def witnesses(d: Digest) -> None:
    rng = random.Random(8003)
    formulas = [RUNNING_INSTANCE] + [fx.rand_cnf(rng, k, rng.randint(1, 4))
                                     for k in (3, 4, 5) for _ in range(8)]
    for cnf in formulas:
        for bits in product((True, False), repeat=cnf.variable_count):
            assignment = dict(zip(range(1, cnf.variable_count + 1), bits))
            d.record(witness_order_mcs, cnf, assignment)
            d.record(witness_order_mns, cnf, assignment)


def terminal_orders(*args, **kwargs) -> list[list[int]]:
    return list(terminal_orders_exhaustive(*args, **kwargs))


def oracle(d: Digest) -> None:
    rng = random.Random(8004)
    for trial in range(400):
        n = rng.randint(1, 8)
        if trial % 5 < 2:
            p = rng.uniform(0.0, 0.6)
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
        else:
            g = fx.rand_connected_graph(rng, n)
        for kind in SearchKind:
            d.record(endvertex_set_exhaustive, g, kind)
            d.record(endvertex_set_exhaustive, g, kind, start=rng.randrange(n))
            for t in range(n):
                d.record(is_endvertex_exhaustive, g, kind, t)
                if kind in (SearchKind.MCS, SearchKind.MNS):
                    d.record(terminal_orders, g, kind, t, rng.randint(0, 6),
                             start=rng.choice((None, rng.randrange(n))))
            d.record(eligible_set, kind, g, rng.sample(range(n), rng.randrange(n)))
    for _ in range(12):
        g = fx.rand_connected_graph(rng, rng.randint(9, 11))
        for kind in (SearchKind.GENERIC, SearchKind.BFS):
            d.record(endvertex_set_exhaustive, g, kind)
            for t in range(g.n):
                d.record(is_endvertex_exhaustive, g, kind, t)


def probes(d: Digest) -> None:
    rng = random.Random(8005)
    for _ in range(40):
        g = fx.rand_connected_graph(rng, rng.randint(1, 12))
        for kind in (SearchKind.MCS, SearchKind.LBFS):
            for t in range(g.n):
                d.record(randomized_endvertex_probe, g, kind, t, rng.randint(0, 50),
                         rng.getrandbits(32))
    art = build_mcs_gadget(RUNNING_INSTANCE)
    for t in (art.target, 0, art.graph.n // 2):
        d.record(randomized_endvertex_probe, art.graph, SearchKind.MCS, t, 200, t)


def main() -> None:
    d = Digest()
    small_graphs(d)
    mid_graphs(d)
    witnesses(d)
    oracle(d)
    probes(d)
    calls = ", ".join(f"{name} {count}" for name, count in sorted(d.calls.items()))
    print(f"{d.sha.hexdigest()}  ({calls}; {d.raised} raised)")


if __name__ == "__main__":
    main()
