"""Time the exhaustive oracle's set and target queries per search kind,
and the randomized MCS probe on 3-SAT gadgets.

Usage, from the root of a checkout:

    python3 tests/oracle_timing.py [--against CHECKOUT]

It imports `endvertex` from that checkout's `src/`, so running it on two
trees, alternately, compares their oracles.  `--against` compares two
trees in one process instead, as in `tests/engine_timing.py`: it imports
the `endvertex` package under CHECKOUT's `src/` too, as
`endvertex_against`, and runs each repetition on both trees in turn,
alternating which goes first.  The name has no `test_` prefix: pytest
does not collect it.

Corpus: 32 seeded random connected graphs with n = 7-9.  Printed, one
line per kind and query: the best of 3 repetitions over the whole
corpus, in milliseconds, and a SHA-256 prefix of the answers, so that
two trees' answers can be told apart too.  The set query is
`endvertex_set_exhaustive` (the answers are the sets); the target query
is `is_endvertex_exhaustive` on every vertex (the verdicts and
witnesses).  Two probe rows follow, each one `randomized_endvertex_probe`
call per gadget, digested by its hits: the 16 MCS gadget queries of
`perfbench`'s dispatch-desk pool at seed 1 (k = 3, l = 4, 300 trials),
and the ten unsatisfiable gadgets of acceptance criterion 9 (10^4
trials each, replayed from that test's seed).  Under `--against`, the
other tree's time and digest follow, then the ratio of this tree's time
to the other's.  The collector is
paused while timing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import random
import sys
from itertools import product
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import endvertex  # noqa: E402
import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)
from engine_timing import load_tree  # noqa: E402

REPS = 3


def set_query(tree, kind, graphs) -> list:
    return [sorted(tree.endvertex_set_exhaustive(g, kind)) for g in graphs]


def target_query(tree, kind, graphs) -> list:
    return [tree.is_endvertex_exhaustive(g, kind, t) for g in graphs for t in range(g.n)]


def probe_query(tree, kind, cases) -> list[int]:
    return [tree.randomized_endvertex_probe(art.graph, kind, art.target, trials, seed)
            for art, trials, seed in cases]


def desk_gadgets() -> list[tuple]:
    """(formula, trials, seed) of the MCS gadget queries in dispatch-desk's pool at seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import dispatch_desk

    return [(spec["cnf"], dispatch_desk.PROBE_TRIALS, spec["seed"])
            for specs in dispatch_desk.setup(1, None, None).pool for spec in specs
            if spec.get("gadget") == "mcs"]


def criterion9_unsat() -> list[tuple]:
    """(formula, trials, seed) of criterion 9's unsatisfiable probes, drawn as
    `test_criterion_09_mcs_reduction` draws them."""
    rng = random.Random(95005)
    satisfiable = 1  # the test's fixed formula; four random ones follow
    while satisfiable < 5:
        cnf = fx.rand_cnf(rng, rng.randint(3, 4), rng.randint(1, 6))
        satisfiable += endvertex.sat_bruteforce(cnf) is not None
    cases = []
    while len(cases) < 10:
        k = rng.choice((3, 4))
        core_vars = sorted(rng.sample(range(1, k + 1), 3))
        clauses = [tuple((v, s) for v, s in zip(core_vars, signs))
                   for signs in product((True, False), repeat=3)]
        for _ in range(rng.randint(0, 2)):
            vars_ = rng.sample(range(1, k + 1), 3)
            clauses.append(tuple((v, rng.random() < 0.5) for v in vars_))
        rng.shuffle(clauses)
        cnf = endvertex.CnfFormula(k, tuple(clauses))
        assert endvertex.sat_bruteforce(cnf) is None
        cases.append((cnf, 10_000, 424200 + len(cases)))
    return cases


def best_times(runs: list, kind_name: str, query) -> list[tuple[float, str]]:
    """Per tree of `runs`, a list of (tree, its graphs), the best time of
    `query` and the digest of its answers; each repetition runs every
    tree in turn, starting from a different one each time."""
    best = [float("inf")] * len(runs)
    answers: list = [None] * len(runs)
    for rep in range(REPS):
        for j in range(len(runs)):
            i = (rep + j) % len(runs)
            tree, graphs = runs[i]
            kind = tree.SearchKind.parse(kind_name)
            t0 = perf_counter()
            answers[i] = query(tree, kind, graphs)
            best[i] = min(best[i], perf_counter() - t0)
    return [(seconds, hashlib.sha256(repr(out).encode()).hexdigest()[:12])
            for seconds, out in zip(best, answers)]


def print_row(runs: list, kind_name: str, name: str, query) -> None:
    timed = best_times(runs, kind_name, query)
    seconds, digest = timed[0]
    line = f"{kind_name:8} {name:6} {seconds * 1e3:9.1f}  {digest}"
    if len(timed) > 1:
        o_seconds, o_digest = timed[1]
        line += f"  {o_seconds * 1e3:10.1f}  {o_digest}  x{seconds / o_seconds:.2f}"
    print(line, flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="also time the endvertex package under CHECKOUT/src, interleaved")
    args = parser.parse_args()
    rng = random.Random(1801)
    graphs = [fx.rand_connected_graph(rng, rng.randint(7, 9)) for _ in range(32)]
    runs = [(endvertex, graphs)]
    header = f"{'kind':8} {'query':6} {'ms':>9}  digest"
    if args.against is not None:
        other = load_tree(args.against, "endvertex_against")
        runs.append((other, [other.Graph(g.adj) for g in graphs]))
        header += f"{'':6}  {'against ms':>10}  {'digest':12}  ratio"
    print(header)
    gc.collect()
    gc.disable()
    for kind in endvertex.SearchKind:
        for name, query in (("set", set_query), ("target", target_query)):
            print_row(runs, kind.value, name, query)
        gc.collect()
    for name, cases in (("desk", desk_gadgets()), ("crit9", criterion9_unsat())):
        probe_runs = [(tree, [(tree.build_mcs_gadget(tree.CnfFormula(cnf.variable_count,
                                                                     cnf.clauses)),
                               trials, seed) for cnf, trials, seed in cases])
                      for tree, _ in runs]
        print_row(probe_runs, "mcs", name, probe_query)
        gc.collect()


if __name__ == "__main__":
    main()
