"""Time the exhaustive oracle's set and target queries per search kind.

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
witnesses).  Under `--against`, the other tree's time and digest follow,
then the ratio of this tree's time to the other's.  The collector is
paused while timing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import endvertex  # noqa: E402
import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)
from engine_timing import load_tree  # noqa: E402

REPS = 3


def set_query(tree, kind, graphs) -> list:
    return [sorted(tree.endvertex_set_exhaustive(g, kind)) for g in graphs]


def target_query(tree, kind, graphs) -> list:
    return [tree.is_endvertex_exhaustive(g, kind, t) for g in graphs for t in range(g.n)]


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
            timed = best_times(runs, kind.value, query)
            seconds, digest = timed[0]
            line = f"{kind.value:8} {name:6} {seconds * 1e3:9.1f}  {digest}"
            if len(timed) > 1:
                o_seconds, o_digest = timed[1]
                line += f"  {o_seconds * 1e3:10.1f}  {o_digest}  x{seconds / o_seconds:.2f}"
            print(line, flush=True)
        gc.collect()


if __name__ == "__main__":
    main()
