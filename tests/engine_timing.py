"""Time `run_search` + `validate_order` per search kind.

Usage, from the root of a checkout:

    python3 tests/engine_timing.py [--reps N] [--sizes 300,1000,100000]
                                   [--against CHECKOUT] [kind ...]

It imports `endvertex` from that checkout's `src/`, so running it on two
trees, alternately, compares their search engines.  The machine drifts
between two processes by more than a 10% change, so `--against` compares
two trees in one process instead: it imports the `endvertex` package
under CHECKOUT's `src/` too, as `endvertex_against`, and runs each
repetition on both trees in turn, alternating which goes first.  The
name has no `test_` prefix: pytest does not collect it.

Graphs, one per family and size, from fixed seeds: a window of width 3,
`rand_sparse_connected` with average degree 5 and `rand_chordal` with
q = 0.5.  Both trees search the same adjacency sets.  Kinds default to
the five that `_refine_picks` serves: BFS, DFS, LBFS, LDFS and MNS.
Printed, one line per family, size and kind: the best of N repetitions
(default 5) of one `run_search` and one `validate_order` of its order,
in CPU milliseconds, with identity ranks (`LowestId`) and with random
ones (`SeededRandom`), then a SHA-256 prefix of the orders and
verdicts, so that two trees' answers can be told apart too.  Under
`--against`, the other tree's times and digest follow, then the ratio of
this tree's times to the other's.  The collector is paused while timing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import random
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import endvertex  # noqa: E402
import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)

FAMILIES = {
    "window": lambda rng, n: fx.window(n),
    "sparse": lambda rng, n: fx.rand_sparse_connected(rng, n, 5),
    "chordal": lambda rng, n: fx.rand_chordal(rng, n, 0.5),
}


def load_tree(checkout: Path, name: str):
    """The `endvertex` package under `checkout`'s `src/`, imported as `name`."""
    package = checkout.resolve() / "src" / "endvertex"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"no endvertex package under {checkout}/src")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def time_once(tree, kind_name: str, g, policy) -> tuple[float, tuple]:
    kind = tree.SearchKind.parse(kind_name)
    t0 = process_time()
    order = tree.run_search(kind, g, policy=policy)
    verdict = tree.validate_order(kind, g, order)
    return process_time() - t0, (order, verdict)


def best_times(runs: list, kind_name: str, reps: int) -> list[tuple[float, float, str]]:
    """Per tree of `runs`, a list of (tree, its graph), the best identity
    and random times and the digest; each repetition runs every tree in
    turn, starting from a different one each time."""
    best = [[float("inf"), float("inf")] for _ in runs]
    outputs: list[list] = [[None, None] for _ in runs]
    for rep in range(reps):
        for j in range(len(runs)):
            i = (rep + j) % len(runs)
            tree, g = runs[i]
            for p, policy in enumerate((tree.LOWEST_ID, tree.SeededRandom(g.n))):
                seconds, outputs[i][p] = time_once(tree, kind_name, g, policy)
                best[i][p] = min(best[i][p], seconds)
    return [(ident, rand, hashlib.sha256(repr(out).encode()).hexdigest()[:12])
            for (ident, rand), out in zip(best, outputs)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--sizes", default="300,1000,100000")
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="also time the endvertex package under CHECKOUT/src, interleaved")
    parser.add_argument("kinds", nargs="*", default=["bfs", "dfs", "lbfs", "ldfs", "mns"])
    args = parser.parse_args()
    kinds = [endvertex.SearchKind.parse(k).value for k in args.kinds]
    other = load_tree(args.against, "endvertex_against") if args.against else None
    header = f"{'family':8} {'n':>7} {'kind':5} {'identity ms':>12} {'random ms':>10}  digest"
    if other is not None:
        header += f"{'':6}  {'against ms':>11} {'random ms':>10}  {'digest':12}  ratio"
    print(header)
    gc.collect()
    gc.disable()
    for family, build in FAMILIES.items():
        for n in map(int, args.sizes.split(",")):
            g = build(random.Random(2201 + n), n)
            runs = [(endvertex, g)]
            if other is not None:
                runs.append((other, other.Graph(g.adj)))
            for kind in kinds:
                timed = best_times(runs, kind, args.reps)
                ident, rand, digest = timed[0]
                line = f"{family:8} {n:7} {kind:5} {ident * 1e3:12.1f} {rand * 1e3:10.1f}  {digest}"
                if other is not None:
                    o_ident, o_rand, o_digest = timed[1]
                    line += (f"  {o_ident * 1e3:11.1f} {o_rand * 1e3:10.1f}  {o_digest}"
                             f"  x{ident / o_ident:.2f} x{rand / o_rand:.2f}")
                print(line, flush=True)
            gc.collect()


if __name__ == "__main__":
    main()
