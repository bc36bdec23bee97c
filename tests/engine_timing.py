"""Time `run_search` + `validate_order` per search kind.

Usage, from the root of a checkout:

    python3 tests/engine_timing.py [--reps N] [--sizes 300,1000,100000] [kind ...]

It imports `endvertex` from that checkout's `src/`, so running it on two
trees, alternately, compares their search engines.  The name has no
`test_` prefix: pytest does not collect it.

Graphs, one per family and size, from fixed seeds: a window of width 3,
`rand_sparse_connected` with average degree 5 and `rand_chordal` with
q = 0.5.  Kinds default to the five that `_refine_picks` serves: BFS,
DFS, LBFS, LDFS and MNS.  Printed, one line per family, size and kind:
the best of N repetitions (default 5) of one `run_search` and one
`validate_order` of its order, in CPU milliseconds, with identity ranks
(`LowestId`) and with random ones (`SeededRandom`), then a SHA-256
prefix of the orders and verdicts, so that two trees' answers can be
told apart too.  The collector is paused while timing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import random
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)
from endvertex import LOWEST_ID, SearchKind, SeededRandom, run_search, validate_order  # noqa: E402

FAMILIES = {
    "window": lambda rng, n: fx.window(n),
    "sparse": lambda rng, n: fx.rand_sparse_connected(rng, n, 5),
    "chordal": lambda rng, n: fx.rand_chordal(rng, n, 0.5),
}


def best_time(kind: SearchKind, g, policy, reps: int, outputs: list) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = process_time()
        order = run_search(kind, g, policy=policy)
        verdict = validate_order(kind, g, order)
        best = min(best, process_time() - t0)
    outputs.append((order, verdict))
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--sizes", default="300,1000,100000")
    parser.add_argument("kinds", nargs="*", default=["bfs", "dfs", "lbfs", "ldfs", "mns"])
    args = parser.parse_args()
    kinds = [SearchKind.parse(k) for k in args.kinds]
    print(f"{'family':8} {'n':>7} {'kind':5} {'identity ms':>12} {'random ms':>10}  digest")
    gc.collect()
    gc.disable()
    for family, build in FAMILIES.items():
        for n in map(int, args.sizes.split(",")):
            g = build(random.Random(2201 + n), n)
            for kind in kinds:
                outputs: list = []
                ident = best_time(kind, g, LOWEST_ID, args.reps, outputs)
                rand = best_time(kind, g, SeededRandom(n), args.reps, outputs)
                digest = hashlib.sha256(repr(outputs).encode()).hexdigest()[:12]
                print(f"{family:8} {n:7} {kind.value:5} {ident * 1e3:12.1f} {rand * 1e3:10.1f}  {digest}",
                      flush=True)
            gc.collect()


if __name__ == "__main__":
    main()
