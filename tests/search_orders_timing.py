"""Time perfbench's `search-orders` queries in-process, optionally on two trees.

Usage, from the root of a checkout:

    python3 tests/search_orders_timing.py [--against CHECKOUT]

Each of seeds 1-4 builds the workload with `perfbench/search_orders.py`'s
own `setup` and runs its query pool for 24 cycles.  A query
times what that workload times: one `run_search`, its validation under
its own kind and under the kind above it, and the validation of an order
with a violation planted by the workload's `plant_violation` (the
planting itself is not timed).  The collector stays on, as in the
workload.

Under `--against`, the `endvertex` package under CHECKOUT's `src/` is
imported too (`engine_timing.load_tree`), and every query runs on both
trees in turn, on the same adjacency sets, alternating which goes first.
On a shared machine, separate processes drift by about as much as a 10%
change; interleaving per query keeps both trees under the same drift.

Printed per seed: each tree's median cycle time in ms and its queries per
second over all cycles, the ratio of this tree's median to the other's,
the cycles this tree was faster in, and a SHA-256 prefix of every order
and verdict per tree, so that two trees' answers can be told apart too.
The name has no `test_` prefix: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from engine_timing import endvertex, load_tree  # noqa: E402  (puts this tree's src/ first)
from search_orders import ABOVE, POOL_CYCLES, plant_violation, setup  # noqa: E402

SEEDS = (1, 2, 3, 4)
CYCLES = 24


class Side:
    """One tree and the workload's graphs and preferences rebuilt in it."""

    def __init__(self, tree, state):
        self.tree = tree
        same = tree is endvertex
        self.graphs = {key: g if same else tree.Graph(g.adj) for key, g in state.graphs.items()}
        self.preference = {key: tree.FixedPreference(p.preference) for key, p in state.preference.items()}
        self.digest = hashlib.sha256()
        self.cycles: list[float] = []
        self.queries = 0

    def query(self, spec: dict) -> float:
        tree = self.tree
        kind = tree.SearchKind(spec["kind"].value)
        above = ABOVE[spec["kind"]]
        above = above and tree.SearchKind(above.value)
        g = self.graphs[spec["family"]]
        policy = {"lowest": tree.LowestId(), "random": tree.SeededRandom(spec["policy_seed"]),
                  "preference": self.preference[spec["family"]]}[spec["policy"]]
        start = perf_counter()
        order = tree.run_search(kind, g, policy=policy)
        own = tree.validate_order(kind, g, order)
        up = tree.validate_order(above, g, order) if above else (True, None)
        elapsed = perf_counter() - start
        planted, position = plant_violation(g, order, spec["plant_at"])
        start = perf_counter()
        found = tree.validate_order(kind, g, planted)
        elapsed += perf_counter() - start
        self.digest.update(repr((order, own, up, found, position)).encode())
        self.queries += 1
        return elapsed


def run_seed(seed: int, cycles: int, trees: list) -> list[Side]:
    state = setup(seed, ROOT, None)
    sides = [Side(tree, state) for tree in trees]
    turn = 0
    for c in range(cycles):
        spent = [0.0] * len(sides)
        for spec in state.pool[c % POOL_CYCLES]:
            for j in range(len(sides)):
                i = (turn + j) % len(sides)
                spent[i] += sides[i].query(spec)
            turn += 1
        for side, seconds in zip(sides, spent):
            side.cycles.append(seconds)
    return sides


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="also time the endvertex package under CHECKOUT/src, interleaved")
    args = parser.parse_args()
    trees = [endvertex]
    if args.against:
        trees.append(load_tree(args.against, "endvertex_against"))
    header = f"{'seed':>4} {'cycle ms':>9} {'queries/s':>10}  {'digest':12}"
    if len(trees) > 1:
        header += f"  {'against ms':>10} {'queries/s':>10}  {'digest':12}  ratio  wins"
    print(header)
    for seed in SEEDS:
        sides = run_seed(seed, CYCLES, trees)
        line = f"{seed:4}"
        for gap, width, side in zip((" ", "  "), (9, 10), sides):
            line += (f"{gap}{statistics.median(side.cycles) * 1e3:{width}.1f}"
                     f" {side.queries / sum(side.cycles):10.1f}  {side.digest.hexdigest()[:12]}")
        if len(sides) > 1:
            mine, theirs = sides[0].cycles, sides[1].cycles
            wins = sum(a < b for a, b in zip(mine, theirs))
            line += f"  x{statistics.median(mine) / statistics.median(theirs):.3f}  {wins}/{len(mine)}"
        print(line, flush=True)


if __name__ == "__main__":
    main()
