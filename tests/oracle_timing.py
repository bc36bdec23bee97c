"""Time the exhaustive oracle's set queries per search kind.

Usage, from the root of a checkout:

    python3 tests/oracle_timing.py

It imports `endvertex` from that checkout's `src/`, so running it on two
trees, alternately, compares their oracles.  The name has no `test_`
prefix: pytest does not collect it.

Corpus: 32 seeded random connected graphs with n = 7-9.  Printed, one
line per kind: the best of 3 repetitions of `endvertex_set_exhaustive`
over the whole corpus, in milliseconds, and a SHA-256 prefix of the sets
it returned, so that two trees' answers can be told apart too.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)
from endvertex import SearchKind, endvertex_set_exhaustive  # noqa: E402


def main() -> None:
    rng = random.Random(1801)
    graphs = [fx.rand_connected_graph(rng, rng.randint(7, 9)) for _ in range(32)]
    for kind in SearchKind:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            sets = [sorted(endvertex_set_exhaustive(g, kind)) for g in graphs]
            best = min(best, perf_counter() - t0)
        digest = hashlib.sha256(repr(sets).encode()).hexdigest()[:12]
        print(f"{kind.value:8} {best * 1e3:9.1f} ms  {digest}")


if __name__ == "__main__":
    main()
