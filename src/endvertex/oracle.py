"""Exhaustive end-vertex ground truth at desk scale.

One iterative depth-first walker (`_orders`) enumerates valid orders
over a single `SearchReplay`, so every search rule is the one defined in
`search.py`.  Eligible vertices are tried in ascending order and an
optional target may only be visited last; the public functions are thin
wrappers over it.

Pruning:

* a set query skips a prefix whose unvisited vertices are all known
  end-vertices already, whatever the kind;
* MCS and MNS eligibility is a function of the visited set alone, so
  their walks also memoize visited-set bitmasks: a set query skips a
  visited set it has explored already, a target query one that has no
  completion ending at the target.

Guards are explicit: exceeding one raises GuardExceededError rather than
approximating.  The randomized probe is the only statistical tool here,
for instances beyond any enumeration guard.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator

from .errors import DisconnectedGraphError, GuardExceededError
from .graph import Graph, is_connected
from .search import SearchKind, SearchReplay, SeededRandom, run_search

SET_STATE_KINDS = (SearchKind.MCS, SearchKind.MNS)
DEFAULT_GUARD_SET_STATE = 18
DEFAULT_GUARD_PREFIX = 12


def _check_entry(g: Graph, kind: SearchKind, start: int | None, guard: int | None,
                 t: int | None = None) -> None:
    if guard is None:
        guard = DEFAULT_GUARD_SET_STATE if kind in SET_STATE_KINDS else DEFAULT_GUARD_PREFIX
    if g.n > guard:
        raise GuardExceededError(f"exhaustive {kind.value} oracle", g.n, guard)
    if not is_connected(g):
        raise DisconnectedGraphError("oracle requires a connected graph")
    if start is not None and not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range")
    if t is not None and not 0 <= t < g.n:
        raise ValueError(f"target vertex {t} out of range")


def _orders(g: Graph, kind: SearchKind, start: int | None,
            target: int | None = None) -> Iterator[list[int]]:
    """Valid kind-orders (from `start` if given) in lexicographic order.

    With a target, exactly the orders ending at it.  Without one, every
    end-vertex ends at least one generated order, but prefixes that
    cannot reach a new end-vertex are skipped.
    """
    n = g.n
    replay = SearchReplay(g, kind)
    order, advance, retreat = replay.order, replay.advance, replay.retreat
    memo: set[int] | None = set() if kind in SET_STATE_KINDS else None
    found = 0  # end-vertices of the orders generated so far, as a bitmask
    emitted = 0
    # One frame per prefix length: the vertices still to try after it, and
    # the number of orders generated before it was entered.
    stack = [(iter(range(n) if start is None else (start,)), 0)]
    while stack:
        todo, entered = stack[-1]
        for v in todo:
            if len(order) == n - 1:
                advance(v)
                yield list(order)
                retreat()
                found |= 1 << v
                emitted += 1
                continue
            if v == target:
                continue
            mask = replay.visited_mask | 1 << v
            if memo is not None:
                if mask in memo:
                    continue
                if target is None:
                    memo.add(mask)
            if target is None and not replay.full_mask & ~mask & ~found:
                continue
            advance(v)
            stack.append((iter(replay.eligible()), emitted))
            break
        else:
            stack.pop()
            if order:
                if memo is not None and target is not None and emitted == entered:
                    memo.add(replay.visited_mask)  # no completion ends at the target
                retreat()


def endvertex_set_exhaustive(g: Graph, kind: SearchKind, start: int | None = None,
                             guard: int | None = None) -> frozenset:
    """Exactly {t : some valid kind-order (optionally from `start`) ends at t}."""
    _check_entry(g, kind, start, guard)
    return frozenset(order[-1] for order in _orders(g, kind, start))


def is_endvertex_exhaustive(g: Graph, kind: SearchKind, t: int, start: int | None = None,
                            guard: int | None = None) -> tuple[bool, list[int] | None]:
    """Membership with early exit; on success also a witness order ending at t."""
    _check_entry(g, kind, start, guard, t)
    witness = next(_orders(g, kind, start, t), None)
    return (witness is not None), witness


def terminal_orders_exhaustive(g: Graph, kind: SearchKind, t: int, limit: int,
                               start: int | None = None,
                               guard: int | None = None) -> Iterator[list[int]]:
    """Up to `limit` distinct full kind-orders ending at t (MCS/MNS only)."""
    if kind not in SET_STATE_KINDS:
        raise ValueError("terminal-order enumeration is provided for MCS and MNS only")
    _check_entry(g, kind, start, guard, t)
    return islice(_orders(g, kind, start, t), max(limit, 0))


def randomized_endvertex_probe(g: Graph, kind: SearchKind, t: int, trials: int,
                               seed: int) -> int:
    """How many of `trials` seeded random kind-searches end at t.

    Deterministic per seed.  A statistical smoke test for instances
    beyond the enumeration guards; zero hits is evidence, not proof.
    MCS runs as a numpy batch (one synchronized step per column,
    uniform choice among maximum labels); other kinds loop run_search,
    each trial under a `SeededRandom` priority (one uniformly random
    ranking of the vertices per trial) drawn from a per-trial sub-seed.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("probe requires a connected graph")
    if not 0 <= t < g.n:
        raise ValueError(f"target vertex {t} out of range")
    if trials <= 0:
        return 0
    if kind is SearchKind.MCS:
        return _probe_mcs_batched(g, t, trials, seed)
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        order = run_search(kind, g, start=None, policy=SeededRandom(rng.getrandbits(64)))
        if order[-1] == t:
            hits += 1
    return hits


def _probe_mcs_batched(g: Graph, t: int, trials: int, seed: int) -> int:
    import numpy as np  # here, so that `import endvertex` and the CLI do not load numpy

    n = g.n
    if n == 1:
        return trials if t == 0 else 0
    adj = np.zeros((n, n), dtype=np.int32)
    for u in range(n):
        for v in g.adj[u]:
            adj[u, v] = 1
    rng = np.random.default_rng(seed)
    counts = np.zeros((trials, n), dtype=np.int32)
    visited = np.zeros((trials, n), dtype=bool)
    rows = np.arange(trials)
    last = None
    for _ in range(n):
        noise = rng.random((trials, n))
        score = np.where(visited, -1.0, counts + noise)
        last = score.argmax(axis=1)
        visited[rows, last] = True
        counts += adj[last]
    return int((last == t).sum())
