"""Exhaustive end-vertex ground truth at desk scale.

One iterative depth-first walker (`_orders`) enumerates valid orders
over a single `SearchReplay`, so every search rule is the one defined in
`search.py`.  Eligible vertices are tried in ascending order and an
optional target may only be visited last; the public functions are thin
wrappers over it.

Pruning:

* a set query skips a prefix whose unvisited vertices are all known
  end-vertices already, whatever the kind;
* where a key fixes every completion, the walk memoizes it: a set query
  skips a state it has explored, a target query one with no completion
  ending at the target.  Generic, MCS and MNS key a state by its visited
  set (their rule reads nothing else); BFS by the visited set and the
  queue, the unvisited vertices grouped by earliest visited neighbour in
  order (a visit only appends one class).  LBFS and LDFS rank keys merge
  too few states to repay their cost and DFS needs its whole stack;
* a target query skips (and memoizes) a prefix after which some u != t
  is never eligible while t is unvisited, so u cannot precede t: one
  label test per kind (`_dead_end`; Generic and DFS have none).

Guards are explicit: exceeding one raises GuardExceededError rather than
approximating.  The randomized probe is the only statistical tool here,
for instances beyond any enumeration guard.  Its MCS batch runs its
trials in contiguous slices, at most one per usable CPU, each on its own
copy of the one PCG64 stream jumped to its rows' numbers (PCG64 advances
in O(log n) steps), so its hits do not depend on the CPU count.
"""

from __future__ import annotations

import os
import random
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


def _state_keys(replay: SearchReplay, kind: SearchKind):
    """(root key, child(key, v) -> the key after visiting v); (None, None): no memo."""
    if kind is SearchKind.BFS:
        adj, pos, label = replay.adj, replay.pos, replay.label

        def child(key, v):  # (visited set, *queue classes); v's fresh neighbours queue last
            fresh = sum(1 << w for w in adj[v] if pos[w] < 0 and not label[w])
            queue = [c & ~(1 << v) for c in key[1:]] + [fresh]
            return (key[0] | 1 << v, *filter(None, queue))
        return (0,), child
    if kind in (SearchKind.GENERIC, *SET_STATE_KINDS):
        return 0, lambda key, v: key | 1 << v  # the visited set
    return None, None


# Kind -> rule(label(u), label(t), N(u) & out) for a target query; see `_dead_end`.
_DEAD_END_RULES = {
    SearchKind.LBFS: lambda lu, lt, seen: lu < lt,
    SearchKind.BFS: lambda lu, lt, seen: lu.bit_length() < lt.bit_length(),
    SearchKind.LDFS: lambda lu, lt, seen: not seen and lu < lt,
    SearchKind.MNS: lambda lu, lt, seen: not seen and lu & lt == lu != lt,
    SearchKind.MCS: lambda lu, lt, seen: lt.bit_count() - lu.bit_count() > seen.bit_count(),
}


def _dead_end(replay: SearchReplay, kind: SearchKind, t: int):
    """dead(rest): whether, after the prefix (rest: its unvisited set), an
    unvisited u != t stays ineligible while t is, so no completion ends at t.

    A later visit w != t adds one bit to the labels of N(w), and "out" is
    rest minus t and N(t).  Each rule holds after every such visit:
    * LBFS: label(u) < label(t); the new bit is below every set bit.
    * BFS: label(u) tops below label(t); likewise, so u lacks the head's bit.
    * LDFS: label(u) < label(t), N(u) & out empty; t gains every bit u does.
    * MNS: label(u) strictly inside label(t), N(u) & out empty; likewise.
    * MCS: count(t) - count(u) > |N(u) & out|; only those w shrink the lead.
    """
    label, left, rule = replay.label, replay.left, _DEAD_END_RULES[kind]
    nbr = [sum(1 << w for w in ws) for ws in replay.adj]
    beyond = ~(nbr[t] | 1 << t)
    return lambda rest: any(rule(label[u], label[t], nbr[u] & rest & beyond) for u in left)


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
    root, child = _state_keys(replay, kind)
    dead = target is not None and kind in _DEAD_END_RULES and _dead_end(replay, kind, target)
    memo: set = set()
    found = 0  # end-vertices of the orders generated so far, as a bitmask
    emitted = 0
    # One frame per prefix length: the vertices still to try after it, the
    # number of orders generated before it was entered, its state key and
    # its unvisited vertices as a bitmask (for the set-query pruning).
    stack = [(iter(range(n) if start is None else (start,)), 0, root, (1 << n) - 1)]
    while stack:
        todo, entered, key, rest = stack[-1]
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
            sub = child and child(key, v)
            if sub in memo:
                continue
            if sub is not None and target is None:
                memo.add(sub)
            after = rest ^ 1 << v
            if target is None and not after & ~found:
                continue
            advance(v)
            if dead and dead(after):
                retreat()
                if sub is not None:
                    memo.add(sub)  # no completion ends at the target
                continue
            stack.append((iter(replay.eligible()), emitted, sub, after))
            break
        else:
            stack.pop()
            if order:
                if key is not None and target is not None and emitted == entered:
                    memo.add(key)  # no completion ends at the target
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


def randomized_endvertex_probe(g: Graph, kind: SearchKind, t: int, trials: int,
                               seed: int) -> int:
    """How many of `trials` seeded random kind-searches end at t.

    Deterministic per seed.  A statistical smoke test for instances
    beyond the enumeration guards; zero hits is evidence, not proof.
    MCS runs as a numpy batch (one synchronized step per column,
    uniform choice among maximum labels) over one `default_rng(seed)`
    stream, drawn one trials x n block per step.  The trials run in
    slices of rows, in threads, at most one per usable CPU and each
    drawing at least MIN_SLICE_CELLS numbers per step.  Each slice draws
    exactly its rows' share of the stream, so the hits are the same on
    any number of CPUs; a slice's exception is raised here.  Other kinds
    loop run_search, each trial under a `SeededRandom` priority (one
    uniformly random ranking of the vertices per trial) drawn from a
    per-trial sub-seed.
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


# Fewest numbers a slice draws per step (its rows x n).  Each slice costs a
# thread start and, every step, a turn at the interpreter lock; on 2 CPUs
# two slices of the 131-vertex MCS gadget (k = 3, l = 4) break even at 64
# rows each, while on graphs of 5-30 vertices two slices lost at 300-2000
# trials; so the floor scales with n rather than counting rows.
MIN_SLICE_CELLS = 8192


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _probe_mcs_batched(g: Graph, t: int, trials: int, seed: int) -> int:
    if g.n == 1:
        return trials if t == 0 else 0
    adj = _adjacency_matrix(g)
    min_rows = -(-MIN_SLICE_CELLS // g.n)  # rounded up: every slice has a row
    slices = max(1, min(_usable_cpus(), trials // min_rows))
    if slices == 1:
        return _probe_mcs_slice(adj, t, trials, seed, 0, trials)
    from concurrent.futures import ThreadPoolExecutor

    cuts = [trials * i // slices for i in range(slices + 1)]
    # Leaving the block joins every worker, also when slice 0 raises;
    # `.result()` re-raises a worker's exception here.
    with ThreadPoolExecutor(slices - 1) as pool:
        rest = [pool.submit(_probe_mcs_slice, adj, t, trials, seed, lo, hi)
                for lo, hi in zip(cuts[1:-1], cuts[2:])]
        hits = _probe_mcs_slice(adj, t, trials, seed, 0, cuts[1])
        return hits + sum(future.result() for future in rest)


def _adjacency_matrix(g: Graph):
    """g's 0/1 adjacency as floats, -inf on the diagonal: adding row v to
    the counts both counts v's visit and marks v visited."""
    import numpy as np  # here, so that `import endvertex` and the CLI do not load numpy

    adj = np.zeros((g.n, g.n))
    for u, nbrs in enumerate(g.adj):
        adj[u, np.fromiter(nbrs, np.intp, len(nbrs))] = 1
    np.fill_diagonal(adj, -np.inf)
    return adj


def _probe_mcs_slice(adj, t: int, trials: int, seed: int, lo: int, hi: int) -> int:
    """Hits among trials [lo, hi) of the probe's `trials`.

    The batch draws one trials x n block of `default_rng(seed)` per step,
    row-major.  This slice jumps its own copy of the stream to row lo of
    the first block, draws its rows and jumps past the other rows to the
    next block, so it reads exactly the numbers the whole batch reads for
    its rows, whatever the cuts.
    """
    import numpy as np

    n = adj.shape[0]
    rows = hi - lo
    skip = (trials - rows) * n
    bits = np.random.PCG64(seed)  # default_rng(seed)'s generator
    bits.advance(lo * n)
    rng = np.random.Generator(bits)
    # Visited-neighbour counts, -inf once visited; in place, one step per column.
    counts = np.zeros((rows, n))
    score = np.empty((rows, n))
    for _ in range(n):
        rng.random(out=score)
        if skip:
            bits.advance(skip)
        score += counts
        last = score.argmax(axis=1)
        counts += adj[last]
    return int((last == t).sum())
