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
for instances beyond any enumeration guard.
"""

from __future__ import annotations

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
    adj = np.zeros((n, n))
    for u in range(n):
        for v in g.adj[u]:
            adj[u, v] = 1
    rng = np.random.default_rng(seed)
    # Visited-neighbour counts, -inf once visited; in place, one step per column.
    counts = np.zeros((trials, n))
    score = np.empty((trials, n))
    rows = np.arange(trials)
    for _ in range(n):
        rng.random(out=score)
        score += counts
        last = score.argmax(axis=1)
        counts[rows, last] = -np.inf
        counts += adj[last]
    return int((last == t).sum())
