"""Reference implementations the library's faster paths are compared against.

The search references are the step-by-step replay versions: every step
asks `SearchReplay.eligible()` for the whole eligible set and picks from
it.  They are quadratic (cubic for MNS).  No library path replays a
search any more, so for LDFS and MNS these are the only second
implementation the engines are checked against.

The recognizer references are the exhaustive searches the LBFS-sweep
recognizers replaced (exponential, and recursive in `enumerate_clique_orders`),
the vertex-triple (claw, net) test, and the induced-path hole search with
the weak chordality check built on it; they serve desk-scale graphs only.

`minimal_separators_chordal` reads the minimal separators of a chordal
graph off its clique tree, and `terminal_orders_exhaustive` lists MCS or
MNS orders ending at a target off the oracle's walker; no library path
needs either.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterator

from endvertex import (
    CliqueOrder,
    DisconnectedGraphError,
    FixedPreference,
    Graph,
    GuardExceededError,
    HighestId,
    LowestId,
    SearchKind,
    SearchReplay,
    clique_tree,
    complement,
    maximal_cliques_chordal,
    recognize_chordal,
)
from endvertex.graph import _position_map
from endvertex.graph import is_connected
from endvertex.oracle import SET_STATE_KINDS, _check_entry, _orders
from endvertex import reduction


def reference_picker(policy):
    """The eligible-set picker each deterministic policy stands for."""
    if isinstance(policy, LowestId):
        return min
    if isinstance(policy, HighestId):
        return max
    if isinstance(policy, FixedPreference):
        rank = {v: i for i, v in enumerate(policy.preference)}

        def pick(eligible):
            try:
                return min(eligible, key=rank.__getitem__)
            except KeyError:
                raise ValueError("preference ordering does not cover the eligible set") from None

        return pick
    raise TypeError(f"no reference picker for {policy!r}")


def reference_run_search(kind, g, start=None, policy=LowestId()):
    n = g.n
    if n == 0:
        return []
    if not is_connected(g):
        raise DisconnectedGraphError(f"{kind.value} search requires a connected graph")
    if start is not None and not 0 <= start < n:
        raise ValueError(f"start vertex {start} out of range")
    replay = SearchReplay(g, kind)
    pick = reference_picker(policy)
    if start is not None:
        replay.advance(start)
    while len(replay.order) < n:
        elig = replay.eligible()
        if not elig:
            raise DisconnectedGraphError("search stalled: no eligible vertex")
        replay.advance(pick(elig))
    return list(replay.order)


def reference_validate_order(kind, g, order):
    _position_map(order, g.n)
    replay = SearchReplay(g, kind)
    for i, v in enumerate(order):
        if i and v not in replay.eligible():
            return False, i + 1
        replay.advance(v)
    return True, None


def reference_witness_order_mcs(cnf, assignment):
    """Visit each phase of `witness_order_mcs` in turn, always the least-id
    phase vertex that holds a maximum label."""
    g, phases = reduction._mcs_witness_phases(cnf, assignment)
    replay = SearchReplay(g, SearchKind.MCS)
    order = []
    for phase in phases:
        pending = set(phase)
        while pending:
            eligible = set(replay.eligible())
            pick = min(pending & eligible, default=None)
            if pick is None:
                raise AssertionError(
                    "witness construction stalled: no phase vertex holds a maximum label")
            pending.remove(pick)
            replay.advance(pick)
            order.append(pick)
    return order


def enumerate_clique_orders(g: Graph) -> Iterator[CliqueOrder]:
    """All linear orders of the maximal cliques with every vertex's
    cliques consecutive (backtracking with closed-vertex pruning).

    Requires connected chordal input; non-chordal graphs yield nothing.
    """
    peo = recognize_chordal(g)
    if peo is None:
        return
    cliques = maximal_cliques_chordal(g)
    k = len(cliques)
    used = [False] * k
    closed: set = set()
    placed: list[frozenset] = []

    def place() -> Iterator[CliqueOrder]:
        if len(placed) == k:
            yield CliqueOrder(tuple(placed))
            return
        seen_open = set().union(*placed) - closed if placed else set()
        for i in range(k):
            if used[i]:
                continue
            c = cliques[i]
            if c & closed:
                continue
            newly_closed = seen_open - c
            used[i] = True
            placed.append(c)
            closed.update(newly_closed)
            yield from place()
            closed.difference_update(newly_closed)
            placed.pop()
            used[i] = False

    yield from place()


def unit_interval_backtrack(g: Graph, forced_last: int | None) -> list[int] | None:
    """Left-to-right placement; placing w requires the block from w's
    earliest placed neighbor through w to be a clique.  With
    `forced_last`, that vertex may only be placed last."""
    n = g.n
    if n == 0:
        return []
    adj = g.adj
    order: list[int] = []
    pos = [-1] * n

    def can_place(w: int) -> bool:
        i = len(order)
        earliest = i
        for x in adj[w]:
            p = pos[x]
            if 0 <= p < earliest:
                earliest = p
        for p in range(earliest, i):
            if w not in adj[order[p]]:
                return False
            for q in range(p + 1, i):
                if order[q] not in adj[order[p]]:
                    return False
        return True

    def rec() -> bool:
        i = len(order)
        if i == n:
            return True
        for w in range(n):
            if pos[w] >= 0:
                continue
            if forced_last is not None and w == forced_last and i != n - 1:
                continue
            if not can_place(w):
                continue
            pos[w] = i
            order.append(w)
            if rec():
                return True
            order.pop()
            pos[w] = -1
        return False

    return order if rec() else None


def reference_recognize_interval(g: Graph) -> CliqueOrder | None:
    if not is_connected(g):
        raise ValueError("interval recognition needs a connected graph")
    return next(enumerate_clique_orders(g), None)


def reference_recognize_unit_interval(g: Graph) -> list[int] | None:
    return unit_interval_backtrack(g, None)


def reference_is_claw_net_free(g: Graph) -> bool:
    """Every neighbour triple for the claw; for the net, every triangle
    a < b < c and the pendants of each corner scanned one by one."""
    n = g.n
    adj = g.adj
    for center in range(n):
        nbrs = sorted(adj[center])
        for a, b, c in combinations(nbrs, 3):
            if b not in adj[a] and c not in adj[a] and c not in adj[b]:
                return False
    for a in range(n):
        for b in adj[a]:
            if b < a:
                continue
            for c in adj[a] & adj[b]:
                if c < b:
                    continue
                tri = {a, b, c}
                pend_a = [x for x in adj[a] if x not in tri and x not in adj[b] and x not in adj[c]]
                pend_b = [y for y in adj[b] if y not in tri and y not in adj[a] and y not in adj[c]]
                pend_c = [z for z in adj[c] if z not in tri and z not in adj[a] and z not in adj[b]]
                for x in pend_a:
                    for y in pend_b:
                        if y == x or y in adj[x]:
                            continue
                        for z in pend_c:
                            if z not in (x, y) and z not in adj[x] and z not in adj[y]:
                                return False
    return True


def find_hole(g: Graph, min_len: int = 4) -> list[int] | None:
    """Some chordless cycle with at least `min_len` vertices, or None.

    Desk-scale induced-path extension: grow induced paths from each
    anchor vertex (kept minimal in the cycle, which canonicalizes the
    search) and close them when the tip sees the anchor again.
    """
    adj = g.adj

    def extend(path: list[int], in_path: set[int]) -> list[int] | None:
        last = path[-1]
        anchor = path[0]
        interior = in_path - {anchor, last}
        for w in adj[last]:
            if w in in_path or w < anchor:
                continue
            if any(x in adj[w] for x in interior):
                continue
            if anchor in adj[w]:
                if len(path) + 1 >= min_len:
                    return path + [w]
                continue
            path.append(w)
            in_path.add(w)
            got = extend(path, in_path)
            if got is not None:
                return got
            path.pop()
            in_path.remove(w)
        return None

    for a in range(g.n):
        for b in adj[a]:
            if b < a:
                continue
            got = extend([a, b], {a, b})
            if got is not None:
                return got
    return None




def is_weakly_chordal_desk(g: Graph, size_guard: int = 64) -> bool:
    """True iff neither g nor its complement has a hole on >= 5 vertices.

    Bounded induced-path extension search; refuses instances above the
    guard instead of guessing.
    """
    if g.n > size_guard:
        raise GuardExceededError("weak chordality check", g.n, size_guard)
    if find_hole(g, min_len=5) is not None:
        return False
    return find_hole(complement(g), min_len=5) is None


def minimal_separators_chordal(g: Graph) -> list[frozenset]:
    """All minimal separators of a connected chordal graph, deduplicated.

    They are exactly the intersections of adjacent maximal cliques in a
    clique tree, which the MCS-grown tree provides directly as its edge
    separators.  Sorted by (size, members) for deterministic output.
    """
    _, edges = clique_tree(g)
    seps = {sep for _, _, sep in edges if sep}
    return sorted(seps, key=lambda s: (len(s), sorted(s)))


def terminal_orders_exhaustive(g: Graph, kind: SearchKind, t: int, limit: int,
                               start: int | None = None,
                               guard: int | None = None) -> Iterator[list[int]]:
    """Up to `limit` distinct full kind-orders ending at t (MCS/MNS only)."""
    if kind not in SET_STATE_KINDS:
        raise ValueError("terminal-order enumeration is provided for MCS and MNS only")
    _check_entry(g, kind, start, guard, t)
    return islice(_orders(g, kind, start, t), max(limit, 0))
