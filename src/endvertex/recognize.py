"""Graph-class recognition with verifiable certificates.

Each recognizer is specified by the certificate it emits, never by its
internal method: a SplitPartition re-validates against its invariants, a
clique order against consecutiveness, a unit interval order against the
three-point condition, a PEO against the elimination test.  Interval and
unit-interval recognition use desk-scale backtracking searches; only the
certificate is contractual.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .chordal import _position_map, find_hole, maximal_cliques_chordal, recognize_chordal
from .errors import GuardExceededError
from .graph import Graph, complement, is_connected


# ---------------------------------------------------------------------------
# Split graphs


@dataclass(frozen=True)
class SplitPartition:
    """V = clique + independent, disjoint, with the clique side maximal."""

    clique: frozenset
    independent: frozenset


def validate_split_partition(g: Graph, part: SplitPartition) -> bool:
    """True iff `part` splits g into a clique and an independent set with
    the clique side maximal.  Each vertex's neighborhood is intersected
    with one side only, so this is O(n + m), not quadratic in a side."""
    c, i = part.clique, part.independent
    if c & i or (c | i) != frozenset(range(g.n)):
        return False
    adj = g.adj
    want = len(c) - 1
    for v in c:
        if len(adj[v] & c) != want:
            return False
    for w in i:
        # Independence, then maximality: no independent vertex sees all of C.
        if not adj[w].isdisjoint(i) or c <= adj[w]:
            return False
    return True


def is_split(g: Graph) -> bool:
    """Degree-sequence split test (linear apart from one sort)."""
    return _degree_split(g) is not None


def _degree_split(g: Graph) -> tuple[list[int], int] | None:
    """The vertices by descending degree (ties by smaller id) and m*, or
    None when the degree test finds g not split.

    With degrees d_1 >= ... >= d_n and m* = max{i : d_i >= i-1}, the
    graph is split iff sum_{i<=m*} d_i = m*(m*-1) + sum_{i>m*} d_i.
    """
    adj = g.adj
    # A stable sort keeps equal degrees in ascending id order.
    by_degree = sorted(range(g.n), key=lambda v: len(adj[v]), reverse=True)
    degs = [len(adj[v]) for v in by_degree]
    mstar = 0
    for i, d in enumerate(degs, 1):
        if d >= i - 1:
            mstar = i
    if sum(degs[:mstar]) != mstar * (mstar - 1) + sum(degs[mstar:]):
        return None
    return by_degree, mstar


def recognize_split(g: Graph) -> SplitPartition | None:
    """A SplitPartition with maximal clique side, or None.

    The m* highest-degree vertices form the clique side (ties broken by
    smaller id for determinism); if some independent vertex sees all of
    the clique, the smallest such vertex is promoted, keeping the clique
    side maximal.
    """
    split = _degree_split(g)
    if split is None:
        return None
    by_degree, mstar = split
    clique = set(by_degree[:mstar])
    indep = set(by_degree[mstar:])
    while True:
        promotable = [w for w in indep if clique <= g.adj[w]]
        if not promotable:
            break
        w = min(promotable)
        indep.remove(w)
        clique.add(w)
    part = SplitPartition(frozenset(clique), frozenset(indep))
    if not validate_split_partition(g, part):
        raise AssertionError("degree-characterized split partition failed validation")
    return part


# ---------------------------------------------------------------------------
# Interval graphs: linear orders of maximal cliques


@dataclass(frozen=True)
class CliqueOrder:
    """All maximal cliques, each once, every vertex's cliques consecutive."""

    cliques: tuple[frozenset, ...]

    def __len__(self) -> int:
        return len(self.cliques)

    def reversed(self) -> "CliqueOrder":
        return CliqueOrder(tuple(reversed(self.cliques)))


def validate_clique_order(g: Graph, order: CliqueOrder) -> bool:
    try:
        expected = set(maximal_cliques_chordal(g))
    except ValueError:
        return False
    cliques = order.cliques
    if len(cliques) != len(expected) or set(cliques) != expected:
        return False
    return _consecutive_ok(g.n, cliques)


def _consecutive_ok(n: int, cliques: Sequence[frozenset]) -> bool:
    first = [-1] * n
    last = [-1] * n
    count = [0] * n
    for i, c in enumerate(cliques):
        for v in c:
            if first[v] < 0:
                first[v] = i
            last[v] = i
            count[v] += 1
    return all(count[v] == 0 or last[v] - first[v] + 1 == count[v] for v in range(n))


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


def recognize_interval(g: Graph) -> CliqueOrder | None:
    """A valid CliqueOrder, or None when g is not interval.

    Non-chordal input short-circuits to refusal; otherwise a desk-scale
    backtracking search over clique arrangements finds a consecutive
    order whenever one exists.
    """
    if not is_connected(g):
        raise ValueError("interval recognition needs a connected graph")
    for order in enumerate_clique_orders(g):
        return order
    return None


# ---------------------------------------------------------------------------
# Unit interval graphs


def check_unit_interval_order(g: Graph, order: Sequence[int]) -> bool:
    """True iff every closed neighborhood occupies a contiguous block of
    `order` (equivalent to the three-point condition).  Linear."""
    n = g.n
    pos = _position_map(order, n)
    for v in range(n):
        lo = hi = pos[v]
        for w in g.adj[v]:
            p = pos[w]
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
        if hi - lo != len(g.adj[v]):
            return False
    return True


def _unit_interval_backtrack(g: Graph, forced_last: int | None) -> list[int] | None:
    """Left-to-right placement; placing w requires the block from w's
    earliest placed neighbor through w to be a clique."""
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


def recognize_unit_interval(g: Graph) -> list[int] | None:
    """A unit interval order (contiguous closed neighborhoods), or None.

    Desk-scale backtracking; the emitted order re-validates with
    `check_unit_interval_order`.
    """
    if not is_connected(g):
        raise ValueError("unit interval recognition needs a connected graph")
    order = _unit_interval_backtrack(g, None)
    if order is not None and not check_unit_interval_order(g, order):
        raise AssertionError("backtracking produced an invalid unit interval order")
    return order


def unit_interval_order_ending_at(g: Graph, t: int) -> list[int] | None:
    """A unit interval order whose last vertex is t, or None."""
    if not 0 <= t < g.n:
        raise ValueError(f"vertex {t} out of range")
    order = _unit_interval_backtrack(g, t)
    if order is not None and not check_unit_interval_order(g, order):
        raise AssertionError("backtracking produced an invalid unit interval order")
    return order


# ---------------------------------------------------------------------------
# (claw, net)-free and weakly chordal, desk scale


def is_claw_net_free(g: Graph) -> bool:
    """No induced K_{1,3} and no induced net (triangle with three pendants).

    Not linear: the claw test looks at every triple of neighbours of
    each vertex, and the net test lists the triangles a < b < c edge by
    edge, with c in N(a) & N(b) (Chiba and Nishizeki 1985), then looks
    for three independent pendants on each."""
    n = g.n
    adj = g.adj
    for center in range(n):
        nbrs = sorted(adj[center])
        for a, b, c in combinations(nbrs, 3):
            if b not in adj[a] and c not in adj[a] and c not in adj[b]:
                return False
    for a, b, c in _triangles(g):
        tri = {a, b, c}
        pend_a = [x for x in adj[a] if x not in tri and x not in adj[b] and x not in adj[c]]
        if not pend_a:
            continue
        pend_b = [y for y in adj[b] if y not in tri and y not in adj[a] and y not in adj[c]]
        if not pend_b:
            continue
        pend_c = [z for z in adj[c] if z not in tri and z not in adj[a] and z not in adj[b]]
        for x in pend_a:
            for y in pend_b:
                if y == x or y in adj[x]:
                    continue
                for z in pend_c:
                    if z not in (x, y) and z not in adj[x] and z not in adj[y]:
                        return False
    return True


def _triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    adj = g.adj
    for a in range(g.n):
        for b in adj[a]:
            if b > a:
                for c in adj[a] & adj[b]:
                    if c > b:
                        yield a, b, c


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
