"""Graph-class recognition with verifiable certificates.

Each recognizer is specified by the certificate it emits, never by its
internal method: a SplitPartition re-validates against its invariants, a
clique order against consecutiveness, a unit interval order against the
three-point condition, a PEO against the elimination test.  Interval and
unit-interval recognition run LBFS sweeps on `run_search`'s engine
(near-linear, no backtracking) and check their certificate before
returning it; only the certificate is contractual, so two versions may
emit different valid ones.  The (claw, net)-free test is not linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import chordal
from .chordal import McsPass, _clique_walk, maximal_cliques_chordal
from .errors import DisconnectedGraphError
from .graph import Graph, _check_vertex, _position_map
from .search import SearchKind, _refine_picks


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
    """Whether g is split: `recognize_split(g) is not None`."""
    return recognize_split(g) is not None


def recognize_split(g: Graph) -> SplitPartition | None:
    """A SplitPartition with maximal clique side, or None.

    With degrees d_1 >= ... >= d_n and m* = max{i : d_i >= i-1}, the
    graph is split iff sum_{i<=m*} d_i = m*(m*-1) + sum_{i>m*} d_i
    (linear apart from one sort).  The m* highest-degree vertices form the
    clique side (ties broken by smaller id for determinism); if some
    independent vertex sees all of the clique, the smallest such vertex
    is promoted, keeping the clique side maximal.
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
    clique = set(by_degree[:mstar])
    indep = set(by_degree[mstar:])
    while True:
        promotable = [w for w in indep if clique <= adj[w]]
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
# LBFS sweeps


def _lbfs(g: Graph, by_rank: Sequence[int]) -> list[int]:
    """An LBFS order of g that breaks every tie towards the vertex ranked
    first in `by_rank`, so by_rank = reversed(sigma) gives LBFS+(sigma).
    It finishes one component before it starts the next."""
    rank = _position_map(by_rank, g.n)
    return list(_refine_picks(g.adj, rank, by_rank, by_rank[0], SearchKind.LBFS)) if by_rank else []


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


def recognize_interval(g: Graph) -> CliqueOrder | None:
    """A valid CliqueOrder, or None when g is not interval.

    One MCS pass refuses non-chordal input and gives the clique tree
    (`_interval_from_pass`); `_clique_path` arranges the maximal cliques
    along an LBFS order and the arrangement is returned only if it passes
    the consecutiveness check.  Refusal rests on the lemma that the last
    vertex of an LBFS of an interval graph lies in an end clique of some
    clique path (Corneil, Olariu and Stewart; it drives the clique
    ordering of Habib, McConnell, Paul and Viennot 2000).
    Near-linear: O(n + m log Δ) for the sweep; the refinement handles
    each vertex once as a pivot and moves a clique at most once per
    vertex it holds, scanning its clique-tree edges each time.
    Connectivity costs no pass of its own: the MCS pass raises on
    disconnected input.
    """
    try:
        mcs = chordal._mcs_pass(g)
    except DisconnectedGraphError:
        raise ValueError("interval recognition needs a connected graph") from None
    return _interval_from_pass(g, mcs) if mcs.chordal else None


def _interval_from_pass(g: Graph, mcs: McsPass) -> CliqueOrder | None:
    """`recognize_interval` on the MCS pass of a chordal g, its certificate."""
    cliques, tree = _clique_walk(g, mcs)
    order = _clique_path(g.n, cliques, tree, _lbfs(g, range(g.n)))
    if order is None or not _consecutive_ok(g.n, order):
        return None
    return CliqueOrder(tuple(order))


def _clique_path(n: int, cliques: list[frozenset], tree: list[tuple[int, int, frozenset]],
                 sigma: list[int]) -> list[frozenset] | None:
    """An arrangement of the maximal cliques of a chordal graph that is a
    clique path whenever the graph is interval; None when the refinement
    finds that no clique path exists.

    The cliques sit in an ordered partition, refined until every class is
    one clique.  A vertex whose cliques lie in two classes is a pivot: its
    cliques must be consecutive, so the classes they hit must be too, and
    a class they hit only partly gives that part to the side facing the
    others.  With no pivot left, each class X is independent of the rest:
    a vertex in cliques of X and outside it is in every clique of X, the
    others (private to X) form a module, and the LBFS order restricted to
    a module is an LBFS of it.  So the clique of the private vertex of X
    latest in `sigma` is an end of some arrangement of X and is split off
    at its right.  A vertex becomes a pivot when a clique-tree edge whose
    separator holds it first joins two classes."""
    k = len(cliques)
    holding: list[list[int]] = [[] for _ in range(n)]  # vertex -> its cliques
    for i, c in enumerate(cliques):
        for v in c:
            holding[v].append(i)
    nbrs: list[list[tuple[int, frozenset]]] = [[] for _ in range(k)]
    for a, b, sep in tree:
        nbrs[a].append((b, sep))
        nbrs[b].append((a, sep))
    # Classes 1, 2, ... hold the cliques, in the order of a ring through 0.
    members: list[set[int]] = [set(), set(range(k))]
    cls = [1] * k
    prv, nxt = [1, 0], [1, 0]
    shared = bytearray(n)
    pivots: list[int] = []

    def split(c: int, part: list[int], right: bool) -> None:
        d = len(members)
        members.append(set(part))
        members[c].difference_update(part)
        a = c if right else prv[c]
        b = nxt[a]
        nxt[a] = d
        prv.append(a)
        nxt.append(b)
        prv[b] = d
        for q in part:
            cls[q] = d
        for q in part:
            for b, sep in nbrs[q]:
                if cls[b] == c:
                    for u in sep:
                        if not shared[u]:
                            shared[u] = 1
                            pivots.append(u)

    cursor = n  # walks sigma backwards, past vertices that can never qualify again
    while True:
        if pivots:
            hit: dict[int, list[int]] = {}
            for q in holding[pivots.pop()]:
                hit.setdefault(cls[q], []).append(q)
            if sum(nxt[c] in hit for c in hit) != len(hit) - 1:
                return None  # the classes hit are not consecutive
            cuts = []
            for c, part in hit.items():
                if len(part) < len(members[c]):
                    right = nxt[c] in hit
                    if right == (prv[c] in hit):
                        return None  # a class inside the run is hit only partly
                    cuts.append((c, part, right))
            for cut in cuts:
                split(*cut)
            continue
        while cursor:
            cursor -= 1
            z = sigma[cursor]
            if not shared[z] and len(members[cls[holding[z][0]]]) > 1:
                break
        else:
            break
        q = holding[z][0]
        split(cls[q], [q], True)
    out = []
    c = nxt[0]
    while c:
        out.extend(cliques[q] for q in members[c])
        c = nxt[c]
    return out


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


def recognize_unit_interval(g: Graph) -> list[int] | None:
    """A unit interval order (contiguous closed neighborhoods), or None.

    Corneil's 3-sweep (DAM 138, 2004): an LBFS, then LBFS+ of it, then
    LBFS+ of that; g is unit interval iff the third order is a unit
    interval order.  The first order that passes the linear check is
    returned, so O(n + m log Δ) for maximum degree Δ.  Each component is
    swept as a whole, so this holds per component on disconnected input."""
    order = _lbfs(g, range(g.n))
    for _ in range(2):
        if check_unit_interval_order(g, order):
            return order
        order = _lbfs(g, order[::-1])
    return order if check_unit_interval_order(g, order) else None


def unit_interval_order_ending_at(g: Graph, t: int) -> list[int] | None:
    """A unit interval order whose last vertex is t, or None.

    The components may come in any order, so t's component goes last.  In
    a unit interval order, a component is a run of consecutive adjacent
    vertices and closed-neighbourhood twins are consecutive; a connected
    unit interval graph has one order of its twin blocks up to reversal
    (Roberts 1971).  So t ends some order iff its block ends its run in
    the recognized one.  Linear apart from the sweeps."""
    _check_vertex(g, t)
    order = recognize_unit_interval(g)
    if order is None:
        return None
    adj = g.adj
    lo = hi = order.index(t)
    while lo and order[lo - 1] in adj[order[lo]]:
        lo -= 1
    while hi + 1 < g.n and order[hi + 1] in adj[order[hi]]:
        hi += 1
    run = order[lo:hi + 1]
    closed = adj[t] | {t}
    if closed != adj[run[-1]] | {run[-1]}:
        if closed != adj[run[0]] | {run[0]}:
            return None
        run.reverse()
    run.remove(t)
    run.append(t)
    out = order[:lo] + order[hi + 1:] + run
    if not check_unit_interval_order(g, out):
        raise AssertionError("moving t to the end of its twin block broke the unit interval order")
    return out


# ---------------------------------------------------------------------------
# (claw, net)-free graphs


def is_claw_net_free(g: Graph) -> bool:
    """No induced K_{1,3} and no induced net (triangle with three pendants).

    Not linear.  Claw: for each vertex v and neighbour a, R = N(v) - N[a]
    is taken as one set difference, and v centres a claw with leaf a iff
    two vertices of R are non-adjacent; a clique costs no pair work.  Net:
    every corner of a net's triangle has a pendant the other two miss, so
    no edge of it has one closed neighbourhood inside the other.  The
    triangles a < b < c are listed per edge ab with c in N(a) & N(b)
    (Chiba and Nishizeki 1985), skipping such nested edges, and a corner
    with no pendant (which a nested edge ac or bc leaves) ends the search
    of a triangle.  N(a) - N(b) and N(b) - N(a) are taken once per edge."""
    adj = g.adj
    for nv in adj:
        if len(nv) < 3:
            continue
        for a in nv:
            rest = nv - adj[a]  # a and R
            if len(rest) > 2 and any(len(rest - adj[b]) > 2 for b in rest if b != a):
                return False
    for a, na in enumerate(adj):
        for b in na:
            if b < a:
                continue
            nb = adj[b]
            if len(only_a := na - nb) == 1 or len(only_b := nb - na) == 1:  # N[a], N[b] nested
                continue
            for c in na & nb:
                if c < b:
                    continue
                nc = adj[c]
                pend_a = only_a - nc  # b is in N(c)
                pend_b = only_b - nc
                if not (pend_a and pend_b):
                    continue
                pend_c = nc - na - nb
                for x in pend_a:
                    zs = pend_c - adj[x]
                    if zs and any(zs - adj[y] for y in pend_b - adj[x]):
                        return False
    return True
