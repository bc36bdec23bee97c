"""Chordal-graph machinery: MCS orders, perfect elimination orderings,
maximal cliques and clique trees.

Everything on the main path here is O(n + m): maximum cardinality search
on buckets, running the first-later-neighbor elimination test as it goes,
and the clique tree grown along its visit order.  They back the linear-time
end-vertex deciders, so no step may fall back to anything superlinear.
"""

from __future__ import annotations

from collections import deque

from .errors import DisconnectedGraphError, NotChordalError
from .graph import Graph


def mcs_order(g: Graph, start: int = 0) -> list[int]:
    """A maximum cardinality search order in O(n + m).

    Buckets of unvisited vertices keyed by visited-neighbor count, with
    lazy deletion; ties broken by most recent bucket insertion, which is
    a valid (if arbitrary) MCS tie-break.  Requires a connected graph:
    on disconnected input the buckets run dry before every vertex is
    visited, which raises DisconnectedGraphError without a separate
    connectivity pass.  It stays apart from `run_search`'s MCS heaps
    because at n = 1e5 it is faster, elimination test included (0.11-0.21 s
    against 0.21-0.28 s on a window graph, on a 2-vCPU Xeon), and
    class-hinted chordal queries run it once each.
    """
    return _mcs_pass(g, start)[0]


def _mcs_pass(g: Graph, start: int = 0) -> tuple[list[int], bool]:
    """`mcs_order`'s search, and whether its reverse is a perfect elimination
    ordering (Tarjan and Yannakakis, SIAM J. Comput. 1984): at each visit,
    v's visited neighbour visited last (its first later one in the reverse,
    as in `peo_violation`) must see the others."""
    n = g.n
    if n == 0:
        return [], True
    if not 0 <= start < n:
        raise ValueError(f"start vertex {start} out of range")
    adj = g.adj
    count = [0] * n
    visited = bytearray(n)
    latest = [start] * n  # the last visited vertex to bump a vertex's count
    # A vertex's count never exceeds its degree, so the bucket table only
    # needs max-degree-plus-one slots, not n.
    max_degree = max((len(nbrs) for nbrs in adj), default=0)
    buckets: list[list[int]] = [[] for _ in range(max_degree + 2)]
    order = [start]
    visited[start] = 1
    for w in adj[start]:
        count[w] = 1
        buckets[1].append(w)
    maxc, peo = 1, True
    for _ in range(n - 1):
        v = -1
        while v < 0:
            while maxc > 1 and not buckets[maxc]:
                maxc -= 1
            bucket = buckets[maxc]
            if not bucket:
                # Every labeled vertex is visited: the rest is unreachable.
                raise DisconnectedGraphError("MCS requires a connected graph")
            cand = bucket.pop()
            if not visited[cand] and count[cand] == maxc:
                v = cand
        visited[v] = 1
        order.append(v)
        earlier = []
        for w in adj[v]:
            if visited[w]:
                earlier.append(w)
            else:
                c = count[w] + 1
                count[w] = c
                latest[w] = v
                buckets[c].append(w)
                if c > maxc:
                    maxc = c
        if peo and len(earlier) > 1:
            peo = len(adj[latest[v]].intersection(earlier)) == len(earlier) - 1
    return order, peo


def _position_map(order, n: int) -> list[int]:
    """Inverse of a permutation, validating it is one (linear)."""
    if len(order) != n:
        raise ValueError("order is not a permutation of the vertex set")
    pos = [-1] * n
    for i, v in enumerate(order):
        if not 0 <= v < n or pos[v] >= 0:
            raise ValueError("order is not a permutation of the vertex set")
        pos[v] = i
    return pos


def peo_violation(g: Graph, order) -> tuple[int, int, int] | None:
    """None if `order` is a PEO; otherwise a witness triple (v, u, x).

    The witness satisfies: u and x come after v in the order, both are
    adjacent to v, u is v's earliest later neighbor, and ux is not an
    edge (so {v} + later neighbors is not a clique).
    """
    n = g.n
    adj = g.adj
    pos = _position_map(order, n)
    # One pass: u must absorb the rest of v's later neighborhood.  Only
    # failing vertices are kept, so a PEO allocates nothing per vertex.
    failing = []
    for v in order:
        pv = pos[v]
        later = [w for w in adj[v] if pos[w] > pv]
        if len(later) <= 1:
            continue
        u = min(later, key=pos.__getitem__)
        if len(adj[u].intersection(later)) != len(later) - 1:
            failing.append((u, v, later))
    if not failing:
        return None
    # The reported witness: smallest u, then earliest v in the order, then
    # the first missing x in v's adjacency.
    u, v, later = min(failing, key=lambda f: f[0])
    adj_u = adj[u]
    return v, u, next(x for x in later if x != u and x not in adj_u)


def clique_tree(g: Graph, peo=None) -> tuple[list[frozenset], list[tuple[int, int, frozenset]]]:
    """Maximal cliques and clique-tree edges of a connected chordal graph.

    Walks an MCS visit order: a new maximal clique starts whenever the
    visited-neighbor count fails to grow, and the new clique hangs off
    the clique of the most recently visited such neighbor (Blair and
    Peyton 1993).  Tree edges carry their separator (the visited
    neighborhood of the clique's first vertex).  O(n + m); raises
    NotChordalError on non-chordal input and DisconnectedGraphError on
    disconnected input.  A given `peo` must be a perfect elimination
    ordering whose reverse is an MCS order, as `recognize_chordal`'s is;
    the walk checks the second condition, since the clique rule holds
    only for MCS orders, and raises ValueError when it fails.  Without a
    `peo`, `recognize_chordal` runs here.
    """
    n = g.n
    if n == 0:
        return [], []
    if peo is None:
        peo = recognize_chordal(g)
        if peo is None:
            raise NotChordalError("graph is not chordal (no perfect elimination ordering)")
    order = peo[::-1]
    visit_index = _position_map(order, n)
    adj = g.adj
    count = [0] * n  # visited neighbors so far
    tally = [n] + [0] * n  # unvisited vertices per count
    top = 0  # the highest count an unvisited vertex has
    cliques: list[list[int]] = []
    clique_of = [0] * n
    edges: list[tuple[int, int, frozenset]] = []
    prev_card = 0
    for j, v in enumerate(order):
        if count[v] != top:
            raise ValueError(f"the reversed peo is no MCS order: vertex {v} has {count[v]} "
                             f"visited neighbors where another has {top}")
        tally[top] -= 1
        earlier = []
        for w in adj[v]:
            if visit_index[w] < j:
                earlier.append(w)
            else:
                c = count[w]
                count[w] = c + 1
                tally[c] -= 1
                tally[c + 1] += 1
                if c == top:
                    top = c + 1
        while top and not tally[top]:
            top -= 1
        card = len(earlier)
        if not j:
            cliques.append([v])
        elif card <= prev_card:
            if not earlier:  # nothing earlier to hang the clique on
                raise DisconnectedGraphError("clique tree requires a connected graph")
            attach = max(earlier, key=visit_index.__getitem__)
            edges.append((len(cliques), clique_of[attach], frozenset(earlier)))
            earlier.append(v)
            cliques.append(earlier)
        else:
            cliques[-1].append(v)
        clique_of[v] = len(cliques) - 1
        prev_card = card
    return [frozenset(c) for c in cliques], edges


def maximal_cliques_chordal(g: Graph) -> list[frozenset]:
    """Maximal cliques of a connected chordal graph (at most n of them)."""
    cliques, _ = clique_tree(g)
    return cliques


def recognize_chordal(g: Graph) -> list[int] | None:
    """A perfect elimination ordering, or None when g is not chordal.

    The candidate PEO is the reversed MCS order (chordal iff it passes
    the elimination test, which runs inside the one MCS pass, as each
    vertex is visited).  Use `chordal_hole` for a refusal certificate.
    Raises DisconnectedGraphError (from the search) on disconnected input.
    """
    order, peo = _mcs_pass(g)
    return order[::-1] if peo else None


def chordal_hole(g: Graph) -> list[int] | None:
    """A chordless cycle on >= 4 vertices certifying non-chordality.

    Routes the cycle through the elimination-test witness (v, u, x): a
    shortest u-x path avoiding the rest of N[v], closed by v.  For a
    maximum cardinality search order such a path always exists (Tarjan
    and Yannakakis 1984), so no search is needed; the cycle is checked
    before it is returned.  O(n + m).  Returns None on chordal input.
    """
    order, peo = _mcs_pass(g)
    if peo:
        return None
    v, u, x = peo_violation(g, order[::-1])
    blocked = (g.adj[v] | {v}) - {u, x}
    path = _shortest_path_avoiding(g, u, x, blocked)
    if path is None or not is_chordless_cycle(g, [v] + path):
        raise AssertionError("an MCS elimination violation closed no chordless cycle")
    return [v] + path


def is_chordless_cycle(g: Graph, cycle: list[int]) -> bool:
    """Check a claimed hole: >= 4 distinct vertices, consecutive pairs
    adjacent (cyclically), all other pairs non-adjacent.  With the
    consecutive pairs adjacent, that is every vertex having exactly two
    neighbours on the cycle, so the check is linear."""
    k = len(cycle)
    on = set(cycle)
    if k < 4 or len(on) != k:
        return False
    adj = g.adj
    return all(cycle[i - 1] in adj[v] and len(adj[v] & on) == 2 for i, v in enumerate(cycle))


def _shortest_path_avoiding(g: Graph, s: int, t: int, blocked) -> list[int] | None:
    prev = {s: -1}
    queue = deque([s])
    while queue:
        a = queue.popleft()
        if a == t:
            path = [t]
            while prev[path[-1]] != -1:
                path.append(prev[path[-1]])
            path.reverse()
            return path
        for b in g.adj[a]:
            if b not in prev and (b == t or b not in blocked):
                prev[b] = a
                queue.append(b)
    return None
