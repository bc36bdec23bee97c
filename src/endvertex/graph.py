"""Simple undirected graphs with adjacency-set representation.

Vertices are dense 0-based integers.  Graphs are immutable after
construction and every operation here is a pure function, so shared
read-only graphs are safe to use from concurrent callers.
"""

from __future__ import annotations

from collections import deque
from itertools import pairwise
from typing import AbstractSet, Collection, Iterable, Iterator, Sequence

from .errors import DisconnectedGraphError

Vertex = int
VertexSet = frozenset


class Graph:
    """Finite, undirected, simple graph on vertices 0..n-1.

    Invariants enforced at construction: adjacency is symmetric, there
    are no self-loops, and every neighbor id is < n.  Connectivity is a
    checkable predicate (`is_connected`), not an invariant: search entry
    points demand it, construction does not.
    """

    __slots__ = ("adj",)

    def __init__(self, adjacency: Sequence[Iterable[int]]):
        adj = tuple(frozenset(nbrs) for nbrs in adjacency)
        n = len(adj)
        for v, nbrs in enumerate(adj):
            for w in nbrs:
                if not isinstance(w, int) or not 0 <= w < n:
                    raise ValueError(f"neighbor {w!r} of vertex {v} out of range 0..{n - 1}")
                if w == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if v not in adj[w]:
                    raise ValueError(f"asymmetric adjacency: {v} -> {w} without {w} -> {v}")
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on n vertices from an edge list (duplicates collapse)."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        ids = list(range(n))
        adj: list[list[int]] = [[] for _ in ids]
        u = v = 0
        try:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                adj[u].append(ids[v])
                adj[v].append(ids[u])
        except TypeError:
            if hasattr(u, "__index__") and hasattr(v, "__index__"):
                raise  # not an endpoint's fault: an edge that is no pair
            raise ValueError(f"edge ({u!r},{v!r}) out of range 0..{n - 1}") from None
        return from_lists(adj)

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def neighbors(self, v: int) -> frozenset:
        return self.adj[v]

    def closed_neighborhood(self, v: int) -> frozenset:
        return self.adj[v] | {v}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def from_lists(adj: list) -> Graph:
    """The graph whose vertex v has the neighbours in the list adj[v],
    built from checked edges with one shared int object per vertex id (so
    the graph holds n of them).  Each list is dropped once its set exists."""
    for v, nbrs in enumerate(adj):
        # A frozenset copied from a set is presized, one from a list is not.
        adj[v] = frozenset(set(nbrs))
    g = Graph.__new__(Graph)
    g.adj = tuple(adj)
    return g


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")


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


def is_simplicial(g: Graph, t: int) -> bool:
    """True iff the neighborhood of t induces a clique.

    For each neighbor v, count the members of N(t) that v sees: t is
    simplicial iff every count equals deg(t)-1 (open-neighborhood
    convention: t itself is never counted).  The set intersection walks
    the smaller of N(v) and N(t), so this runs in time linear in the sum
    of degrees over N(t), without a Python-level pass over a large N(v).
    """
    _check_vertex(g, t)
    adj = g.adj
    marked = adj[t]
    want = len(marked) - 1
    for v in marked:
        if len(adj[v] & marked) != want:
            return False
    return True


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component (n<=1: True)."""
    n = g.n
    if n <= 1:
        return True
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    adj = g.adj
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                queue.append(w)
    return count == n


def cut_vertices(g: Graph) -> frozenset:
    """Articulation vertices of a connected graph, in linear time.

    Iterative lowpoint computation (recursion-free so large instances do
    not hit the interpreter stack limit).  The same DFS checks
    connectivity: it raises DisconnectedGraphError when it reaches fewer
    than n vertices.
    """
    n = g.n
    if n <= 1:
        return frozenset()
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cuts = set()
    timer = 0
    adj = g.adj
    # One DFS from vertex 0 reaches every vertex of a connected graph.
    root = 0
    stack: list[tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
    disc[root] = low[root] = timer
    timer += 1
    root_children = 0
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] < 0:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                if v == root:
                    root_children += 1
                stack.append((w, iter(adj[w])))
                advanced = True
                break
            elif w != parent[v]:
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if not advanced:
            stack.pop()
            p = parent[v]
            if p >= 0:
                if low[v] < low[p]:
                    low[p] = low[v]
                if p != root and low[v] >= disc[p]:
                    cuts.add(p)
    if timer < n:
        raise DisconnectedGraphError("cut_vertices requires a connected graph")
    if root_children > 1:
        cuts.add(root)
    return frozenset(cuts)


def induced_subgraph(g: Graph, vertices: Collection[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `vertices`, relabeled 0..|S|-1.

    Returns (subgraph, remap) where remap[new_id] is the original id;
    new ids follow ascending original-id order.
    """
    keep = sorted(set(vertices))
    for v in keep:
        _check_vertex(g, v)
    index = {old: new for new, old in enumerate(keep)}
    adj = [frozenset(index[w] for w in g.adj[old] if w in index) for old in keep]
    sub = Graph.__new__(Graph)
    sub.adj = tuple(adj)
    return sub, tuple(keep)


def complement(g: Graph) -> Graph:
    """Edge-complement: xy is an edge iff it is not an edge of g (no loops)."""
    n = g.n
    full = frozenset(range(n))
    adj = [full - g.adj[v] - {v} for v in range(n)]
    comp = Graph.__new__(Graph)
    comp.adj = tuple(adj)
    return comp


def is_inclusion_chain(sets: Sequence[Collection[int]]) -> bool:
    """True iff the given sets are totally ordered by inclusion.

    Each collection stands for the set of its members, so a repeated
    member counts once.  Time linear in the total size of the family.
    """
    return _chain_break([frozenset(s) for s in sets]) is None


def _chain_break(sets: Sequence[AbstractSet[int]]) -> tuple[int, int] | None:
    """`is_inclusion_chain`'s walk over sets: None when they form a chain,
    otherwise the indices (i, j) of the first consecutive pair of the walk
    that breaks it.  The walk takes the sets by falling size, equal sizes
    in input order (a counting sort), so sets[j] is no larger than sets[i]
    and not inside it: the two are inclusion-incomparable.  Each test
    `sets[j] <= sets[i]` reads only sets[j], so the time is O(total size
    of the family)."""
    buckets: list[list[int]] = [[] for _ in range(max(map(len, sets), default=0) + 1)]
    for i, s in enumerate(sets):
        buckets[len(s)].append(i)
    walk = [i for bucket in reversed(buckets) for i in bucket]
    for i, j in pairwise(walk):
        if not sets[j] <= sets[i]:
            return i, j
    return None
