"""Shared test fixtures: the small named example graphs used across the suite,
seeded random instance generators, and independent brute-force oracles.

The brute-force functions are deliberately naive (subset enumeration,
pairwise checks, permutation scans) so they share no code path with the
implementations they certify.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from endvertex import Graph

# ---------------------------------------------------------------------------
# Named fixture graphs


def bfs_trap():
    """Six vertices; t sits in the last BFS layer from s yet can never be
    a BFS end-vertex.  Names: t,2,3,4,5,s -> ids 0..5."""
    g = Graph.from_edges(6, [(0, 3), (3, 5), (5, 4), (4, 0), (1, 3), (2, 4)])
    return g, {"t": 0, "2": 1, "3": 2, "4": 3, "5": 4, "s": 5}


def split_example():
    """K4 on {1,2,3,4} plus v adjacent to 3,4 and pendants 6-1, 7-2.
    v is an MNS but not an MCS end-vertex.  Names 1,2,3,4,v,6,7 -> 0..6."""
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (4, 2), (4, 3), (5, 0), (6, 1)])
    return g, {"1": 0, "2": 1, "3": 2, "4": 3, "v": 4, "6": 5, "7": 6}


def unit_interval_example():
    """The 5-vertex unit interval graph where MNS, MCS and LDFS orders
    differ.  Names a..e -> 0..4; edges ab,bc,ca,bd,cd,de."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 3), (3, 4)])
    return g, {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}


def interval_pair_left():
    """Path 1..7 with t pendant on 4: interval, not unit interval; t is
    an MCS end-vertex although G - N[t] is disconnected."""
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 7), (3, 4), (4, 5), (5, 6)])
    names = {str(i + 1): i for i in range(7)}
    names["t"] = 7
    return g, names


def interval_pair_right():
    """Variant where t is an MNS but not an MCS end-vertex."""
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 7), (7, 4), (4, 5),
                             (5, 6), (3, 4), (3, 5)])
    names = {str(i + 1): i for i in range(7)}
    names["t"] = 7
    return g, names


def mcs_jump_example():
    """Eleven vertices a..i, hub u, target t: interval graph where t ends
    the MCS (a,b,u,h,i,c,d,e,f,g,t) yet the interval sufficient condition
    fails for every linear clique order."""
    a, b, c, d, e, f, g_, h, i, u, t = range(11)
    edges = [(a, b), (b, u), (u, c), (c, d), (d, u), (d, e), (e, t), (t, u),
             (e, u), (e, f), (f, u), (f, g_), (g_, u), (u, h), (h, i)]
    g = Graph.from_edges(11, edges)
    names = dict(zip("abcdefghi", range(9)))
    names["u"] = u
    names["t"] = t
    return g, names


def claw():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def net():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider(legs) -> Graph:
    """Paths of the given lengths glued at vertex 0.  Three legs of
    length >= 2 make an asteroidal triple, so the tree is not interval."""
    edges = []
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, len(edges) + 1))
            prev = len(edges)
    return Graph.from_edges(len(edges) + 1, edges)


def window(n: int, w: int = 3) -> Graph:
    """Unit interval (hence chordal) graph: i adjacent to i+1..i+w."""
    return Graph.from_edges(
        n, ((i, j) for i in range(n) for j in range(i + 1, min(i + w + 1, n))))


# ---------------------------------------------------------------------------
# Random instance generators (all connected unless noted)


def rand_connected_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    if n <= 0:
        return Graph.from_edges(max(n, 0), [])
    if p is None:
        p = rng.uniform(0.15, 0.85)
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    # Stitch components together with a random spanning thread.
    order = list(range(n))
    rng.shuffle(order)
    reach = {order[0]}
    for v in order[1:]:
        if all((min(v, w), max(v, w)) not in edges for w in reach):
            w = rng.choice(sorted(reach))
            edges.add((min(v, w), max(v, w)))
        reach.add(v)
    g = Graph.from_edges(n, edges)
    return g if _connected(g) else rand_connected_graph(rng, n, p)


def rand_sparse_connected(rng: random.Random, n: int, avg_degree: int) -> Graph:
    """A random recursive tree (so connected) topped up with uniform
    random edges until the average degree is reached.  An MNS search's
    frontier grows to a constant share of the vertices here."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n * avg_degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def _connected(g: Graph) -> bool:
    from endvertex import is_connected
    return is_connected(g)


def rand_chordal(rng: random.Random, n: int, q: float = 0.5) -> Graph:
    """Connected chordal graph by construction: vertex i picks a later
    anchor j and a sub-clique of j's later neighborhood, so every later
    neighborhood is a clique (0,1,...,n-1 is a PEO)."""
    later: list[set[int]] = [set() for _ in range(n)]
    for i in range(n - 2, -1, -1):
        j = rng.randrange(i + 1, n)
        chosen = {j} | {x for x in later[j] if rng.random() < q}
        later[i] = chosen
    edges = [(i, x) for i in range(n) for x in later[i]]
    return Graph.from_edges(n, edges)


def rand_split(rng: random.Random, n: int) -> Graph:
    c = rng.randint(1, n)
    members = list(range(n))
    rng.shuffle(members)
    cliq = members[:c]
    indep = members[c:]
    edges = [(min(u, v), max(u, v)) for u, v in combinations(cliq, 2)]
    for w in indep:
        hook = rng.sample(cliq, rng.randint(1, len(cliq)))
        edges.extend((min(w, x), max(w, x)) for x in hook)
    return Graph.from_edges(n, edges)


def rand_interval(rng: random.Random, n: int) -> Graph:
    while True:
        iv = []
        for _ in range(n):
            a, b = rng.random(), rng.random()
            iv.append((min(a, b), max(a, b) + 0.05))
        edges = [(i, j) for i, j in combinations(range(n), 2)
                 if iv[i][0] <= iv[j][1] and iv[j][0] <= iv[i][1]]
        g = Graph.from_edges(n, edges)
        if _connected(g):
            return g


def rand_sparse_interval(rng: random.Random, n: int, reach: int = 4) -> Graph:
    """Connected interval graph with O(n) edges: vertex i is the interval
    [i, i + L] with L drawn from 1..reach, so it meets i + 1; labels are
    shuffled.  Nested intervals and claws make most draws not unit
    interval."""
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, ((label[i], label[j]) for i in range(n)
                                for j in range(i + 1, min(i + rng.randint(1, reach), n - 1) + 1)))


def rand_unit_interval(rng: random.Random, n: int) -> Graph:
    centers = [0.0]
    for _ in range(n - 1):
        step = 0.0 if rng.random() < 0.15 else rng.uniform(0.05, 0.95)
        centers.append(centers[-1] + step)
    edges = [(i, j) for i, j in combinations(range(n), 2)
             if abs(centers[i] - centers[j]) <= 1.0]
    return Graph.from_edges(n, edges)


def rand_claw_net_free(rng: random.Random, n: int) -> Graph:
    from endvertex import is_claw_net_free
    family = rng.randrange(4)
    if family == 0 and n >= 3:
        return cycle(n)
    if family == 1:
        return clique(n)
    if family == 2:
        for _ in range(20):
            g = rand_connected_graph(rng, n, p=rng.uniform(0.55, 0.95))
            if is_claw_net_free(g):
                return g
    return rand_unit_interval(rng, n)


def rand_cnf(rng: random.Random, k: int, l: int):
    from endvertex import CnfFormula
    clauses = []
    for _ in range(l):
        vars_ = rng.sample(range(1, k + 1), 3)
        clauses.append(tuple((v, rng.random() < 0.5) for v in vars_))
    return CnfFormula(k, tuple(clauses))


# ---------------------------------------------------------------------------
# Brute-force oracles


def brute_is_simplicial(g: Graph, v: int) -> bool:
    return all(g.has_edge(a, b) for a, b in combinations(sorted(g.adj[v]), 2))


def brute_components_without(g: Graph, removed: frozenset) -> list[set]:
    left = [v for v in range(g.n) if v not in removed]
    seen: set[int] = set()
    comps = []
    for s in left:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def brute_minimal_separators(g: Graph) -> set[frozenset]:
    """All minimal (a,b)-separators over the full vertex-subset lattice.
    Separation is monotone upward, so C is minimal iff no one-element
    deletion still separates."""
    n = g.n
    verts = list(range(n))

    def separates(c: frozenset, a: int, b: int) -> bool:
        comps = brute_components_without(g, c)
        return not any(a in comp and b in comp for comp in comps)

    found: set[frozenset] = set()
    for a, b in combinations(verts, 2):
        if g.has_edge(a, b):
            continue
        rest = [v for v in verts if v not in (a, b)]
        for r in range(len(rest) + 1):
            for sub in combinations(rest, r):
                c = frozenset(sub)
                if not separates(c, a, b):
                    continue
                if all(not separates(c - {x}, a, b) for x in c):
                    found.add(c)
    return found


def brute_inclusion_chain(sets) -> bool:
    return all(set(a) <= set(b) or set(b) <= set(a) for a, b in combinations(sets, 2))


def brute_is_split(g: Graph) -> bool:
    n = g.n
    verts = list(range(n))
    for r in range(n + 1):
        for cl in combinations(verts, r):
            cset = set(cl)
            if not all(g.has_edge(a, b) for a, b in combinations(cl, 2)):
                continue
            rest = [v for v in verts if v not in cset]
            if all(not g.has_edge(a, b) for a, b in combinations(rest, 2)):
                return True
    return False


def brute_is_chordal(g: Graph) -> bool:
    """No induced cycle on >= 4 vertices, by subset enumeration."""
    n = g.n
    for r in range(4, n + 1):
        for sub in combinations(range(n), r):
            degs = [sum(1 for b in sub if b != a and g.has_edge(a, b)) for a in sub]
            if any(d != 2 for d in degs):
                continue
            edge_count = sum(degs) // 2
            if edge_count != r:
                continue
            comps = brute_components_without(g, frozenset(set(range(n)) - set(sub)))
            if len(comps) == 1:
                return False
    return True


def brute_unit_interval_order_ok(g: Graph, order) -> bool:
    """Direct three-point scan: u < v < w with uw an edge forces uv, vw."""
    pos = {v: i for i, v in enumerate(order)}
    for u, w in combinations(range(g.n), 2):
        if not g.has_edge(u, w):
            continue
        lo, hi = sorted((pos[u], pos[w]))
        a = order[lo]
        b = order[hi]
        for mid in range(lo + 1, hi):
            v = order[mid]
            if not (g.has_edge(a, v) and g.has_edge(v, b)):
                return False
    return True


def brute_hamiltonian_path(g: Graph):
    for perm in permutations(range(g.n)):
        if all(g.has_edge(perm[i], perm[i + 1]) for i in range(g.n - 1)):
            return list(perm)
    return None if g.n > 0 else []


def brute_has_hole(g: Graph, min_len: int) -> bool:
    """Induced cycle with >= min_len vertices, by subset enumeration."""
    n = g.n
    for r in range(min_len, n + 1):
        for sub in combinations(range(n), r):
            degs = [sum(1 for b in sub if b != a and g.has_edge(a, b)) for a in sub]
            if any(d != 2 for d in degs):
                continue
            comps = brute_components_without(g, frozenset(set(range(n)) - set(sub)))
            if len(comps) == 1:
                return True
    return False


def brute_is_claw_net_free(g: Graph) -> bool:
    """Induced-subgraph scan: any 4-subset isomorphic to the claw, any
    6-subset isomorphic to the net."""
    n = g.n
    for sub in combinations(range(n), 4):
        degs = sorted(sum(1 for b in sub if b != a and g.has_edge(a, b)) for a in sub)
        if degs == [1, 1, 1, 3]:
            return False
    for sub in combinations(range(n), 6):
        degs = sorted(sum(1 for b in sub if b != a and g.has_edge(a, b)) for a in sub)
        if degs != [1, 1, 1, 3, 3, 3]:
            continue
        inner = [a for a in sub if sum(1 for b in sub if b != a and g.has_edge(a, b)) == 3]
        if all(g.has_edge(x, y) for x, y in combinations(inner, 2)):
            return False
    return True
