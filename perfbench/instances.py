"""Seeded instance families for the benchmark.

Every generator returns ``(n, edges)`` with 0-based endpoints and builds
nothing with the library, so set-up cost and instance shape do not
depend on the code under test.  Each family is connected and belongs to
its class by construction; the comments say why.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product

Edges = list[tuple[int, int]]


def window(n: int, w: int = 3) -> tuple[int, Edges]:
    """i ~ j iff |i - j| <= w: a unit interval (hence chordal,
    interval, claw-net-free) graph with no cut vertex for w >= 2."""
    return n, [(i, j) for i in range(n) for j in range(i + 1, min(i + w + 1, n))]


def random_chordal(rng: random.Random, n: int, q: float = 0.5,
                   pendant: bool = False) -> tuple[int, Edges, int]:
    """Vertex i picks a later anchor j and a random part of j's later
    neighbourhood, so every later neighbourhood is a clique and
    0, 1, ..., n-1 is a perfect elimination ordering.  With
    ``pendant`` vertex 0 keeps only its anchor, so it has degree 1.
    Labels are shuffled; returns (n, edges, label of vertex 0)."""
    later: list[set[int]] = [set() for _ in range(n)]
    for i in range(n - 2, -1, -1):
        j = rng.randrange(i + 1, n)
        later[i] = {j} if pendant and i == 0 else {j} | {x for x in later[j] if rng.random() < q}
    label = list(range(n))
    rng.shuffle(label)
    return n, [(label[i], label[x]) for i in range(n) for x in later[i]], label[0]


def split_nested(rng: random.Random, n: int) -> tuple[int, Edges, int]:
    """Split graph with a sqrt(n) clique, independent vertices hooked to
    prefixes of the clique (so their neighbourhoods are nested), and a
    target n-1 adjacent to the whole clique.  Nested neighbourhoods make
    the target an MCS end-vertex."""
    c = max(2, math.isqrt(n))
    t = n - 1
    edges = list(combinations(range(c), 2))
    for w in range(c, n - 1):
        span = min(c - 1, 1 + min(int(rng.expovariate(0.7)), 7))
        edges.extend((w, x) for x in range(span))
    edges.extend((t, x) for x in range(c))
    return n, edges, t


def random_connected(rng: random.Random, n: int, p: float) -> tuple[int, Edges]:
    """G(n, p) plus a random spanning tree, so it is connected."""
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    return n, sorted(edges)


def sparse_connected(rng: random.Random, n: int, avg_degree: int) -> tuple[int, Edges]:
    """A random recursive tree topped up with uniform random edges until
    the average degree is reached."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n * avg_degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def random_split(rng: random.Random, n: int) -> tuple[int, Edges]:
    """Clique on half the vertices; every other vertex sees a random
    nonempty part of it."""
    c = max(2, n // 2)
    members = list(range(n))
    rng.shuffle(members)
    clique, indep = members[:c], members[c:]
    edges = list(combinations(clique, 2))
    for w in indep:
        edges.extend((w, x) for x in rng.sample(clique, rng.randint(1, c)))
    return n, edges


def _intervals_graph(intervals: list[tuple[float, float]]) -> Edges:
    return [(i, j) for i, j in combinations(range(len(intervals)), 2)
            if intervals[i][0] <= intervals[j][1] and intervals[j][0] <= intervals[i][1]]


def _connected(n: int, edges: Edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_interval(rng: random.Random, n: int) -> tuple[int, Edges]:
    """Intersection graph of random intervals, redrawn until connected."""
    while True:
        iv = []
        for _ in range(n):
            a, b = rng.random(), rng.random()
            iv.append((min(a, b), max(a, b) + 0.05))
        edges = _intervals_graph(iv)
        if _connected(n, edges):
            return n, edges


def random_unit_interval(rng: random.Random, n: int) -> tuple[int, Edges]:
    """Unit intervals whose centres advance by less than 1, so the graph
    is connected."""
    centres = [0.0]
    for _ in range(n - 1):
        centres.append(centres[-1] + (0.0 if rng.random() < 0.15 else rng.uniform(0.05, 0.95)))
    return n, [(i, j) for i, j in combinations(range(n), 2) if abs(centres[i] - centres[j]) <= 1.0]


def random_claw_net_free(rng: random.Random, n: int) -> tuple[int, Edges]:
    """A cycle, a clique or a unit interval graph: each is claw-free and
    net-free (unit interval graphs are claw-free interval graphs, and the
    net is not interval)."""
    family = rng.randrange(3)
    if family == 0:
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == 1:
        return n, list(combinations(range(n), 2))
    return random_unit_interval(rng, n)


def star(leaves: int) -> tuple[int, Edges]:
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def spider(legs: tuple[int, ...]) -> tuple[int, Edges]:
    """Paths of the given lengths glued at vertex 0.  Three legs of
    length >= 2 make an asteroidal triple, so the tree is not interval."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return nxt, edges


def random_cnf(rng: random.Random, k: int, clauses: int) -> tuple[int, list[tuple[tuple[int, bool], ...]]]:
    """Uniform 3-CNF over k variables, three distinct variables per clause."""
    return k, [tuple((v, rng.random() < 0.5) for v in rng.sample(range(1, k + 1), 3))
               for _ in range(clauses)]


def unsat_cnf(rng: random.Random, k: int, noise: int) -> tuple[int, list[tuple[tuple[int, bool], ...]]]:
    """All eight sign patterns over three variables (unsatisfiable by
    construction) plus ``noise`` random clauses, shuffled."""
    core = sorted(rng.sample(range(1, k + 1), 3))
    clauses = [tuple(zip(core, signs)) for signs in product((True, False), repeat=3)]
    clauses += random_cnf(rng, k, noise)[1]
    rng.shuffle(clauses)
    return k, clauses
