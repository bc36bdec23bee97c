import random
import sys
from collections.abc import Set

import pytest

import fixtures as fx
from endvertex import (
    DisconnectedGraphError,
    Graph,
    complement,
    cut_vertices,
    induced_subgraph,
    is_connected,
    is_inclusion_chain,
    is_simplicial,
)
from endvertex.graph import _chain_break


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph([{1}, set(), set()])  # asymmetric
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert g.m == 2  # duplicates collapse



def test_from_edges_checks_in_order():
    with pytest.raises(ValueError, match=r"^vertex count must be nonnegative$"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match=r"^edge \(2,2\) out of range 0..1$"):
        Graph.from_edges(2, [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        Graph.from_edges(2, [(0, 1), (1, 1), (0, 5)])
    with pytest.raises(ValueError, match=r"^edge \(0,1\.0\) out of range 0..3$"):
        Graph.from_edges(4, [(0, 1.0)])
    with pytest.raises(ValueError, match=r"^edge \('0',1\) out of range 0..3$"):
        Graph.from_edges(4, [(0, 1), ('0', 1)])
    with pytest.raises(ValueError, match=r"^edge \(2,None\) out of range 0..3$"):
        Graph.from_edges(4, iter([(0, 1), (2, None)]))
    with pytest.raises(TypeError):  # an edge that is no pair is no endpoint's fault
        Graph.from_edges(4, [(0, 1), 5])


def test_from_edges_builds_compact_tables():
    """Each neighbourhood is as small as a frozenset copied from a set,
    even with duplicate edges; a frozenset built straight from a list
    keeps the growth slack of its table."""
    rng = random.Random(7)
    n = 200
    edges = [(v, w) for v in range(n) for w in rng.sample(range(n), v % 40) if v != w]
    g = Graph.from_edges(n, edges + edges[::3])
    for v in range(n):
        assert sys.getsizeof(g.adj[v]) <= sys.getsizeof(frozenset(set(g.adj[v])))

def test_simplicial_examples():
    k3 = fx.clique(3)
    assert is_simplicial(k3, 0)
    p3 = fx.path(3)
    assert not is_simplicial(p3, 1)
    assert is_simplicial(p3, 0)
    g, names = fx.split_example()
    assert is_simplicial(g, names["v"])
    with pytest.raises(ValueError):
        is_simplicial(p3, 7)


def test_simplicial_matches_bruteforce():
    rng = random.Random(1001)
    for _ in range(150):
        n = rng.randint(1, 10)
        g = fx.rand_connected_graph(rng, n)
        for v in range(n):
            assert is_simplicial(g, v) == fx.brute_is_simplicial(g, v)


def test_connectivity():
    assert is_connected(Graph.from_edges(0, []))
    assert is_connected(Graph.from_edges(1, []))
    assert not is_connected(Graph.from_edges(2, []))
    assert is_connected(fx.path(4))
    g, names = fx.interval_pair_left()
    remainder = sorted(set(range(g.n)) - g.closed_neighborhood(names["t"]))
    sub, _ = induced_subgraph(g, remainder)
    assert not is_connected(sub)


def test_cut_vertices_examples():
    assert cut_vertices(fx.path(3)) == frozenset({1})
    assert cut_vertices(fx.cycle(4)) == frozenset()
    assert cut_vertices(fx.star(3)) == frozenset({0})
    with pytest.raises(DisconnectedGraphError):
        cut_vertices(Graph.from_edges(2, []))


def test_cut_vertices_match_bruteforce():
    rng = random.Random(1002)
    for _ in range(120):
        n = rng.randint(1, 9)
        g = fx.rand_connected_graph(rng, n)
        expected = frozenset(
            v for v in range(n)
            if len(fx.brute_components_without(g, frozenset({v}))) > 1)
        assert cut_vertices(g) == expected


def test_induced_subgraph():
    k4 = fx.clique(4)
    sub, remap = induced_subgraph(k4, [0, 2, 3])
    assert sub.n == 3 and sub.m == 3
    assert remap == (0, 2, 3)
    p4 = fx.path(4)
    ends, _ = induced_subgraph(p4, [0, 3])
    assert ends.m == 0
    g, names = fx.mcs_jump_example()
    sub, remap = induced_subgraph(g, sorted(g.adj[names["t"]]))
    assert sub.n == 2 and sub.m == 1  # N(t) = {e, u} spans a single edge


def test_induced_subgraph_preserves_adjacency():
    rng = random.Random(1003)
    for _ in range(60):
        n = rng.randint(2, 9)
        g = fx.rand_connected_graph(rng, n)
        keep = sorted(rng.sample(range(n), rng.randint(1, n)))
        sub, remap = induced_subgraph(g, keep)
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                assert sub.has_edge(i, j) == g.has_edge(remap[i], remap[j])


def test_complement():
    assert complement(fx.clique(3)).m == 0
    assert complement(Graph.from_edges(2, [])).m == 1
    rng = random.Random(1004)
    for _ in range(40):
        g = fx.rand_connected_graph(rng, rng.randint(1, 9))
        assert complement(complement(g)) == g


def test_inclusion_chain_examples():
    assert is_inclusion_chain([{1}, {1, 2}, {1, 2, 3}])
    assert not is_inclusion_chain([{1, 2}, {2, 3}])
    assert is_inclusion_chain([])
    assert is_inclusion_chain([set()])
    assert is_inclusion_chain([{5}, set(), {5, 9}])
    # A member repeated inside one collection does not break the walk.
    assert is_inclusion_chain([[1, 1]])
    assert is_inclusion_chain([[2, 2], [1, 2, 3]])
    assert is_inclusion_chain([[1, 1], [1, 2]])
    assert is_inclusion_chain([(1, 1, 1, 1), (1, 2)])


def test_inclusion_chain_matches_bruteforce():
    """The walk's break is None exactly on chains; otherwise it is a pair
    of indices whose second set is no larger than the first and not
    inside it."""
    rng = random.Random(1005)
    for _ in range(300):
        fam = [frozenset(rng.sample(range(8), rng.randint(0, 6)))
               for _ in range(rng.randint(0, 5))]
        assert is_inclusion_chain(fam) == fx.brute_inclusion_chain(fam)
        pair = _chain_break(fam)
        assert (pair is None) == fx.brute_inclusion_chain(fam)
        if pair is not None:
            a, b = (fam[i] for i in pair)
            assert len(b) <= len(a) and not b <= a


class _CountingSet(Set):
    """A set that counts the members it hands out, through `__iter__` and
    through the mixin comparisons that are built on it."""

    yielded = 0

    def __init__(self, members):
        self._members = frozenset(members)

    def __contains__(self, x):
        return x in self._members

    def __len__(self):
        return len(self._members)

    def __iter__(self):
        for x in self._members:
            _CountingSet.yielded += 1
            yield x


def test_chain_break_reads_each_member_once():
    """A chain of k - 2 nested sets with two incomparable sets below it or
    above it; above it is the shape that made an all-pairs search, smallest
    sets first, cubic.  Either way the walk reads at most the total size of
    the family and names the two."""
    k = 300
    chain = [range(size) for size in range(2, k)]
    for pair_sets in ([{0}, {1}], [range(k), [*range(k - 1), k]]):
        fam = [_CountingSet(members) for members in chain + pair_sets]
        random.Random(1007).shuffle(fam)
        _CountingSet.yielded = 0
        pair = _chain_break(fam)
        assert _CountingSet.yielded <= sum(map(len, fam))
        assert sorted(sorted(fam[i]) for i in pair) == sorted(map(sorted, pair_sets))
