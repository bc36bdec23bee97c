import random
from itertools import combinations

import pytest

import fixtures as fx
from endvertex import (
    DisconnectedGraphError,
    Graph,
    NotChordalError,
    chordal_hole,
    clique_tree,
    is_connected,
    maximal_cliques_chordal,
    mcs_order,
    peo_violation,
    recognize_chordal,
    validate_order,
)
from endvertex.chordal import is_chordless_cycle
from endvertex.search import SearchKind
from reference import minimal_separators_chordal


def test_mcs_order_is_valid_mcs():
    rng = random.Random(2001)
    for _ in range(80):
        g = fx.rand_connected_graph(rng, rng.randint(1, 10))
        order = mcs_order(g, start=rng.randrange(g.n))
        ok, pos = validate_order(SearchKind.MCS, g, order)
        assert ok, f"bucket MCS produced an invalid order at {pos}"


def test_peo_check_examples():
    k4 = fx.clique(4)
    assert peo_violation(k4, [0, 1, 2, 3]) is None
    c4 = fx.cycle(4)
    assert peo_violation(c4, [0, 1, 2, 3]) is not None
    assert all(peo_violation(c4, list(p)) is not None for p in _all_orders(4))
    p4 = fx.path(4)
    assert peo_violation(p4, [0, 1, 2, 3]) is None


def _all_orders(n):
    from itertools import permutations
    return permutations(range(n))


def test_reversed_mcs_is_peo_on_chordal():
    rng = random.Random(2002)
    for _ in range(100):
        g = fx.rand_chordal(rng, rng.randint(1, 10))
        order = mcs_order(g, start=rng.randrange(g.n))
        assert peo_violation(g, list(reversed(order))) is None


def test_recognize_chordal():
    assert recognize_chordal(fx.cycle(4)) is None
    tree = fx.rand_chordal(random.Random(7), 8, q=0.0)  # q=0 gives a random tree
    assert recognize_chordal(tree) is not None
    g, _ = fx.interval_pair_right()
    peo = recognize_chordal(g)
    assert peo is not None and peo_violation(g, peo) is None


def test_recognize_chordal_matches_bruteforce():
    rng = random.Random(2003)
    for _ in range(120):
        g = fx.rand_connected_graph(rng, rng.randint(1, 8))
        got = recognize_chordal(g)
        assert (got is not None) == fx.brute_is_chordal(g)
        if got is not None:
            assert peo_violation(g, got) is None
        else:
            hole = chordal_hole(g)
            assert hole is not None and is_chordless_cycle(g, hole)


def test_recognize_chordal_is_the_checked_reversed_mcs_order():
    """The elimination test run inside the MCS pass agrees with
    `peo_violation` on the reversed MCS order: that order on chordal
    graphs, None otherwise, DisconnectedGraphError on disconnected ones."""
    rng = random.Random(2007)
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, [])]
    graphs += [fx.cycle(k) for k in range(4, 13)]
    for _ in range(400):
        n = rng.randint(2, 12)
        graphs.append(fx.rand_chordal(rng, n, q=rng.random()))
        graphs.append(fx.rand_connected_graph(rng, n))
        p = rng.uniform(0.1, 0.6)
        graphs.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                           if rng.random() < p]))
    outcomes = {"chordal": 0, "not chordal": 0, "disconnected": 0}
    for g in graphs:
        if not is_connected(g):
            outcomes["disconnected"] += 1
            with pytest.raises(DisconnectedGraphError):
                recognize_chordal(g)
            continue
        order = mcs_order(g)[::-1]
        want = order if peo_violation(g, order) is None else None
        outcomes["chordal" if want is not None else "not chordal"] += 1
        assert recognize_chordal(g) == want, g.adj
    assert min(outcomes.values()) >= 100, outcomes


def test_chordless_cycle_check_matches_the_pairwise_definition():
    """Consecutive vertices adjacent (cyclically) and every other pair
    non-adjacent, on random sequences of 0-9 vertices of random graphs and
    on the holes `chordal_hole` finds, shuffled in part."""
    rng = random.Random(2004)
    for _ in range(3000):
        g = fx.rand_connected_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.5))
        cycle = rng.choices(range(g.n), k=rng.randint(0, g.n)) if rng.random() < 0.2 \
            else rng.sample(range(g.n), rng.randint(0, g.n))
        hole = chordal_hole(g)
        if hole is not None and rng.random() < 0.5:
            i = rng.randrange(len(hole))
            cycle = hole[i:] + hole[:i]
            if rng.random() < 0.3:
                j = rng.randrange(len(hole))
                cycle[i], cycle[j] = cycle[j], cycle[i]
        k = len(cycle)
        expected = k >= 4 and len(set(cycle)) == k and all(
            g.has_edge(cycle[i], cycle[j]) == (j - i == 1 or (i == 0 and j == k - 1))
            for i in range(k) for j in range(i + 1, k))
        assert is_chordless_cycle(g, cycle) == expected


def test_maximal_cliques():
    g, names = fx.split_example()
    cliques = set(maximal_cliques_chordal(g))
    expected = {
        frozenset({names["1"], names["2"], names["3"], names["4"]}),
        frozenset({names["3"], names["4"], names["v"]}),
        frozenset({names["1"], names["6"]}),
        frozenset({names["2"], names["7"]}),
    }
    assert cliques == expected
    with pytest.raises(NotChordalError):
        maximal_cliques_chordal(fx.cycle(5))


def test_clique_tree_edges_carry_real_separators():
    rng = random.Random(2004)
    for _ in range(60):
        g = fx.rand_chordal(rng, rng.randint(2, 9))
        cliques, edges = clique_tree(g)
        assert len(edges) == len(cliques) - 1
        for i, j, sep in edges:
            assert sep == cliques[i] & cliques[j]


def test_clique_tree_returns_exactly_the_maximal_cliques():
    """The clique rule holds only along MCS orders.  [5, 4, 3, 2, 1, 0] is a
    PEO of K4 on 0-3 with 4 joined to 0 and 5 joined to 1, 2 and 3, but its
    reverse is no MCS order, and walking it would give the clique
    {0, 4, 5}, which is none.  `clique_tree` walks its own MCS pass, so
    it returns exactly the maximal cliques."""
    g = Graph.from_edges(6, [(a, b) for a, b in combinations(range(4), 2)]
                         + [(4, 0), (5, 1), (5, 2), (5, 3)])
    assert peo_violation(g, [5, 4, 3, 2, 1, 0]) is None
    cliques, edges = clique_tree(g)
    assert sorted(map(sorted, cliques)) == [[0, 1, 2, 3], [0, 4], [1, 2, 3, 5]]
    assert len(edges) == 2 and all(sep == cliques[i] & cliques[j] for i, j, sep in edges)


def test_minimal_separators_examples():
    p4 = fx.path(4)
    assert {frozenset({1}), frozenset({2})} == set(minimal_separators_chordal(p4))
    g, names = fx.split_example()
    seps = set(minimal_separators_chordal(g))
    assert seps == {frozenset({names["1"]}), frozenset({names["2"]}),
                    frozenset({names["3"], names["4"]})}
    assert minimal_separators_chordal(fx.clique(4)) == []


def test_minimal_separators_match_bruteforce():
    rng = random.Random(2005)
    for _ in range(80):
        g = fx.rand_chordal(rng, rng.randint(2, 9))
        got = set(minimal_separators_chordal(g))
        assert got == fx.brute_minimal_separators(g)


def test_maximal_cliques_match_bruteforce():
    from itertools import combinations
    rng = random.Random(2006)
    for _ in range(80):
        g = fx.rand_chordal(rng, rng.randint(1, 9))
        brute = set()
        for r in range(1, g.n + 1):
            for sub in combinations(range(g.n), r):
                if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                    others = set(range(g.n)) - set(sub)
                    if not any(all(g.has_edge(o, x) for x in sub) for o in others):
                        brute.add(frozenset(sub))
        assert set(maximal_cliques_chordal(g)) == brute
