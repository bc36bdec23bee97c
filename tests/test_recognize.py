import random

import pytest

import fixtures as fx
from endvertex import (
    CliqueOrder,
    FixedPreference,
    Graph,
    GuardExceededError,
    SearchKind,
    SearchReplay,
    SplitPartition,
    check_unit_interval_order,
    is_claw_net_free,
    is_connected,
    is_split,
    recognize_chordal,
    recognize_interval,
    recognize_split,
    recognize_unit_interval,
    run_search,
    unit_interval_order_ending_at,
    validate_clique_order,
    validate_split_partition,
)
from endvertex.graph import _position_map
from endvertex.recognize import _lbfs
from reference import (
    enumerate_clique_orders,
    is_weakly_chordal_desk,
    reference_is_claw_net_free,
    reference_recognize_interval,
    reference_recognize_unit_interval,
    unit_interval_backtrack,
)


def test_recognize_split_examples():
    g, nm = fx.split_example()
    part = recognize_split(g)
    assert part.clique == frozenset({nm["1"], nm["2"], nm["3"], nm["4"]})
    assert part.independent == frozenset({nm["v"], nm["6"], nm["7"]})
    assert recognize_split(fx.cycle(4)) is None
    k5 = fx.clique(5)
    part5 = recognize_split(k5)
    assert part5.clique == frozenset(range(5)) and not part5.independent


def test_recognize_split_matches_bruteforce():
    rng = random.Random(4001)
    for _ in range(150):
        g = fx.rand_connected_graph(rng, rng.randint(1, 9))
        part = recognize_split(g)
        assert (part is not None) == fx.brute_is_split(g)
        assert (part is not None) == is_split(g)
        if part is not None:
            assert validate_split_partition(g, part)


def test_random_split_graphs_recognized():
    rng = random.Random(4002)
    for _ in range(100):
        g = fx.rand_split(rng, rng.randint(1, 9))
        part = recognize_split(g)
        assert part is not None and validate_split_partition(g, part)


def test_recognize_interval_examples():
    g, nm = fx.interval_pair_left()
    order = recognize_interval(g)
    assert order is not None and validate_clique_order(g, order)
    assert len(order) == 7
    sizes = sorted(len(c) for c in order.cliques)
    assert sizes == [2] * 7
    assert recognize_interval(fx.cycle(4)) is None
    assert recognize_interval(fx.claw()) is not None
    # The net is chordal but its three pendants form an asteroidal triple.
    assert recognize_chordal(fx.net()) is not None
    assert recognize_interval(fx.net()) is None
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="^interval recognition needs a connected graph$"):
        recognize_interval(two_edges)


def test_interval_certificates_on_random_instances():
    rng = random.Random(4003)
    for _ in range(80):
        g = fx.rand_interval(rng, rng.randint(1, 8))
        order = recognize_interval(g)
        assert order is not None and validate_clique_order(g, order)


def test_enumerate_clique_orders_on_jump_example():
    g, _ = fx.mcs_jump_example()
    orders = list(enumerate_clique_orders(g))
    assert orders, "the example is interval; some clique order must exist"
    assert all(validate_clique_order(g, o) for o in orders)
    # The hub chain flips independently of the two pendant anchors.
    assert len(orders) == 4
    seen = {o.cliques for o in orders}
    assert all(tuple(reversed(c)) in seen for c in seen)


def test_unit_interval_examples():
    g, _ = fx.unit_interval_example()
    order = recognize_unit_interval(g)
    assert order is not None and check_unit_interval_order(g, order)
    assert check_unit_interval_order(g, [0, 1, 2, 3, 4])  # (a,b,c,d,e)
    assert recognize_unit_interval(fx.claw()) is None
    left, _ = fx.interval_pair_left()
    assert recognize_unit_interval(left) is None
    right, _ = fx.interval_pair_right()
    assert recognize_unit_interval(right) is None


def test_unit_interval_check_matches_triple_scan():
    rng = random.Random(4004)
    for _ in range(120):
        n = rng.randint(1, 7)
        g = fx.rand_connected_graph(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        assert check_unit_interval_order(g, order) == fx.brute_unit_interval_order_ok(g, order)


def test_unit_interval_random_instances():
    rng = random.Random(4005)
    for _ in range(80):
        g = fx.rand_unit_interval(rng, rng.randint(1, 9))
        order = recognize_unit_interval(g)
        assert order is not None and check_unit_interval_order(g, order)


def test_unit_interval_order_ending_at():
    g, nm = fx.unit_interval_example()
    for name in "abcde":
        order = unit_interval_order_ending_at(g, nm[name])
        if order is not None:
            assert order[-1] == nm[name]
            assert check_unit_interval_order(g, order)
    assert unit_interval_order_ending_at(g, nm["a"]) is not None
    assert unit_interval_order_ending_at(g, nm["e"]) is not None
    assert unit_interval_order_ending_at(g, nm["d"]) is None


def test_class_containments_on_random_instances():
    rng = random.Random(4006)
    for _ in range(60):
        g = fx.rand_unit_interval(rng, rng.randint(1, 8))
        assert recognize_interval(g) is not None
    for _ in range(60):
        g = fx.rand_split(rng, rng.randint(1, 8))
        assert recognize_chordal(g) is not None
    for _ in range(60):
        g = fx.rand_interval(rng, rng.randint(1, 8))
        assert recognize_chordal(g) is not None
    for _ in range(60):
        g = fx.rand_chordal(rng, rng.randint(1, 8))
        assert is_weakly_chordal_desk(g)


def test_claw_net_free():
    assert not is_claw_net_free(fx.claw())
    assert not is_claw_net_free(fx.net())
    assert is_claw_net_free(fx.cycle(5))
    assert is_claw_net_free(fx.clique(6))
    assert is_claw_net_free(fx.path(6))
    g, _ = fx.split_example()
    assert not is_claw_net_free(g)  # contains an induced net


def test_weakly_chordal_desk():
    assert not is_weakly_chordal_desk(fx.cycle(5))
    assert not is_weakly_chordal_desk(fx.cycle(6))
    assert is_weakly_chordal_desk(fx.cycle(4))
    assert is_weakly_chordal_desk(fx.clique(5))
    with pytest.raises(GuardExceededError):
        is_weakly_chordal_desk(fx.path(10), size_guard=9)


def test_weakly_chordal_matches_subset_bruteforce():
    from endvertex import complement
    rng = random.Random(4007)
    for _ in range(80):
        g = fx.rand_connected_graph(rng, rng.randint(2, 8))
        expected = not (fx.brute_has_hole(g, 5) or fx.brute_has_hole(complement(g), 5))
        assert is_weakly_chordal_desk(g) == expected


def test_claw_net_free_matches_subset_bruteforce():
    """Random graphs, plus cocktail-party graphs (dense, claw-net-free,
    not chordal) with and without a private pendant at each corner of the
    triangle 0, 1, 2, which makes a net."""
    rng = random.Random(4008)
    graphs = [fx.rand_connected_graph(rng, rng.randint(2, 8)) for _ in range(120)]
    for k in (2, 3, 4):
        g = fx.cocktail_party(k)
        graphs.append(g)
        if k >= 3:  # k = 2 is C_4, which has no triangle
            n = g.n
            graphs.append(Graph.from_edges(n + 3, [*g.edges(), (0, n), (1, n + 1), (2, n + 2)]))
    for g in graphs:
        assert is_claw_net_free(g) == fx.brute_is_claw_net_free(g)
    assert [is_claw_net_free(g) for g in graphs[120:]] == [True, True, False, True, False]


def test_invalid_clique_order_rejected():
    g, _ = fx.interval_pair_left()
    order = recognize_interval(g)
    cliques = list(order.cliques)
    swapped = CliqueOrder(tuple([cliques[2], cliques[0], cliques[1]] + cliques[3:]))
    assert not validate_clique_order(g, swapped)
    missing = CliqueOrder(tuple(cliques[:-1]))
    assert not validate_clique_order(g, missing)


def test_validate_split_partition_rejections():
    # C = {0,1,2} a triangle, I = {3,4}; 3 sees 0, 4 sees 1.
    edges = [(0, 1), (0, 2), (1, 2), (3, 0), (4, 1)]
    good = SplitPartition(frozenset({0, 1, 2}), frozenset({3, 4}))
    assert validate_split_partition(Graph.from_edges(5, edges), good)
    missing_clique_edge = Graph.from_edges(5, [e for e in edges if e != (1, 2)])
    assert not validate_split_partition(missing_clique_edge, good)
    edge_inside_i = Graph.from_edges(5, edges + [(3, 4)])
    assert not validate_split_partition(edge_inside_i, good)
    # 3 sees all of C, so C is not maximal (C + {3} is a clique).
    sees_all = Graph.from_edges(5, edges + [(3, 1), (3, 2)])
    assert not validate_split_partition(sees_all, good)
    assert validate_split_partition(
        sees_all, SplitPartition(frozenset({0, 1, 2, 3}), frozenset({4})))
    # Overlapping or non-covering sides.
    g = Graph.from_edges(5, edges)
    assert not validate_split_partition(g, SplitPartition(frozenset({0, 1, 2, 3}), frozenset({3, 4})))
    assert not validate_split_partition(g, SplitPartition(frozenset({0, 1, 2}), frozenset({3})))


def _small_graph(rng, trial):
    """One graph with n <= 10: the random families, nets, claws, spiders,
    stars and cycles, and disjoint unions of two random ones."""
    family = trial % 12
    n = rng.randint(1, 8)
    if family == 0:
        return fx.rand_interval(rng, n)
    if family == 1:
        return fx.rand_unit_interval(rng, n)
    if family == 2:
        return fx.rand_chordal(rng, n, rng.random())
    if family == 3:
        return fx.rand_split(rng, n)
    if family == 4:
        return fx.rand_connected_graph(rng, n)
    if family == 5:
        return fx.net() if trial % 24 < 12 else fx.claw()
    if family == 6:
        return fx.spider([rng.randint(1, 3) for _ in range(rng.randint(1, 3))])
    if family == 7:
        return fx.star(rng.randint(0, 7))
    if family == 8:
        return fx.cycle(rng.randint(3, 9))
    if family == 9:
        return fx.rand_sparse_interval(rng, n)
    parts = [fx.rand_unit_interval(rng, rng.randint(1, 4)) if family == 10
             else fx.rand_interval(rng, rng.randint(1, 4)) for _ in range(2)]
    size = parts[0].n + parts[1].n
    label = rng.sample(range(size), size)
    shift = parts[0].n
    return Graph.from_edges(size, [(label[u], label[v]) for u, v in parts[0].edges()]
                            + [(label[u + shift], label[v + shift]) for u, v in parts[1].edges()])


def _outcome(fn, g):
    try:
        return fn(g), None
    except ValueError as exc:
        return None, str(exc)


def test_recognizers_match_the_exhaustive_references():
    """3000 seeded graphs with n <= 10: both recognizers accept exactly
    what the backtracking references accept, every certificate validates,
    disconnected input to interval recognition raises the reference's
    ValueError while unit interval recognition answers on it, and
    `unit_interval_order_ending_at` finds an order exactly when the
    reference's forced-last placement does, on disconnected input too."""
    rng = random.Random(4010)
    memo = {}
    for trial in range(3000):
        g = _small_graph(rng, trial)
        if g not in memo:
            ends = unit_interval_backtrack(g, None) is not None
            memo[g] = (_outcome(reference_recognize_interval, g),
                       _outcome(reference_recognize_unit_interval, g),
                       [ends and unit_interval_backtrack(g, t) is not None for t in range(g.n)])
        want_interval, want_unit, want_ends = memo[g]
        order, error = _outcome(recognize_interval, g)
        assert error == want_interval[1], f"trial {trial}"
        assert (order is None) == (want_interval[0] is None), f"trial {trial}"
        assert order is None or validate_clique_order(g, order), f"trial {trial}"
        order, error = _outcome(recognize_unit_interval, g)
        assert error == want_unit[1], f"trial {trial}"
        assert (order is None) == (want_unit[0] is None), f"trial {trial}"
        assert order is None or check_unit_interval_order(g, order), f"trial {trial}"
        assert error is None
        for t in range(g.n):
            order = unit_interval_order_ending_at(g, t)
            assert (order is not None) == want_ends[t], f"trial {trial}, t={t}"
            assert order is None or (order[-1] == t and check_unit_interval_order(g, order))


def test_recognizers_accept_every_interval_model_at_mid_size():
    """Completeness where the references are too slow: intersection graphs
    of random intervals (n <= 40, sparse ones up to 60) are always
    recognized as interval, and of random unit intervals as unit
    interval."""
    rng = random.Random(4012)
    for _ in range(300):
        g = fx.rand_interval(rng, rng.randint(1, 40))
        order = recognize_interval(g)
        assert order is not None and validate_clique_order(g, order)
        g = fx.rand_sparse_interval(rng, rng.randint(1, 60))
        order = recognize_interval(g)
        assert order is not None and validate_clique_order(g, order)
        g = fx.rand_unit_interval(rng, rng.randint(1, 40))
        order = recognize_unit_interval(g)
        assert order is not None and check_unit_interval_order(g, order)


def test_lbfs_sweep_matches_run_search():
    """The recognizers' sweep and `run_search(LBFS)` both visit, at every
    step, the eligible vertex of least rank under a step-by-step
    `SearchReplay`.  A third of the graphs may be disconnected, as in
    `unit_interval_order_ending_at`'s sweeps, and `run_search` gets a fixed
    start that the ranking does not put first."""
    def replayed(g, by_rank, first):
        rank = _position_map(by_rank, g.n)
        replay = SearchReplay(g, SearchKind.LBFS)
        replay.advance(first)
        while len(replay.order) < g.n:
            replay.advance(min(replay.eligible(), key=rank.__getitem__))
        return replay.order

    rng = random.Random(4013)
    for trial in range(300):
        n = rng.randint(1, 30)
        if trial % 3:
            g = fx.rand_connected_graph(rng, n, rng.uniform(0.05, 0.6))
        else:
            p = rng.uniform(0.0, 0.3)
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
        by_rank = rng.sample(range(n), n)
        assert _lbfs(g, by_rank) == replayed(g, by_rank, by_rank[0]), trial
        if is_connected(g):
            start = rng.choice(by_rank[1:] or by_rank)
            assert run_search(SearchKind.LBFS, g, start, FixedPreference(tuple(by_rank))) \
                == replayed(g, by_rank, start), trial


def test_claw_net_free_matches_the_vertex_triple_reference():
    rng = random.Random(4014)
    net_edges = list(fx.net().edges())
    for trial in range(3000):
        n = rng.randint(1, 12)
        if trial % 4 == 0:
            g = fx.rand_connected_graph(rng, n, rng.uniform(0.5, 0.95))
        elif trial % 4 == 1:
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < 0.4])
        elif trial % 4 == 2:
            g = fx.rand_interval(rng, n)
        else:  # a net, often spoiled by edges among or beyond its pendants
            n = rng.randint(6, 10)
            g = Graph.from_edges(n, net_edges + [(i, j) for i in range(3, n) for j in range(i + 1, n)
                                                 if rng.random() < 0.3])
        assert is_claw_net_free(g) == reference_is_claw_net_free(g), f"trial {trial}"
