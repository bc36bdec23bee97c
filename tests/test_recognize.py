import random

import pytest

import fixtures as fx
from endvertex import (
    CliqueOrder,
    Graph,
    GuardExceededError,
    SplitPartition,
    check_unit_interval_order,
    enumerate_clique_orders,
    is_claw_net_free,
    is_split,
    is_weakly_chordal_desk,
    recognize_chordal,
    recognize_interval,
    recognize_split,
    recognize_unit_interval,
    unit_interval_order_ending_at,
    validate_clique_order,
    validate_split_partition,
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
    rng = random.Random(4008)
    for _ in range(120):
        g = fx.rand_connected_graph(rng, rng.randint(2, 8))
        assert is_claw_net_free(g) == fx.brute_is_claw_net_free(g)


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
