import random
import sys
import threading
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
from endvertex import (
    CnfFormula,
    GuardExceededError,
    SearchKind,
    SearchReplay,
    build_mcs_gadget,
    build_mns_gadget,
    endvertex_set_exhaustive,
    is_endvertex_exhaustive,
    randomized_endvertex_probe,
    validate_order,
)
from endvertex import oracle
from reference import terminal_orders_exhaustive

K = SearchKind


def test_bfs_trap_fixture():
    g, nm = fx.bfs_trap()
    ends = endvertex_set_exhaustive(g, K.BFS, start=nm["s"])
    assert nm["t"] not in ends
    assert ends == {nm["2"], nm["3"]}


def test_split_example_fixture():
    g, nm = fx.split_example()
    assert nm["v"] in endvertex_set_exhaustive(g, K.MNS)
    assert nm["v"] not in endvertex_set_exhaustive(g, K.MCS)


def test_path_end_vertices():
    p3 = fx.path(3)
    for kind in SearchKind:
        assert endvertex_set_exhaustive(p3, kind) == {0, 2}


def test_interval_pair_fixtures():
    left, nml = fx.interval_pair_left()
    ok, witness = is_endvertex_exhaustive(left, K.MCS, nml["t"])
    assert ok and witness[-1] == nml["t"]
    assert validate_order(K.MCS, left, witness) == (True, None)
    right, nmr = fx.interval_pair_right()
    ok_mns, w_mns = is_endvertex_exhaustive(right, K.MNS, nmr["t"])
    ok_mcs, _ = is_endvertex_exhaustive(right, K.MCS, nmr["t"])
    assert ok_mns and validate_order(K.MNS, right, w_mns) == (True, None)
    assert not ok_mcs


def test_witnesses_always_validate():
    rng = random.Random(5001)
    for _ in range(40):
        g = fx.rand_connected_graph(rng, rng.randint(2, 8))
        for kind in SearchKind:
            for t in range(g.n):
                ok, witness = is_endvertex_exhaustive(g, kind, t)
                assert ok == (witness is not None)
                if ok:
                    assert witness[-1] == t
                    assert validate_order(kind, g, witness) == (True, None)
                assert ok == (t in endvertex_set_exhaustive(g, kind))


def test_oracle_agrees_with_permutation_brute_force():
    """Reference: every permutation of V, kept when validate_order accepts
    it, in lexicographic order.  End-vertex sets and witnesses must match
    for every kind and start, and MCS/MNS terminal orders must be exactly
    the valid permutations ending at t, in the same order."""
    rng = random.Random(5002)
    for _ in range(40):
        g = fx.rand_connected_graph(rng, rng.randint(2, 7))
        for kind in SearchKind:
            valid = [list(p) for p in permutations(range(g.n))
                     if validate_order(kind, g, p) == (True, None)]
            for start in [None, *range(g.n)]:
                orders = [o for o in valid if start in (None, o[0])]
                assert endvertex_set_exhaustive(g, kind, start=start) == {o[-1] for o in orders}
                for t in range(g.n):
                    ending = [o for o in orders if o[-1] == t]
                    ok, witness = is_endvertex_exhaustive(g, kind, t, start=start)
                    assert (ok, witness) == (bool(ending), ending[0] if ending else None)
                    if kind in (K.MCS, K.MNS):
                        assert list(terminal_orders_exhaustive(
                            g, kind, t, limit=10**6, start=start)) == ending


def test_oracle_is_recursion_free_on_long_paths():
    g = fx.path(1500)
    assert endvertex_set_exhaustive(g, K.DFS, start=0, guard=1500) == {1499}
    ok, witness = is_endvertex_exhaustive(g, K.MCS, 1499, start=0, guard=1500)
    assert ok and witness == list(range(1500))


def test_free_start_is_union_over_fixed_starts():
    rng = random.Random(5003)
    for _ in range(25):
        g = fx.rand_connected_graph(rng, rng.randint(2, 7))
        for kind in SearchKind:
            free = endvertex_set_exhaustive(g, kind)
            union = frozenset().union(
                *(endvertex_set_exhaustive(g, kind, start=s) for s in range(g.n)))
            assert free == union


def test_guards_are_enforced():
    g = fx.path(13)
    with pytest.raises(GuardExceededError):
        endvertex_set_exhaustive(g, K.BFS)
    endvertex_set_exhaustive(g, K.MCS)  # within the 18 guard
    with pytest.raises(GuardExceededError):
        endvertex_set_exhaustive(fx.path(19), K.MNS)
    with pytest.raises(GuardExceededError):
        is_endvertex_exhaustive(g, K.DFS, 0)
    assert endvertex_set_exhaustive(g, K.DFS, guard=13) == {0, 12}


def test_terminal_orders_enumeration():
    g, nm = fx.split_example()
    orders = list(terminal_orders_exhaustive(g, K.MNS, nm["v"], limit=50))
    assert orders
    assert len(orders) == len({tuple(o) for o in orders})
    for order in orders:
        assert order[-1] == nm["v"]
        assert validate_order(K.MNS, g, order) == (True, None)
    assert list(terminal_orders_exhaustive(g, K.MCS, nm["v"], limit=50)) == []
    with pytest.raises(ValueError):
        list(terminal_orders_exhaustive(g, K.BFS, nm["v"], limit=5))


def test_probe_examples():
    k5 = fx.clique(5)
    hits = randomized_endvertex_probe(k5, K.MCS, 0, trials=100, seed=7)
    assert hits >= 1  # symmetry puts the expectation at 20
    assert hits == randomized_endvertex_probe(k5, K.MCS, 0, trials=100, seed=7)
    hits_mns = randomized_endvertex_probe(k5, K.MNS, 0, trials=100, seed=7)
    assert hits_mns >= 1
    p3 = fx.path(3)
    assert randomized_endvertex_probe(p3, K.MCS, 1, trials=100, seed=3) == 0
    g, nm = fx.split_example()
    assert randomized_endvertex_probe(g, K.MCS, nm["v"], trials=10_000, seed=11) == 0


def test_probe_hits_are_pinned():
    """The batched MCS probe's hit counts for fixed (graph, t, trials,
    seed), as recorded before the probe updated its arrays in place, so
    the numpy stream cannot drift unnoticed."""
    def hits(g, targets, trials, seed):
        return [randomized_endvertex_probe(g, K.MCS, t, trials=trials, seed=seed)
                for t in targets]

    k5 = fx.clique(5)
    assert hits(k5, range(5), 100, 7) == [23, 21, 18, 16, 22]
    assert hits(k5, [2], 2000, 123) == [378]
    g, _ = fx.split_example()
    assert hits(g, range(g.n), 500, 11) == [0, 0, 0, 0, 0, 244, 256]
    art = build_mcs_gadget(CnfFormula(3, (((1, False), (2, True), (3, False)),
                                          ((1, True), (2, False), (3, True)))))
    assert (art.graph.n, art.target) == (125, 124)
    assert hits(art.graph, [124, 0, 41, 109, 115], 400, 5) == [0, 397, 1, 1, 1]


def test_probe_distribution_is_roughly_uniform_on_cliques():
    k5 = fx.clique(5)
    hits = randomized_endvertex_probe(k5, K.MCS, 2, trials=2000, seed=123)
    assert 300 <= hits <= 500  # expectation 400


def test_probe_agrees_with_sequential_replay():
    """Batched MCS probe must count only genuine MCS orders: any vertex it
    ever reports must be a true end-vertex on small graphs."""
    rng = random.Random(5004)
    for _ in range(20):
        g = fx.rand_connected_graph(rng, rng.randint(2, 7))
        exact = endvertex_set_exhaustive(g, K.MCS)
        for t in range(g.n):
            hits = randomized_endvertex_probe(g, K.MCS, t, trials=60, seed=rng.getrandbits(32))
            if t not in exact:
                assert hits == 0


def _gadget():
    return build_mcs_gadget(CnfFormula(3, (((1, False), (2, True), (3, False)),
                                           ((1, True), (2, False), (3, True)))))


def _probe_cases():
    """(graph, t, trials, seed): the pinned probes, then seeded random graphs."""
    g, _ = fx.split_example()
    gadget = _gadget().graph
    cases = [(fx.clique(5), 2, 2000, 123), (g, 5, 500, 11), (g, 6, 500, 11),
             (gadget, 0, 400, 5), (gadget, 41, 400, 5)]
    rng = random.Random(2808)
    for trials in (1, 2, 3, 7, 60, 301) * 4:
        g = fx.rand_connected_graph(rng, rng.randint(2, 9))
        cases.append((g, rng.randrange(g.n), trials, rng.getrandbits(32)))
    return cases


def test_probe_slices_add_up_to_the_whole_batch():
    """A slice reads its rows' numbers of the one stream, so the hits of
    any cut of the trials into slices sum to the single-slice count."""
    rng = random.Random(2809)
    for g, t, trials, seed in _probe_cases():
        adj = oracle._adjacency_matrix(g)
        whole = oracle._probe_mcs_slice(adj, t, trials, seed, 0, trials)
        for _ in range(3):
            cuts = sorted({0, trials, *(rng.randint(0, trials) for _ in range(rng.randint(1, 3)))})
            assert sum(oracle._probe_mcs_slice(adj, t, trials, seed, lo, hi)
                       for lo, hi in zip(cuts, cuts[1:])) == whole, (g.adj, t, trials, cuts)


def _count_slices(monkeypatch) -> list:
    calls = []
    run_slice = oracle._probe_mcs_slice

    def counted(*args):
        calls.append(args[-2:])
        return run_slice(*args)
    monkeypatch.setattr(oracle, "_probe_mcs_slice", counted)
    return calls


def test_probe_hits_do_not_depend_on_the_cpu_count(monkeypatch):
    calls = _count_slices(monkeypatch)
    monkeypatch.setattr(oracle, "MIN_SLICE_CELLS", 1)  # so that every case is cut
    for g, t, trials, seed in _probe_cases():
        hits = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
            calls.clear()
            hits.append(randomized_endvertex_probe(g, K.MCS, t, trials, seed))
            assert len(calls) == min(cpus, trials)
        assert hits[1:] == hits[:-1], (g.adj, t, trials)


def test_probe_hits_hold_with_more_slices_than_cores_and_fast_switching(monkeypatch):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 8)  # six slices of the gadget
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hits = [randomized_endvertex_probe(_gadget().graph, K.MCS, t, 400, 5)
                for t in (124, 0, 41, 109, 115)]
    finally:
        sys.setswitchinterval(interval)
    assert hits == [0, 397, 1, 1, 1]  # as pinned above


def test_probe_slices_draw_at_least_min_slice_cells_per_step(monkeypatch):
    calls = _count_slices(monkeypatch)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 64)
    g = _gadget().graph
    trials = 3 * oracle.MIN_SLICE_CELLS // g.n
    randomized_endvertex_probe(g, K.MCS, 0, trials, 7)
    assert sorted(calls) == [(0, trials // 2), (trials // 2, trials)]
    calls.clear()
    randomized_endvertex_probe(fx.clique(5), K.MCS, 0, 1000, 7)
    assert calls == [(0, 1000)]


def test_probe_on_one_cpu_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("thread started")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    g = _gadget().graph
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    assert randomized_endvertex_probe(g, K.MCS, 0, 400, 5) == 397
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    with pytest.raises(AssertionError, match="thread started"):
        randomized_endvertex_probe(g, K.MCS, 0, 400, 5)


def test_probe_joins_its_threads(monkeypatch):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    assert randomized_endvertex_probe(_gadget().graph, K.MCS, 0, 400, 5) == 397
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_failing_slice_fails_the_probe(monkeypatch, failing):
    """A slice's exception reaches the caller, never a partial count, and
    every worker is joined first."""
    run_slice = oracle._probe_mcs_slice
    cuts = [0, 133, 266]

    def flaky(adj, t, trials, seed, lo, hi):
        if lo == cuts[failing]:
            raise RuntimeError(f"slice from {lo}")
        return run_slice(adj, t, trials, seed, lo, hi)
    monkeypatch.setattr(oracle, "_probe_mcs_slice", flaky)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"slice from {cuts[failing]}$"):
        randomized_endvertex_probe(_gadget().graph, K.MCS, 0, 400, 5)
    assert threading.active_count() == before


def test_generic_end_vertices_are_exactly_non_cut_vertices():
    """No search can end on a cut vertex, and for generic search the
    converse holds too: order G - t first (connected), then t."""
    from endvertex import cut_vertices
    rng = random.Random(5007)
    for _ in range(40):
        g = fx.rand_connected_graph(rng, rng.randint(2, 8))
        ends = endvertex_set_exhaustive(g, K.GENERIC)
        assert ends == frozenset(range(g.n)) - cut_vertices(g)


def test_lbfs_end_vertex_of_chordal_graph_is_simplicial():
    from endvertex import is_simplicial
    rng = random.Random(5008)
    for _ in range(40):
        g = fx.rand_chordal(rng, rng.randint(2, 8))
        for t in endvertex_set_exhaustive(g, K.LBFS):
            assert is_simplicial(g, t)


def test_endvertex_hierarchy_monotonicity():
    """Every MCS or LDFS end-vertex is an MNS end-vertex (their orders
    are MNS orders), and every end-vertex of anything is a Generic one."""
    rng = random.Random(5006)
    for _ in range(25):
        g = fx.rand_connected_graph(rng, rng.randint(2, 8))
        mns = endvertex_set_exhaustive(g, K.MNS)
        generic = endvertex_set_exhaustive(g, K.GENERIC)
        assert endvertex_set_exhaustive(g, K.MCS) <= mns <= generic
        assert endvertex_set_exhaustive(g, K.LDFS) <= mns
        for kind in (K.BFS, K.DFS, K.LBFS):
            assert endvertex_set_exhaustive(g, kind) <= generic


def test_generic_and_bfs_oracle_work_is_memoized(monkeypatch):
    """`SearchReplay.eligible` calls, one per state the walker enters, for
    every target query and the set query on 9 seeded random graphs with
    n = 9-11.  Before Generic and BFS states were memoized the counts
    were: BFS 1 236 586 (targets) and 1 123 940 (sets); Generic 20 280
    and 18 925.  Each must now be at most a tenth of that."""
    calls = [0]
    eligible = SearchReplay.eligible

    def counted(replay):
        calls[0] += 1
        return eligible(replay)

    monkeypatch.setattr(SearchReplay, "eligible", counted)
    rng = random.Random(10010)
    graphs = [fx.rand_connected_graph(rng, n) for n in (9, 10, 11) for _ in range(3)]
    for kind, parent_target, parent_set in ((K.BFS, 1_236_586, 1_123_940),
                                            (K.GENERIC, 20_280, 18_925)):
        calls[0] = 0
        for g in graphs:
            for t in range(g.n):
                is_endvertex_exhaustive(g, kind, t)
        assert calls[0] <= parent_target // 10, (kind, calls[0])
        calls[0] = 0
        for g in graphs:
            endvertex_set_exhaustive(g, kind)
        assert calls[0] <= parent_set // 10, (kind, calls[0])


def test_target_queries_prune_prefixes_that_cannot_end_at_the_target(monkeypatch):
    """`SearchReplay.eligible` calls over every target query on the 9
    graphs above, and on the unsatisfiable MNS gadget (k = 4, the eight
    sign patterns over x1-x3, n = 19).  Before target queries pruned
    dead prefixes the counts were: BFS 19 323, LBFS 112 907, LDFS
    104 966, MCS 6 331, MNS 3 734, Generic 1 135, DFS 4 917; on the
    gadget, MNS 2 953.  BFS, LBFS and LDFS must now be at most a tenth
    of that, MCS and MNS at most half, Generic and DFS (no rule) no more,
    and the gadget's MNS query at most a tenth."""
    calls = [0]
    eligible = SearchReplay.eligible

    def counted(replay):
        calls[0] += 1
        return eligible(replay)

    monkeypatch.setattr(SearchReplay, "eligible", counted)
    rng = random.Random(10010)
    graphs = [fx.rand_connected_graph(rng, n) for n in (9, 10, 11) for _ in range(3)]
    for kind, bound in ((K.BFS, 19_323 // 10), (K.LBFS, 112_907 // 10),
                        (K.LDFS, 104_966 // 10), (K.MCS, 6_331 // 2), (K.MNS, 3_734 // 2),
                        (K.GENERIC, 1_135), (K.DFS, 4_917)):
        calls[0] = 0
        for g in graphs:
            for t in range(g.n):
                is_endvertex_exhaustive(g, kind, t)
        assert calls[0] <= bound, (kind, calls[0])
    clauses = tuple(((1, a), (2, b), (3, c)) for a, b, c in product((True, False), repeat=3))
    art = build_mns_gadget(CnfFormula(4, clauses))
    assert art.graph.n == 19
    calls[0] = 0
    assert is_endvertex_exhaustive(art.graph, K.MNS, art.target, guard=19) == (False, None)
    assert calls[0] <= 2_953 // 10, calls[0]


FAMILIES = (fx.rand_connected_graph, fx.rand_chordal, fx.rand_split, fx.rand_interval,
            fx.rand_unit_interval, fx.rand_claw_net_free, fx.rand_sparse_interval)


@st.composite
def family_graphs(draw):
    """A connected graph with n <= 8 from one of the fixture families."""
    family = draw(st.sampled_from(FAMILIES))
    return family(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 8)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family_graphs(), st.integers(0, 7))
def test_pruned_target_queries_agree_with_the_set_walk(g, s):
    """The set query walks without the target rules, so it is the
    reference: a target query says yes exactly for its members, with a
    witness from the start that ends at t and validates, and MCS and MNS
    terminal orders do the same."""
    for kind in SearchKind:
        for start in (None, s % g.n):
            ends = endvertex_set_exhaustive(g, kind, start=start)
            for t in range(g.n):
                ok, witness = is_endvertex_exhaustive(g, kind, t, start=start)
                assert ok == (t in ends)
                orders = [witness] if ok else []
                if kind in (K.MCS, K.MNS):
                    terminal = list(terminal_orders_exhaustive(g, kind, t, limit=20, start=start))
                    assert terminal[:1] == orders
                    orders = terminal
                for order in orders:
                    assert order[-1] == t and start in (None, order[0])
                    assert validate_order(kind, g, order) == (True, None)
