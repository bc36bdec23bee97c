import gc
import random
import tracemalloc
from time import perf_counter

import pytest

import fixtures as fx
from endvertex import (
    DisconnectedGraphError,
    FixedPreference,
    Graph,
    HIGHEST_ID,
    LOWEST_ID,
    SearchKind,
    SeededRandom,
    eligible_set,
    endvertex_set_exhaustive,
    is_endvertex_exhaustive,
    recognize_interval,
    recognize_unit_interval,
    run_search,
    validate_order,
)
from endvertex.search import SearchReplay, _refine_picks
from reference import reference_run_search, reference_validate_order

K = SearchKind
ALL_KINDS = list(SearchKind)


def test_eligible_set_known_examples():
    g, nm = fx.unit_interval_example()
    prefix = [nm["b"], nm["c"], nm["d"]]
    assert eligible_set(K.LDFS, g, prefix) == frozenset({nm["e"]})
    assert eligible_set(K.MCS, g, prefix) == frozenset({nm["a"]})


def test_eligible_set_empty_prefix_is_everything():
    g = fx.path(4)
    for kind in ALL_KINDS:
        assert eligible_set(kind, g, []) == frozenset(range(4))


def test_eligible_set_input_validation():
    g = fx.path(3)
    with pytest.raises(ValueError):
        eligible_set(K.BFS, g, [0, 0])
    with pytest.raises(ValueError):
        eligible_set(K.BFS, g, [0, 1, 2])
    with pytest.raises(ValueError):
        eligible_set(K.BFS, g, [9])


def test_validation_matrix_unit_interval_example():
    g, nm = fx.unit_interval_example()
    o = lambda *names: [nm[x] for x in names]
    assert validate_order(K.MCS, g, o("b", "c", "d", "a", "e")) == (True, None)
    assert validate_order(K.LDFS, g, o("b", "c", "d", "a", "e")) == (False, 4)
    assert validate_order(K.LDFS, g, o("b", "c", "d", "e", "a")) == (True, None)
    assert validate_order(K.MCS, g, o("b", "c", "d", "e", "a")) == (False, 4)
    assert validate_order(K.MNS, g, o("d", "b", "c", "e", "a")) == (True, None)
    assert validate_order(K.MCS, g, o("d", "b", "c", "e", "a")) == (False, 4)
    assert validate_order(K.LDFS, g, o("d", "b", "c", "e", "a")) == (False, 4)


def test_bfs_trap_orders_never_end_at_t():
    g, nm = fx.bfs_trap()
    t = nm["t"]
    from itertools import permutations
    others = [v for v in range(6) if v != t]
    for perm in permutations(others):
        ok, _ = validate_order(K.BFS, g, list(perm) + [t])
        assert not ok


def test_run_search_forced_path():
    g = fx.path(3)
    for kind in ALL_KINDS:
        assert run_search(kind, g, start=0) == [0, 1, 2]


def test_run_search_policies():
    g = fx.clique(3)
    assert run_search(K.MNS, g, start=0, policy=LOWEST_ID) == [0, 1, 2]
    assert run_search(K.MNS, g, start=0, policy=HIGHEST_ID) == [0, 2, 1]
    a = run_search(K.MCS, g, policy=SeededRandom(42))
    assert a == run_search(K.MCS, g, policy=SeededRandom(42))
    g10, nm = fx.mcs_jump_example()
    target = [nm[x] for x in ("a", "b", "u", "h", "i", "c", "d", "e", "f", "g", "t")]
    got = run_search(K.MCS, g10, start=target[0], policy=FixedPreference(tuple(target)))
    assert got == target
    assert validate_order(K.MCS, g10, target) == (True, None)


def test_run_search_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        run_search(K.BFS, Graph.from_edges(3, [(0, 1)]))


def test_replay_soundness_all_kinds():
    rng = random.Random(3001)
    for _ in range(60):
        g = fx.rand_connected_graph(rng, rng.randint(1, 9))
        for kind in ALL_KINDS:
            for policy in (LOWEST_ID, HIGHEST_ID, SeededRandom(rng.getrandbits(32))):
                start = rng.randrange(g.n)
                order = run_search(kind, g, start=start, policy=policy)
                assert validate_order(kind, g, order) == (True, None)


def test_validate_order_rejects_non_permutations():
    g = fx.path(3)
    with pytest.raises(ValueError):
        validate_order(K.BFS, g, [0, 1])
    with pytest.raises(ValueError):
        validate_order(K.BFS, g, [0, 1, 1])


def test_validate_order_on_disconnected_graph_flags_the_gap():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    # Generic, BFS and DFS have no eligible vertex across the component
    # gap; under the other kinds every label is empty there, so every
    # unvisited vertex is eligible.
    for kind in ALL_KINDS:
        stalls = kind in (K.GENERIC, K.BFS, K.DFS)
        assert validate_order(kind, g, [0, 1, 2, 3]) == ((False, 3) if stalls else (True, None))
        assert validate_order(kind, g, [2, 3, 1, 0]) == ((False, 3) if stalls else (True, None))
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    for kind in (K.LBFS, K.LDFS, K.MCS, K.MNS):
        assert validate_order(kind, g, [0, 1, 2, 4, 3]) == (True, None)
        assert validate_order(kind, g, [0, 1, 3, 2, 4]) == (False, 3)


def test_fixed_preference_must_cover_eligible_vertices():
    g = fx.clique(3)
    with pytest.raises(ValueError, match="preference"):
        run_search(K.MCS, g, policy=FixedPreference((0, 1)))


def test_hierarchy_on_random_runs():
    """Containments: LBFS < BFS, MNS; LDFS < DFS, MNS; MCS < MNS;
    everything < Generic."""
    rng = random.Random(3002)
    contained_in = {
        K.LBFS: (K.BFS, K.MNS, K.GENERIC),
        K.LDFS: (K.DFS, K.MNS, K.GENERIC),
        K.MCS: (K.MNS, K.GENERIC),
        K.BFS: (K.GENERIC,),
        K.DFS: (K.GENERIC,),
        K.MNS: (K.GENERIC,),
    }
    for _ in range(50):
        g = fx.rand_connected_graph(rng, rng.randint(2, 9))
        for kind, supers in contained_in.items():
            order = run_search(kind, g, start=rng.randrange(g.n),
                               policy=SeededRandom(rng.getrandbits(32)))
            for sup in supers:
                assert validate_order(sup, g, order) == (True, None)


def test_peo_from_lbfs_and_mcs_on_chordal():
    import endvertex
    rng = random.Random(3003)
    for _ in range(60):
        g = fx.rand_chordal(rng, rng.randint(1, 9))
        for kind in (K.LBFS, K.MCS):
            order = run_search(kind, g, start=rng.randrange(g.n),
                               policy=SeededRandom(rng.getrandbits(32)))
            assert endvertex.peo_violation(g, list(reversed(order))) is None


def test_mcs_mns_eligibility_depends_on_visited_set_only():
    rng = random.Random(3004)
    for _ in range(40):
        g = fx.rand_connected_graph(rng, rng.randint(3, 8))
        n = g.n
        prefix = random.Random(rng.getrandbits(32)).sample(range(n), rng.randint(1, n - 1))
        shuffled = prefix[:]
        random.Random(rng.getrandbits(32)).shuffle(shuffled)
        for kind in (K.MCS, K.MNS):
            assert eligible_set(kind, g, prefix) == eligible_set(kind, g, shuffled)


def test_search_kind_parse():
    assert SearchKind.parse("MCS") is K.MCS
    assert SearchKind.parse(" lbfs ") is K.LBFS
    with pytest.raises(ValueError):
        SearchKind.parse("dijkstra")


def reference_eligible(kind, g, prefix):
    """Each rule of the search module's docstring, computed from scratch:
    the positions of every unvisited vertex's visited neighbors, compared
    as the classical labels (no replay state, no bitmasks)."""
    n = g.n
    pos = {v: i for i, v in enumerate(prefix)}
    rest = [v for v in range(n) if v not in pos]
    if not prefix:
        return frozenset(rest)
    seen = {v: sorted(pos[w] for w in g.adj[v] if w in pos) for v in rest}
    reached = [v for v in rest if seen[v]]

    def best(key, among):
        top = max(key(v) for v in among)
        return frozenset(v for v in among if key(v) == top)

    if kind is K.GENERIC:
        return frozenset(reached)
    if kind is K.BFS:
        return best(lambda v: -seen[v][0], reached) if reached else frozenset()
    if kind is K.DFS:
        for u in reversed(prefix):
            fresh = [w for w in g.adj[u] if w not in pos]
            if fresh:
                return frozenset(fresh)
        return frozenset()
    if kind is K.LBFS:
        # Visiting the i-th vertex appends n - i to its neighbors' labels;
        # the lexicographically largest label wins.
        return best(lambda v: tuple(n - i for i in seen[v]), rest)
    if kind is K.LDFS:
        # Visiting the i-th vertex prepends i to its neighbors' labels.
        return best(lambda v: tuple(reversed(seen[v])), rest)
    if kind is K.MCS:
        return best(lambda v: len(seen[v]), rest)
    if kind is K.MNS:
        sets = {v: set(seen[v]) for v in rest}
        return frozenset(v for v in rest if not any(sets[v] < sets[w] for w in rest))
    raise AssertionError(kind)


def test_eligible_set_matches_a_from_scratch_reference():
    """Arbitrary prefixes (not only valid ones) on random graphs, a third
    of them disconnected, for every kind."""
    rng = random.Random(3005)
    for trial in range(400):
        n = rng.randint(1, 9)
        if trial % 3:
            g = fx.rand_connected_graph(rng, n)
        else:
            p = rng.uniform(0.0, 0.6)
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
        for _ in range(4):
            prefix = rng.sample(range(n), rng.randint(0, n - 1))
            for kind in ALL_KINDS:
                assert eligible_set(kind, g, prefix) == reference_eligible(kind, g, prefix), \
                    (trial, kind, prefix, sorted(g.edges()))


def test_replay_labels_stay_exact_through_advance_and_retreat():
    """Random walks forward and back on one replay per kind and graph
    (a third of the graphs disconnected), so that labels are checked
    after retreats too: after every step, `eligible()` and `unvisited()`
    match the definition, in ascending order."""
    rng = random.Random(3008)
    for trial in range(300):
        n = rng.randint(1, 9)
        if trial % 3:
            g = fx.rand_connected_graph(rng, n)
        else:
            p = rng.uniform(0.0, 0.6)
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
        for kind in ALL_KINDS:
            replay = SearchReplay(g, kind)
            for step in range(4 * n):
                if replay.order and (len(replay.order) == n or rng.random() < 0.4):
                    replay.retreat()
                else:
                    replay.advance(rng.choice(rng.choice((replay.eligible(), replay.unvisited()))
                                              or replay.unvisited()))
                prefix = replay.order
                assert replay.unvisited() == sorted(set(range(n)) - set(prefix))
                if len(prefix) < n:
                    assert replay.eligible() == sorted(reference_eligible(kind, g, prefix)), \
                        (trial, kind, step, list(prefix), sorted(g.edges()))


def test_eligible_set_memory_follows_the_prefix():
    """A two-vertex prefix of a 2e4-vertex path traces under 4 MB in
    `eligible_set` for every kind: the replay holds O(n) small labels, not
    a table of n position bits of up to n bits each (about 29 MB here)."""
    g = fx.path(20_000)
    for kind in ALL_KINDS:
        gc.collect()
        tracemalloc.start()
        try:
            assert eligible_set(kind, g, [0, 1]) == frozenset({2}), kind
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, (kind, peak)


def test_search_engine_needs_no_adjacency_masks():
    assert not hasattr(Graph, "adjacency_masks")
    rng = random.Random(3006)
    for _ in range(10):
        g = fx.rand_connected_graph(rng, rng.randint(2, 7))
        for kind in ALL_KINDS:
            order = run_search(kind, g, policy=SeededRandom(rng.getrandbits(32)))
            assert validate_order(kind, g, order) == (True, None)
            assert order[-1] in endvertex_set_exhaustive(g, kind)
            assert is_endvertex_exhaustive(g, kind, order[-1])[0]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _replay_order(kind, g, rng):
    """A random order that follows the kind's rule until nothing is
    eligible, then takes any unvisited vertex."""
    replay = SearchReplay(g, kind)
    while len(replay.order) < g.n:
        replay.advance(rng.choice(replay.eligible() or replay.unvisited()))
    return list(replay.order)


def test_engines_match_the_replay_reference():
    """`run_search` and `validate_order` against the step-by-step replay
    they replaced: orders, verdicts, exception types and messages, on
    random graphs (40 % drawn without a spanning tree, so often
    disconnected), every kind, lowest/highest id and full and partial
    preferences (with repeats and out-of-range entries), fixed starts in
    and out of range, and valid, random and non-permutation orders."""
    rng = random.Random(3007)
    for trial in range(500):
        n = rng.randint(1, 9)
        if trial % 5 < 2:
            p = rng.uniform(0.0, 0.6)
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
        else:
            g = fx.rand_connected_graph(rng, n)
        perm = rng.sample(range(n), n)
        policies = (LOWEST_ID, HIGHEST_ID, FixedPreference(tuple(perm)),
                    FixedPreference(tuple(rng.choices(range(-1, n + 1), k=rng.randint(0, n + 2)))))
        for kind in ALL_KINDS:
            for policy in policies:
                start = rng.choice((None, rng.randrange(n), rng.randrange(n), n))
                got = _outcome(run_search, kind, g, start=start, policy=policy)
                assert got == _outcome(reference_run_search, kind, g, start=start, policy=policy), \
                    (trial, kind, policy, start, sorted(g.edges()))
            orders = (_replay_order(kind, g, rng), _replay_order(kind, g, rng),
                      rng.sample(range(n), n), perm[:-1], perm + perm[:1], [n] + perm[1:])
            for order in orders:
                assert _outcome(validate_order, kind, g, order) == \
                    _outcome(reference_validate_order, kind, g, order), \
                    (trial, kind, order, sorted(g.edges()))


def _disconnected_graph(rng, n):
    """Two to four random parts side by side, vertex ids shuffled."""
    parts, edges, base = rng.randint(2, 4), [], 0
    cuts = sorted(rng.sample(range(1, n), parts - 1)) + [n]
    ids = rng.sample(range(n), n)
    for end in cuts:
        part = fx.rand_chordal(rng, end - base) if rng.random() < 0.5 else \
            fx.rand_connected_graph(rng, end - base, rng.uniform(0.05, 0.3))
        edges += [(ids[base + u], ids[base + w]) for u, w in part.edges()]
        base = end
    return Graph.from_edges(n, edges)


def test_lexicographic_and_mns_engines_match_the_reference_at_mid_size():
    """BFS, DFS, LBFS, LDFS and MNS `run_search` and `validate_order`
    against the replay reference on 60 graphs with n = 30-150: random
    sparse, random chordal, windows of width 1-6 and, for `validate_order`
    only, disconnected ones, where BFS and DFS stall once no unvisited
    vertex has a visited neighbour.  Each policy runs with a free start
    and with a fixed one it does not rank first.  Every order is validated
    as is and with one adjacent swap."""
    rng = random.Random(3008)
    for trial in range(60):
        n = rng.randint(30, 150)
        family = trial % 4
        if family == 0:
            g = fx.rand_connected_graph(rng, n, rng.uniform(0.02, 0.1))
        elif family == 1:
            g = fx.rand_chordal(rng, n, rng.uniform(0.2, 0.8))
        elif family == 2:
            g = fx.window(n, rng.randint(1, 6))
        else:
            g = _disconnected_graph(rng, n)
        policies = (LOWEST_ID, HIGHEST_ID, FixedPreference(tuple(rng.sample(range(n), n))))
        for kind in (K.BFS, K.DFS, K.LBFS, K.LDFS, K.MNS):
            if family == 3:
                orders = [_replay_order(kind, g, rng)]
            else:
                orders = []
                for policy in policies:
                    for start in (None, policy.priority(n)[rng.randrange(1, n)]):
                        order = run_search(kind, g, start=start, policy=policy)
                        assert order == reference_run_search(kind, g, start=start, policy=policy), \
                            (trial, kind, policy, start)
                        orders.append(order)
            for order in orders:
                swapped = order[:]
                i = rng.randrange(n - 1)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                for o in (order, swapped):
                    assert validate_order(kind, g, o) == reference_validate_order(kind, g, o), \
                        (trial, kind, o)


def test_refinement_kinds_need_no_more_memory_than_lbfs():
    """The traced peak of a BFS, DFS or LDFS `run_search` is at most 1.5
    times that of LBFS on a 2e4-vertex window and a sparse random graph,
    under a random preference: all four refine one linked list of the
    unvisited vertices, in O(n) state besides one entry per new class."""
    rng = random.Random(3013)
    n = 20_000
    kinds = (K.LBFS, K.BFS, K.DFS, K.LDFS)
    for g in (fx.window(n), fx.rand_sparse_connected(rng, n, 5)):
        policy = FixedPreference(tuple(rng.sample(range(n), n)))
        peak = {}
        for kind in kinds:
            gc.collect()
            tracemalloc.start()
            try:
                run_search(kind, g, policy=policy)
                peak[kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for kind in kinds[1:]:
            assert peak[kind] <= 1.5 * peak[K.LBFS], (kind, peak)


def test_run_search_and_validate_order_never_replay(monkeypatch):
    def refuse(*args):
        raise AssertionError("SearchReplay used")

    rng = random.Random(3009)
    graphs = [fx.rand_connected_graph(rng, rng.randint(2, 40)) for _ in range(10)]
    expected = {}
    for i, g in enumerate(graphs):
        for kind in ALL_KINDS:
            order = reference_run_search(kind, g)
            expected[i, kind] = order, reference_validate_order(kind, g, order[::-1])
    monkeypatch.setattr(SearchReplay, "eligible", refuse)
    monkeypatch.setattr(SearchReplay, "__init__", refuse)
    for i, g in enumerate(graphs):
        for kind in ALL_KINDS:
            order = run_search(kind, g)
            assert validate_order(kind, g, order) == (True, None)
            assert (order, validate_order(kind, g, order[::-1])) == expected[i, kind]


@pytest.mark.wallclock
def test_linear_engines_double_when_n_doubles():
    """Best of 3 `run_search` + `validate_order` times on window graphs at
    most triple from n = 2e4 to 4e4 (a quadratic engine gives about 4).
    MNS is linear here only because a window's active frontier (the
    visited vertices with an unvisited neighbour) is bounded, which keeps
    its labels, groups and maxima bounded too.  The collector is paused
    while timing: its schedule depends on the whole process's heap, not
    on the search."""
    graphs = {n: fx.window(n) for n in (20_000, 40_000)}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for kind in ALL_KINDS:
            best = dict.fromkeys(graphs, float("inf"))
            for _ in range(3):
                for n, g in graphs.items():
                    start = perf_counter()
                    verdict = validate_order(kind, g, run_search(kind, g))
                    best[n] = min(best[n], perf_counter() - start)
                    assert verdict == (True, None)
            ratio = best[40_000] / best[20_000]
            assert ratio <= 3, \
                f"{kind.value}: x{ratio:.2f} ({best[20_000]:.3f} s -> {best[40_000]:.3f} s)"
    finally:
        if was_enabled:
            gc.enable()


def _with_universal_vertex(g):
    hub = g.n // 2
    return Graph.from_edges(g.n, [*g.edges(), *((hub, v) for v in range(g.n) if v != hub)])


@pytest.mark.wallclock
def test_mns_doubles_when_n_doubles_on_sparse_graphs():
    """Best of 3 MNS `run_search` + `validate_order` times at most triple
    from n = 2000 to 4000 on random sparse graphs with average degree 5
    and 10, whose search frontier (and so the number of maximal labels)
    grows to a constant share of the vertices, and on the first with a
    universal vertex added, which every later label holds.  The collector
    is paused while timing, as above."""
    rng = random.Random(3010)
    families = {f"average degree {degree}": {n: fx.rand_sparse_connected(rng, n, degree)
                                             for n in (2000, 4000)}
                for degree in (5, 10)}
    families["a universal vertex"] = {n: _with_universal_vertex(g)
                                      for n, g in families["average degree 5"].items()}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for family, graphs in families.items():
            best = dict.fromkeys(graphs, float("inf"))
            for _ in range(3):
                for n, g in graphs.items():
                    start = perf_counter()
                    verdict = validate_order(K.MNS, g, run_search(K.MNS, g))
                    best[n] = min(best[n], perf_counter() - start)
                    assert verdict == (True, None)
            ratio = best[4000] / best[2000]
            assert ratio <= 3, \
                f"{family}: x{ratio:.2f} ({best[2000]:.3f} s -> {best[4000]:.3f} s)"
    finally:
        if was_enabled:
            gc.enable()


def test_mns_tops_heap_stays_within_twice_the_maxima():
    """At every pick of an MNS run on a 4e4-vertex random sparse graph
    (average degree 10), `_refine_picks`' `tops` heap holds at most twice
    as many entries as there are maximal labels: it is rebuilt from them
    when it outgrows that.  Without the rebuild, stale entries reached
    about three per maximum on this family."""
    g = fx.rand_sparse_connected(random.Random(3012), 40_000, 10)
    ids = list(range(g.n))
    picks = _refine_picks(g.adj, ids, ids, 0, K.MNS)
    worst = 0.0
    for count, _ in enumerate(picks, 1):
        state = picks.gi_frame.f_locals
        tops, maxima = len(state["tops"]), len(state["maxima"])
        assert tops <= 2 * maxima + 1, (count, tops, maxima)
        worst = max(worst, tops / maxima)
    assert count == g.n and worst > 1.5, (count, worst)


@pytest.mark.wallclock
def test_recognizers_double_when_n_doubles():
    """Best of 3 `recognize_interval` and `recognize_unit_interval` times at
    most triple from n = 2e4 to 4e4, on window graphs (accepted) and on a
    seeded sparse interval family (mostly refused as unit interval).  The
    collector is paused while timing, as above."""
    rng = random.Random(7001)
    families = {
        "window": {n: fx.window(n) for n in (20_000, 40_000)},
        "sparse interval": {n: fx.rand_sparse_interval(rng, n) for n in (20_000, 40_000)},
    }
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for family, graphs in families.items():
            for recognize in (recognize_interval, recognize_unit_interval):
                best = dict.fromkeys(graphs, float("inf"))
                for _ in range(3):
                    for n, g in graphs.items():
                        start = perf_counter()
                        cert = recognize(g)
                        best[n] = min(best[n], perf_counter() - start)
                        assert cert is not None or recognize is recognize_unit_interval
                ratio = best[40_000] / best[20_000]
                assert ratio <= 3, (f"{recognize.__name__} on {family}: x{ratio:.2f} "
                                    f"({best[20_000]:.3f} s -> {best[40_000]:.3f} s)")
    finally:
        if was_enabled:
            gc.enable()
