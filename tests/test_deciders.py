import random

import pytest

import fixtures as fx
from endvertex import (
    ClassMismatchError,
    DisconnectedGraphError,
    Graph,
    SearchKind,
    Verdict,
    clique_tree,
    cut_vertices,
    decide_dfs_claw_net_free,
    decide_dfs_interval,
    decide_mcs_split,
    decide_mns_chordal,
    decide_unit_interval,
    dispatch_endvertex,
    endvertex_set_exhaustive,
    hamiltonian_path,
    induced_subgraph,
    is_claw_net_free,
    is_split,
    mcs_interval_sufficient,
    recognize_chordal,
    recognize_interval,
    recognize_split,
    recognize_unit_interval,
)
import endvertex.deciders as deciders
from endvertex.deciders import _outside_component_neighborhoods
from endvertex.recognize import SplitPartition, validate_split_partition

K = SearchKind


def test_mns_chordal_examples():
    g, nm = fx.split_example()
    assert decide_mns_chordal(g, nm["v"])
    right, nmr = fx.interval_pair_right()
    assert decide_mns_chordal(right, nmr["t"])
    assert not decide_mns_chordal(fx.path(3), 1)
    with pytest.raises(ClassMismatchError):
        decide_mns_chordal(fx.cycle(4), 0)
    with pytest.raises(DisconnectedGraphError):
        decide_mns_chordal(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)


def test_mcs_split_examples():
    g, nm = fx.split_example()
    assert not decide_mcs_split(g, nm["v"])
    assert decide_mcs_split(g, nm["6"])
    assert nm["6"] in endvertex_set_exhaustive(g, K.MCS)
    star = fx.star(3)
    assert decide_mcs_split(star, 1)
    with pytest.raises(ClassMismatchError):
        decide_mcs_split(fx.cycle(4), 0)


def test_unit_interval_examples():
    p4 = fx.path(4)
    assert decide_unit_interval(p4, 0)
    assert not decide_unit_interval(p4, 1)
    g, nm = fx.unit_interval_example()
    assert decide_unit_interval(g, nm["a"])
    assert decide_unit_interval(g, nm["e"])
    assert not decide_unit_interval(g, nm["d"])
    k3 = fx.clique(3)
    assert all(decide_unit_interval(k3, t) for t in range(3))
    with pytest.raises(ClassMismatchError):
        decide_unit_interval(fx.claw(), 0)


def test_dfs_claw_net_free_examples():
    p4 = fx.path(4)
    assert decide_dfs_claw_net_free(p4, 0)
    assert not decide_dfs_claw_net_free(p4, 1)
    c5 = fx.cycle(5)
    assert all(decide_dfs_claw_net_free(c5, t) for t in range(5))
    with pytest.raises(ClassMismatchError):
        decide_dfs_claw_net_free(fx.claw(), 0)


def test_deciders_refuse_graphs_outside_their_class():
    """A decider never answers for the wrong class."""
    # Chordal and not unit interval; dispatch finds 0 is an MNS, MCS and
    # LDFS end-vertex.
    g5 = Graph.from_edges(5, [(0, 1), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4)])
    assert all(0 in endvertex_set_exhaustive(g5, kind) for kind in (K.MNS, K.MCS, K.LDFS))
    with pytest.raises(ClassMismatchError):
        decide_unit_interval(g5, 0)
    # Not claw-net-free, and 2 is no DFS end-vertex although it is no
    # cut vertex.
    g8 = Graph.from_edges(8, [(0, 2), (0, 6), (1, 4), (2, 5), (2, 7), (3, 6), (4, 5), (4, 6),
                              (5, 6), (6, 7)])
    assert 2 not in endvertex_set_exhaustive(g8, K.DFS)
    with pytest.raises(ClassMismatchError):
        decide_dfs_claw_net_free(g8, 2)


# Public decider -> (its class check, the kinds whose end-vertices it decides).
_DECIDERS = (
    (decide_mns_chordal, recognize_chordal, (K.MNS,)),
    (decide_mcs_split, is_split, (K.MCS,)),
    (decide_unit_interval, recognize_unit_interval, (K.MNS, K.MCS, K.LDFS)),
    (decide_dfs_claw_net_free, is_claw_net_free, (K.DFS,)),
    (decide_dfs_interval, recognize_interval, (K.DFS,)),
)


def test_public_deciders_refuse_exactly_when_their_class_check_fails():
    rng = random.Random(6007)
    for trial in range(300):
        n = rng.randint(1, 9)
        g = (fx.rand_connected_graph if trial % 2 else fx.rand_chordal)(rng, n)
        for decide, check, kinds in _DECIDERS:
            if not check(g):
                for t in range(n):
                    with pytest.raises(ClassMismatchError):
                        decide(g, t)
                continue
            decided = frozenset(t for t in range(n) if decide(g, t))
            for kind in kinds:
                assert decided == endvertex_set_exhaustive(g, kind), (
                    f"trial {trial}: {decide.__name__} against {kind.value}")


def test_dfs_interval_examples():
    left, nm = fx.interval_pair_left()
    assert decide_dfs_interval(left, nm["t"])
    assert nm["t"] in endvertex_set_exhaustive(left, K.DFS)
    jump, nmj = fx.mcs_jump_example()
    assert decide_dfs_interval(jump, nmj["t"])
    assert nmj["t"] in endvertex_set_exhaustive(jump, K.DFS)
    assert not decide_dfs_interval(fx.claw(), 0)
    # A cut vertex's G[N(t)] is disconnected: No.  A fan's hub sees a
    # path, so it is an end-vertex at any size.
    assert not decide_dfs_interval(fx.star(21), 0)
    assert decide_dfs_interval(_fan(22), 0)


def _fan(n):
    """Hub 0 adjacent to every vertex of the path 1..n-1."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


def test_dfs_interval_refuses_a_graph_without_a_clique_path():
    c4 = fx.cycle(4)
    assert recognize_interval(c4) is None
    assert 0 in endvertex_set_exhaustive(c4, K.DFS)
    with pytest.raises(ClassMismatchError):
        decide_dfs_interval(c4, 0)


def test_dfs_interval_answers_a_large_fan_without_the_oracle(monkeypatch):
    fan = _fan(20_000)
    assert decide_dfs_interval(fan, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr(deciders, "is_endvertex_exhaustive", refuse)
    res = dispatch_endvertex(fan, 0, K.DFS, class_hint="interval")
    assert res.verdict is Verdict.YES and res.method == "interval DFS characterization"
    assert dispatch_endvertex(fan, 0, K.DFS).verdict is Verdict.YES


def test_dfs_interval_matches_the_oracle_on_sparse_interval_graphs():
    rng = random.Random(6002)
    for trial in range(150):
        g = fx.rand_sparse_interval(rng, rng.randint(2, 9))
        exact = endvertex_set_exhaustive(g, K.DFS)
        for t in range(g.n):
            assert decide_dfs_interval(g, t) == (t in exact), f"sparse interval trial {trial}, t={t}"


def test_unit_interval_example_matches_three_oracles():
    g, nm = fx.unit_interval_example()
    for kind in (K.MNS, K.MCS, K.LDFS):
        exact = endvertex_set_exhaustive(g, kind)
        assert nm["a"] in exact and nm["e"] in exact and nm["d"] not in exact
        for t in range(g.n):
            assert decide_unit_interval(g, t) == (t in exact)


def _checked_path(g, order, vertices):
    """hamiltonian_path's answer, checked against the brute force on the
    induced subgraph; a returned path must be one."""
    keep = sorted(vertices)
    got = hamiltonian_path(g, order, vertices)
    sub, _ = induced_subgraph(g, keep)
    assert (got is None) == (fx.brute_hamiltonian_path(sub) is None), (sorted(g.edges()), keep)
    if got is not None:
        assert sorted(got) == keep
        assert all(g.has_edge(got[i], got[i + 1]) for i in range(len(got) - 1))


def test_hamiltonian_path():
    p4 = fx.path(4)
    assert hamiltonian_path(p4, recognize_interval(p4), range(4)) in ([0, 1, 2, 3], [3, 2, 1, 0])
    for vertices, bad in (([5], 5), ([-1], -1), ([0, 7], 7), ([-2, 1, 9], -2)):
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range$"):
            hamiltonian_path(p4, recognize_interval(p4), vertices)
    claw = fx.claw()
    assert hamiltonian_path(claw, recognize_interval(claw), range(4)) is None
    k4 = fx.clique(4)
    assert sorted(hamiltonian_path(k4, recognize_interval(k4), range(4))) == [0, 1, 2, 3]
    p25 = fx.path(25)
    assert hamiltonian_path(p25, recognize_interval(p25), range(25)) in (list(range(25)), list(range(24, -1, -1)))
    rng = random.Random(6001)
    for family in (fx.rand_interval, fx.rand_sparse_interval):
        for _ in range(150):
            g = family(rng, rng.randint(1, 9))
            order = recognize_interval(g)
            _checked_path(g, order, range(g.n))
            for t in range(g.n):
                # G's clique path restricted to N(t) models G[N(t)].
                _checked_path(g, order, g.adj[t])


def test_mcs_interval_sufficient_examples():
    left, nm = fx.interval_pair_left()
    order = recognize_interval(left)
    assert mcs_interval_sufficient(left, order, nm["t"]) is Verdict.YES
    # First-clique branch: an end clique's simplicial vertex is always YES.
    first = order.cliques[0]
    simp = next(v for v in first if len(left.adj[v]) == 1)
    assert mcs_interval_sufficient(left, order, simp) is Verdict.YES
    jump, nmj = fx.mcs_jump_example()
    jorder = recognize_interval(jump)
    assert mcs_interval_sufficient(jump, jorder, nmj["t"]) is Verdict.UNKNOWN
    with pytest.raises(ValueError):
        mcs_interval_sufficient(left, jorder, nm["t"])


def test_mcs_interval_sufficient_is_sound():
    """YES never contradicts the exhaustive oracle."""
    rng = random.Random(6002)
    for _ in range(80):
        g = fx.rand_interval(rng, rng.randint(2, 8))
        order = recognize_interval(g)
        exact = endvertex_set_exhaustive(g, K.MCS)
        for t in range(g.n):
            if mcs_interval_sufficient(g, order, t) is Verdict.YES:
                assert t in exact


def test_decider_oracle_agreement_quick():
    rng = random.Random(6003)
    for _ in range(40):
        g = fx.rand_split(rng, rng.randint(2, 8))
        exact = endvertex_set_exhaustive(g, K.MCS)
        for t in range(g.n):
            assert decide_mcs_split(g, t) == (t in exact)
    for _ in range(150):
        g = fx.rand_chordal(rng, rng.randint(1, 8), q=rng.choice((0.2, 0.5, 0.8)))
        exact = endvertex_set_exhaustive(g, K.MNS)
        for t in range(g.n):
            assert decide_mns_chordal(g, t) == (t in exact)
            res = dispatch_endvertex(g, t, K.MNS, class_hint="chordal")
            assert (res.verdict is Verdict.YES) == (t in exact)


def test_dispatch_examples():
    g5, nm5 = fx.split_example()
    res = dispatch_endvertex(g5, nm5["v"], K.MCS)
    assert res.verdict is Verdict.NO and res.method == "split MCS characterization"
    assert "incomparable" in res.detail

    g7, nm7 = fx.unit_interval_example()
    res = dispatch_endvertex(g7, nm7["a"], K.LDFS)
    assert res.verdict is Verdict.YES and res.method == "unit-interval characterization"

    right, nmr = fx.interval_pair_right()
    res = dispatch_endvertex(right, nmr["t"], K.MCS)
    assert res.verdict is Verdict.NO and res.method == "exhaustive oracle"
    assert "interval" in res.classes and "unit-interval" not in res.classes
    assert "open" in res.detail or "characterization" in res.detail

    res = dispatch_endvertex(right, nmr["t"], K.MCS, oracle_guard=4)
    assert res.verdict is Verdict.UNKNOWN


def test_dispatch_honours_a_raised_oracle_guard():
    """An explicit oracle_guard is passed through for every kind; the
    default stays the oracle's per-kind guard (12 for BFS)."""
    g = fx.path(13)
    res = dispatch_endvertex(g, 0, K.BFS, oracle_guard=13)
    assert res.verdict is Verdict.YES and res.method == "exhaustive oracle"
    assert dispatch_endvertex(g, 0, K.BFS).verdict is Verdict.UNKNOWN


def test_auto_detection_certifies_split_with_a_partition(monkeypatch):
    """Auto MCS on a split graph answers by the split characterization,
    on a split certificate that is a SplitPartition and validates."""
    original = deciders.recognize_split
    partitions = []

    def recording(g):
        partitions.append(original(g))
        return partitions[-1]

    monkeypatch.setattr(deciders, "recognize_split", recording)
    rng = random.Random(4107)
    for _ in range(30):
        g = fx.rand_split(rng, rng.randint(2, 9))
        partitions.clear()
        res = dispatch_endvertex(g, 0, K.MCS)
        assert "split" in res.classes and res.method == "split MCS characterization"
        (part,) = partitions
        assert isinstance(part, SplitPartition) and validate_split_partition(g, part)


def test_dispatch_recognizes_only_what_the_kind_uses():
    """Every class but split holds on a window graph (i ~ j iff
    |i - j| <= 3), so the classes an auto query establishes are exactly
    the recognizers its kind ran (chordal gating unit interval), plus
    claw-net-free, which the unit interval order settles."""
    n = 30
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, min(i + 4, n))])
    expected = {
        K.MNS: ("chordal",),
        K.GENERIC: (), K.BFS: (), K.LBFS: (),
        K.LDFS: ("chordal", "unit-interval"),
        K.MCS: ("chordal", "unit-interval"),
        K.DFS: ("chordal", "claw-net-free", "unit-interval"),
    }
    for kind in SearchKind:
        assert dispatch_endvertex(g, 0, kind).classes == expected[kind], kind


def test_auto_interval_recognition_reuses_the_chordal_peo(monkeypatch):
    """Auto MCS and DFS read the interval clique tree off chordal
    recognition's MCS pass: one maximum cardinality search per query on
    interval graphs that are neither split nor unit interval, the ones
    where MCS and DFS ask for interval."""
    import endvertex.chordal as chordal

    calls = []
    original = chordal._mcs_pass

    def counted(g, *args):
        calls.append(g)
        return original(g, *args)

    rng = random.Random(4108)
    graphs = []
    while len(graphs) < 10:
        g = fx.rand_interval(rng, 12)
        if not is_split(g) and recognize_unit_interval(g) is None:
            graphs.append(g)
    monkeypatch.setattr(chordal, "_mcs_pass", counted)
    for g in graphs:
        for kind in (K.MCS, K.DFS):
            calls.clear()
            res = dispatch_endvertex(g, 0, kind)
            assert res.classes == ("chordal", "interval") and len(calls) == 1, (kind, res)


def test_auto_dispatch_answers_on_stars_and_spiders():
    """On the star K1,10 (interval, not unit interval) and on spiders that
    are not interval, auto LDFS and MCS recognize no usable class, fall
    back to the oracle and agree with it."""
    for g, kinds in ((fx.star(10), (K.LDFS,)),
                     (fx.spider((3, 4, 4)), (K.MCS, K.LDFS)),
                     (fx.spider((3, 3, 4)), (K.MCS, K.LDFS))):
        for kind in kinds:
            exact = endvertex_set_exhaustive(g, kind)
            for t in range(g.n):
                res = dispatch_endvertex(g, t, kind)
                assert res.method == "exhaustive oracle"
                assert (res.verdict is Verdict.YES) == (t in exact), (kind, t)


def test_auto_dfs_answers_on_a_large_clique():
    """K_300 is unit interval, so its unit interval order settles
    claw-net-freeness and the cubic check never runs."""
    g = fx.clique(300)
    res = dispatch_endvertex(g, 0, K.DFS)
    assert res.verdict is Verdict.YES and res.method == "cut-vertex characterization"


def test_auto_dfs_skips_the_claw_net_check_on_unit_interval_graphs(monkeypatch):
    """Two 500-cliques sharing vertex 499 are unit interval, so the cubic
    check, which does cubic work at the shared vertex, never runs."""
    calls = fx.count_calls(monkeypatch, "is_claw_net_free")
    g = fx.two_cliques(500)
    assert dispatch_endvertex(g, 0, K.DFS).verdict is Verdict.YES
    res = dispatch_endvertex(g, 499, K.DFS)
    assert res.verdict is Verdict.NO and res.method == "cut-vertex characterization"
    assert calls == []


def test_auto_ldfs_and_mcs_skip_interval_recognition_on_unit_interval_graphs(monkeypatch):
    calls = fx.count_calls(monkeypatch, "_interval_from_pass")
    g = fx.window(2000)
    for kind in (K.LDFS, K.MCS):
        assert dispatch_endvertex(g, 0, kind).method == "unit-interval characterization"
    assert calls == []


def test_auto_dfs_gates_unit_interval_on_chordality(monkeypatch):
    """C_6 is not chordal, so the unit interval sweeps never run and the
    claw-net check runs once."""
    sweeps = fx.count_calls(monkeypatch, "recognize_unit_interval")
    checks = fx.count_calls(monkeypatch, "is_claw_net_free")
    res = dispatch_endvertex(fx.cycle(6), 0, K.DFS)
    assert res.verdict is Verdict.YES and res.classes == ("claw-net-free",)
    assert sweeps == [] and len(checks) == 1


def test_every_class_a_class_implies_passes_its_own_recognizer():
    """The class table skips a recognizer when an established class
    implies its class, so each `_IMPLIES` entry must hold: over the six
    random families, windows and two cliques sharing a vertex, an implied
    class passes its own recognizer, and the table answers as the
    recognizers do."""
    rng = random.Random(1616)
    families = (fx.rand_connected_graph, fx.rand_chordal, fx.rand_split, fx.rand_interval,
                fx.rand_unit_interval, fx.rand_claw_net_free)
    graphs = [family(rng, rng.randint(1, 12)) for family in families for _ in range(50)]
    graphs += [fx.window(n, w) for n in (2, 7, 12, 40) for w in (1, 2, 4)]
    graphs += [fx.two_cliques(k) for k in (1, 2, 3, 8, 30)]

    standalone = {"chordal": recognize_chordal, "split": recognize_split,
                  "interval": recognize_interval, "unit-interval": recognize_unit_interval}

    def recognized(g, cls):
        if cls == "claw-net-free":
            return is_claw_net_free(g)
        return standalone[cls](g) is not None

    fired = set()
    for g in graphs:
        holds, _ = deciders._class_table(g)
        for cls in ("chordal", "split", "interval", "unit-interval", "claw-net-free"):
            assert (holds(cls) is not None) == recognized(g, cls), (cls, sorted(g.edges()))
        for cls, implied in deciders._IMPLIES.items():
            if recognized(g, cls):
                for other in implied:
                    assert recognized(g, other), (cls, other, sorted(g.edges()))
                    fired.add((cls, other))
    assert fired == {(c, o) for c, implied in deciders._IMPLIES.items() for o in implied}


def test_rows_that_read_their_certificate_never_get_true(monkeypatch):
    """Under a hint, implied classes hold True in place of a certificate;
    only `_ROUTES`' row order keeps True away from the rows that read
    their certificate.  Every hint x kind over the six random families,
    windows and two cliques sharing a vertex (the oracle is off)."""
    seen = set()

    def wrapped(name, characterization):
        def row(g, t, cert, name_of=str):
            assert cert is not True, (name, sorted(g.edges()), t)
            seen.add(name)
            return characterization(g, t, cert, name_of)
        return row

    readers = {deciders._unit_interval, deciders._dfs_interval, deciders._mcs_interval}
    for kind, rows in deciders._ROUTES.items():
        monkeypatch.setitem(deciders._ROUTES, kind, tuple(
            (cls, method, wrapped(f.__name__, f) if f in readers else f)
            for cls, method, f in rows))
    rng = random.Random(1818)
    families = (fx.rand_connected_graph, fx.rand_chordal, fx.rand_split, fx.rand_interval,
                fx.rand_unit_interval, fx.rand_claw_net_free)
    graphs = [family(rng, rng.randint(1, 10)) for family in families for _ in range(20)]
    graphs += [fx.window(n, w) for n in (2, 7, 12) for w in (1, 2, 4)]
    graphs += [fx.two_cliques(k) for k in (1, 2, 3, 8)]
    for g in graphs:
        for hint in deciders._HINTS:
            for kind in SearchKind:
                for t in {0, g.n - 1}:
                    try:
                        dispatch_endvertex(g, t, kind, class_hint=hint, oracle_guard=0)
                    except ClassMismatchError:
                        pass
    assert seen == {f.__name__ for f in readers}


def test_auto_mcs_on_a_large_interval_graph_gives_the_interval_row_reason():
    """Above the oracle guard, auto MCS on an interval graph that is
    neither split nor unit interval is UNKNOWN, with the interval row's
    reason, wherever its sufficient condition fails."""
    g = fx.rand_interval(random.Random(1819), 20)
    results = [dispatch_endvertex(g, t, K.MCS) for t in range(g.n)]
    unknown = [res for res in results if res.verdict is Verdict.UNKNOWN]
    assert unknown
    for res in results:
        assert res.classes == ("chordal", "interval")
        if res.verdict is Verdict.UNKNOWN:
            assert res.method == "none"
            assert res.detail == "MCS on general interval graphs has no full characterization in scope"
        else:
            assert res.verdict is Verdict.YES and res.method == "interval MCS sufficient condition"


def test_dispatch_verifies_class_hints():
    with pytest.raises(ClassMismatchError):
        dispatch_endvertex(fx.cycle(4), 0, K.MNS, class_hint="chordal")
    g, nm = fx.split_example()
    res = dispatch_endvertex(g, nm["v"], K.MNS, class_hint="split")
    assert res.verdict is Verdict.YES


def test_dispatch_agrees_with_oracle_across_kinds():
    """Every kind, auto-detected and under the hint of each fixture
    family's class (claw-net-free has no hint)."""
    rng = random.Random(6004)
    families = (
        (lambda n: fx.rand_connected_graph(rng, n), None),
        (lambda n: fx.rand_chordal(rng, n, q=rng.choice((0.2, 0.5, 0.8))), "chordal"),
        (lambda n: fx.rand_split(rng, n), "split"),
        (lambda n: fx.rand_interval(rng, n), "interval"),
        (lambda n: fx.rand_unit_interval(rng, n), "unit-interval"),
        (lambda n: fx.rand_claw_net_free(rng, n), None),
    )
    for make, hint in families:
        for _ in range(25):
            g = make(rng.randint(2, 8))
            for kind in SearchKind:
                exact = endvertex_set_exhaustive(g, kind)
                for t in range(g.n):
                    for h in dict.fromkeys((None, hint)):
                        res = dispatch_endvertex(g, t, kind, class_hint=h)
                        if res.verdict is Verdict.UNKNOWN:
                            continue
                        assert (res.verdict is Verdict.YES) == (t in exact), (
                            f"kind={kind} t={t} hint={h} method={res.method}")


def test_empty_remainder_counts_as_connected():
    k4 = fx.clique(4)
    for t in range(4):
        assert decide_unit_interval(k4, t)


def test_cut_vertex_never_ends_any_search():
    rng = random.Random(6005)
    for _ in range(20):
        g = fx.rand_connected_graph(rng, rng.randint(3, 8))
        cuts = cut_vertices(g)
        for kind in SearchKind:
            ends = endvertex_set_exhaustive(g, kind)
            assert not (ends & cuts)


def test_component_neighborhoods_are_the_separators_inside_n_t():
    """For every t, simplicial or not, the sets N(C) over the components
    C of G - N[t] are exactly the clique-tree edge separators inside
    N(t), i.e. the minimal separators there."""
    rng = random.Random(6006)
    targets = 0
    for _ in range(2000):
        n = rng.randint(1, 40)
        g = fx.rand_chordal(rng, n, q=rng.choice((0.2, 0.5, 0.8)))
        _, tree_edges = clique_tree(g)
        for t in range(n):
            expected = {sep for _, _, sep in tree_edges if sep and sep <= g.adj[t]}
            assert set(_outside_component_neighborhoods(g, t)) == expected, (n, t)
            targets += 1
    assert targets > 30000


def test_mns_chordal_detail_is_deterministic():
    # t = 0 sees 1 and 2; the leaves 3 (on 1) and 4 (on 2) give the
    # incomparable separators {1} and {2}, reported smallest member first.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    res = dispatch_endvertex(g, 0, K.MNS, class_hint="chordal")
    assert res.verdict is Verdict.NO
    assert res.detail == "minimal separators {1} and {2} inside N(0) are inclusion-incomparable"


def test_mns_chordal_no_details_name_incomparable_separators():
    """Every chordal MNS NO past the simplicial test names two sets N(C),
    C a component of G - N[t], neither inside the other."""
    rng = random.Random(6007)
    named = 0
    for _ in range(400):
        n = rng.randint(1, 40)
        g = fx.rand_chordal(rng, n, q=rng.choice((0.2, 0.5, 0.8)))
        for t in range(n):
            res = dispatch_endvertex(g, t, K.MNS, class_hint="chordal")
            if res.verdict is Verdict.YES or res.detail.endswith("is not simplicial"):
                continue
            a, b = (frozenset(map(int, part.strip("{}").split(",")))
                    for part in res.detail.split(" inside ")[0].split(" ", 2)[2].split(" and "))
            closed = g.adj[t] | {t}
            separators = {frozenset(w for v in comp for w in g.adj[v]) & g.adj[t]
                          for comp in fx.brute_components_without(g, closed)}
            assert a in separators and b in separators and not (a <= b or b <= a), (n, t)
            named += 1
    assert named > 100


def test_unit_interval_characterization_reads_the_order():
    """On random unit interval graphs (n <= 40, vertices shuffled, twin
    blocks frequent), the characterization read off a unit interval order
    or its reverse agrees with a brute-force simplicial test and a count of
    the components of G - N[t], detail included."""
    rng = random.Random(6008)
    for _ in range(400):
        n = rng.randint(1, 40)
        base = fx.rand_unit_interval(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in base.edges()])
        order = recognize_unit_interval(g)
        for t in range(n):
            if not fx.brute_is_simplicial(g, t):
                want = (False, f"vertex {t} is not simplicial")
            elif len(fx.brute_components_without(g, g.adj[t] | {t})) > 1:
                want = (False, f"G - N[{t}] is disconnected")
            else:
                want = (True, None)
            for o in (order, order[::-1]):
                assert deciders._unit_interval(g, t, o) == want, (n, t, o)


def test_interval_hinted_dfs_checks_connectivity_and_runs_mcs_once(monkeypatch):
    """An interval-hinted DFS query, through dispatch and through
    `decide_dfs_interval`, runs one connectivity check and one maximum
    cardinality search: interval recognition leaves connectivity to the
    search inside `clique_tree`."""
    import endvertex.chordal as chordal
    import endvertex.graph as graph

    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    connected = counting("is_connected", graph.is_connected)
    for module in (graph, deciders):
        monkeypatch.setattr(module, "is_connected", connected)
    monkeypatch.setattr(chordal, "_mcs_pass", counting("_mcs_pass", chordal._mcs_pass))
    g = fx.rand_interval(random.Random(6009), 30)
    t = max(range(g.n), key=lambda v: len(g.adj[v]))
    for query in (lambda: dispatch_endvertex(g, t, K.DFS, class_hint="interval").verdict,
                  lambda: decide_dfs_interval(g, t)):
        calls.clear()
        query()
        assert sorted(calls) == ["_mcs_pass", "is_connected"]
