"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run pytest with -s or -v to see them).

Criteria 5-10 are quantified over seeded random instance families with
zero tolerance; criterion 11 checks the empirically-linear runtime
contracts of the four linear deciders between n = 1e5 and n = 1e6.
"""

import gc
import math
import random
import sys
import time
from itertools import product

import pytest

import endvertex
import fixtures as fx
from endvertex import (
    ClassMismatchError,
    CnfFormula,
    DisconnectedGraphError,
    SearchKind,
    SeededRandom,
    Verdict,
    build_mcs_gadget,
    build_mns_gadget,
    cut_vertices,
    decide_dfs_claw_net_free,
    decide_dfs_interval,
    decide_mcs_split,
    decide_mns_chordal,
    decide_unit_interval,
    dispatch_endvertex,
    endvertex_set_exhaustive,
    is_connected,
    is_endvertex_exhaustive,
    is_simplicial,
    mcs_gadget_edge_count,
    mcs_interval_sufficient,
    mcs_order,
    mns_gadget_edge_count,
    randomized_endvertex_probe,
    recognize_chordal,
    recognize_split,
    run_search,
    sat_bruteforce,
    unit_interval_order_ending_at,
    validate_order,
    validate_split_partition,
    witness_order_mcs,
)
from endvertex.graph import Graph
from reference import enumerate_clique_orders, is_weakly_chordal_desk, terminal_orders_exhaustive

K = SearchKind


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.2f}s, budget {self.seconds}s")
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


def test_criterion_01_bfs_trap_fixture():
    with _Budget("1 (BFS trap fixture)", 1.0):
        g, nm = fx.bfs_trap()
        ends = endvertex_set_exhaustive(g, K.BFS, start=nm["s"])
        assert nm["t"] not in ends


def test_criterion_02_split_fixture_deciders_vs_oracle():
    with _Budget("2 (split-example deciders vs oracle)", 1.0):
        g, nm = fx.split_example()
        v = nm["v"]
        assert decide_mns_chordal(g, v) is True
        assert decide_mcs_split(g, v) is False
        assert v in endvertex_set_exhaustive(g, K.MNS)
        assert v not in endvertex_set_exhaustive(g, K.MCS)


def test_criterion_03_unit_interval_validation_matrix():
    with _Budget("3 (search-order validation matrix)", 1.0):
        g, nm = fx.unit_interval_example()
        o = lambda *names: [nm[x] for x in names]
        assert validate_order(K.MCS, g, o("b", "c", "d", "a", "e")) == (True, None)
        assert validate_order(K.LDFS, g, o("b", "c", "d", "a", "e"))[0] is False
        assert validate_order(K.LDFS, g, o("b", "c", "d", "e", "a")) == (True, None)
        assert validate_order(K.MCS, g, o("b", "c", "d", "e", "a"))[0] is False
        assert validate_order(K.MNS, g, o("d", "b", "c", "e", "a")) == (True, None)
        assert validate_order(K.MCS, g, o("d", "b", "c", "e", "a"))[0] is False
        assert validate_order(K.LDFS, g, o("d", "b", "c", "e", "a"))[0] is False


def test_criterion_04_interval_fixtures():
    with _Budget("4 (interval fixtures: MCS jumps)", 10.0):
        left, nml = fx.interval_pair_left()
        t = nml["t"]
        ok, witness = is_endvertex_exhaustive(left, K.MCS, t)
        assert ok and validate_order(K.MCS, left, witness) == (True, None)
        assert len(fx.brute_components_without(left, left.closed_neighborhood(t))) > 1

        right, nmr = fx.interval_pair_right()
        rt = nmr["t"]
        assert is_endvertex_exhaustive(right, K.MNS, rt)[0]
        assert not is_endvertex_exhaustive(right, K.MCS, rt)[0]

        jump, nmj = fx.mcs_jump_example()
        jt = nmj["t"]
        ok, witness = is_endvertex_exhaustive(jump, K.MCS, jt)
        assert ok and validate_order(K.MCS, jump, witness) == (True, None)
        orders = list(enumerate_clique_orders(jump))
        assert orders, "the fixture is an interval graph"
        for order in orders:
            assert mcs_interval_sufficient(jump, order, jt) is Verdict.UNKNOWN


def test_criterion_05_unit_interval_equivalence():
    """On unit interval graphs the MNS, MCS and LDFS end-vertex sets
    coincide and match both the simplicial-plus-connected-remainder
    formula and the unit-interval-order-ending-at-t set."""
    with _Budget("5 (three-way end-vertex equivalence, 200 graphs)", 60.0):
        rng = random.Random(95001)
        for trial in range(200):
            n = rng.randint(2, 9)
            g = fx.rand_unit_interval(rng, n)
            assert is_connected(g)
            mns = endvertex_set_exhaustive(g, K.MNS)
            mcs = endvertex_set_exhaustive(g, K.MCS)
            ldfs = endvertex_set_exhaustive(g, K.LDFS)
            decided = frozenset(t for t in range(n) if decide_unit_interval(g, t))
            order_last = frozenset(
                t for t in range(n) if unit_interval_order_ending_at(g, t) is not None)
            assert mns == mcs == ldfs == decided == order_last, f"trial {trial}"


def test_criterion_06_split_and_chordal_decider_agreement():
    with _Budget("6 (split/chordal decider vs oracle, 200+200)", 120.0):
        rng = random.Random(95002)
        for trial in range(200):
            g = fx.rand_split(rng, rng.randint(2, 9))
            exact = endvertex_set_exhaustive(g, K.MCS)
            for t in range(g.n):
                assert decide_mcs_split(g, t) == (t in exact), f"split trial {trial}, t={t}"
        for trial in range(200):
            g = fx.rand_chordal(rng, rng.randint(2, 9))
            exact = endvertex_set_exhaustive(g, K.MNS)
            for t in range(g.n):
                assert decide_mns_chordal(g, t) == (t in exact), f"chordal trial {trial}, t={t}"


def test_criterion_07_dfs_decider_agreement():
    with _Budget("7 (DFS deciders vs oracle, 200+200)", 120.0):
        rng = random.Random(95003)
        for trial in range(200):
            g = fx.rand_interval(rng, rng.randint(2, 9))
            exact = endvertex_set_exhaustive(g, K.DFS)
            for t in range(g.n):
                assert decide_dfs_interval(g, t) == (t in exact), f"interval trial {trial}, t={t}"
        for trial in range(200):
            g = fx.rand_claw_net_free(rng, rng.randint(2, 9))
            exact = endvertex_set_exhaustive(g, K.DFS)
            cuts = cut_vertices(g)
            for t in range(g.n):
                assert (t not in cuts) == (t in exact), f"claw/net trial {trial}, t={t}"


def test_criterion_08_mns_reduction_round_trip():
    """Satisfiability round trip through the MNS gadget, plus weak
    chordality and the structural necessities: in every enumerated
    t-terminal MNS order (capped at 200 per gadget), b precedes all
    clause vertices, s precedes b, and the first k+1 vertices are s plus
    one literal per variable.

    Note: with three distinct variables per clause, at least 8 clauses
    are needed for unsatisfiability, so every instance inside the
    2k + l + 3 <= 16 budget is satisfiable; the round trip still checks
    the equivalence on both sides, and the unsatisfiable direction is
    exercised at n = 17 in test_reduction.py.
    """
    with _Budget("8 (MNS reduction round trip, 50 instances)", 600.0):
        rng = random.Random(95004)
        for trial in range(50):
            k = rng.randint(3, 5)
            l = rng.randint(1, 13 - 2 * k)
            cnf = fx.rand_cnf(rng, k, l)
            art = build_mns_gadget(cnf)
            g = art.graph
            assert g.n == 2 * k + l + 3 <= 16
            assert g.m == mns_gadget_edge_count(k, l)
            assert is_weakly_chordal_desk(g)
            sat = sat_bruteforce(cnf) is not None
            ok, witness = is_endvertex_exhaustive(g, K.MNS, art.target)
            assert ok == sat, f"round trip failed on trial {trial}"
            if ok:
                assert validate_order(K.MNS, g, witness) == (True, None)
            by_role = {r: v for v, r in art.roles.items()}
            s = by_role[("s",)]
            b = by_role[("b",)]
            clause_ids = {by_role[("clause", j)] for j in range(1, l + 1)}
            literal_pairs = [(by_role[("literal", i, True)], by_role[("literal", i, False)])
                             for i in range(1, k + 1)]
            enumerated = 0
            for order in terminal_orders_exhaustive(g, K.MNS, art.target, limit=200):
                enumerated += 1
                pos = {v: i for i, v in enumerate(order)}
                assert all(pos[b] < pos[c] for c in clause_ids)
                assert pos[s] < pos[b]
                head = set(order[: k + 1])
                assert s in head
                for x, nx in literal_pairs:
                    assert (x in head) != (nx in head)
            assert enumerated >= (1 if sat else 0)
            if sat:
                assert enumerated >= 1


def test_criterion_09_mcs_reduction():
    """Satisfiable instances (k <= 4) yield validating MCS witnesses
    ending at t; ten unsatisfiable instances show zero probe hits in
    10^4 seeded trials each.

    The exhaustive converse is NOT checked: the gadget has 48k + 3l - 25
    vertices (>= 119), far beyond any enumeration guard, so the
    unsatisfiable direction rests on the deterministic seeded probe.
    """
    with _Budget("9 (MCS reduction: witnesses + unsat probes)", 300.0):
        rng = random.Random(95005)
        # Satisfiable side: the running 3-clause example plus random ones.
        sat_instances = [CnfFormula(4, (
            ((1, False), (2, True), (3, False)),
            ((1, True), (3, False), (4, True)),
            ((1, False), (3, False), (4, False)),
        ))]
        while len(sat_instances) < 5:
            cnf = fx.rand_cnf(rng, rng.randint(3, 4), rng.randint(1, 6))
            if sat_bruteforce(cnf) is not None:
                sat_instances.append(cnf)
        for cnf in sat_instances:
            assignment = sat_bruteforce(cnf)
            art = build_mcs_gadget(cnf)
            assert art.graph.n == 48 * cnf.variable_count + 3 * cnf.clause_count - 25
            assert art.graph.m == mcs_gadget_edge_count(cnf.variable_count, cnf.clause_count)
            order = witness_order_mcs(cnf, assignment)
            assert order[-1] == art.target
            assert validate_order(K.MCS, art.graph, order) == (True, None)
        # Unsatisfiable side: full sign-pattern cores over a 3-variable
        # subset (unsatisfiable by construction), optional noise clauses.
        unsat_instances = []
        while len(unsat_instances) < 10:
            k = rng.choice((3, 4))
            core_vars = sorted(rng.sample(range(1, k + 1), 3))
            clauses = [tuple((v, s) for v, s in zip(core_vars, signs))
                       for signs in product((True, False), repeat=3)]
            for _ in range(rng.randint(0, 2)):
                vars_ = rng.sample(range(1, k + 1), 3)
                clauses.append(tuple((v, rng.random() < 0.5) for v in vars_))
            rng.shuffle(clauses)
            cnf = CnfFormula(k, tuple(clauses))
            assert sat_bruteforce(cnf) is None
            unsat_instances.append(cnf)
        for idx, cnf in enumerate(unsat_instances):
            art = build_mcs_gadget(cnf)
            hits = randomized_endvertex_probe(art.graph, K.MCS, art.target,
                                              trials=10_000, seed=424200 + idx)
            assert hits == 0, f"unsat instance {idx} hit t {hits} times"


def test_criterion_10_hierarchy_suite():
    with _Budget("10 (search hierarchy, 500 graphs)", 60.0):
        rng = random.Random(95006)
        contained_in = {
            K.LBFS: (K.BFS, K.MNS, K.GENERIC),
            K.LDFS: (K.DFS, K.MNS, K.GENERIC),
            K.MCS: (K.MNS, K.GENERIC),
            K.BFS: (K.GENERIC,),
            K.DFS: (K.GENERIC,),
            K.MNS: (K.GENERIC,),
        }
        for trial in range(500):
            g = fx.rand_connected_graph(rng, rng.randint(2, 8))
            for kind, supers in contained_in.items():
                order = run_search(kind, g, start=rng.randrange(g.n),
                                   policy=SeededRandom(rng.getrandbits(32)))
                for sup in supers:
                    ok, pos = validate_order(sup, g, order)
                    assert ok, (f"trial {trial}: {kind.value} order is not a "
                                f"{sup.value} order (position {pos})")


# ---------------------------------------------------------------------------
# Criterion 11: empirically linear deciders


def _split_perf_graph(n: int, seed: int) -> tuple[Graph, int]:
    """Split graph with sqrt-size clique side, nested independent-side
    neighborhoods, and a target adjacent to the whole clique."""
    rng = random.Random(seed)
    c = max(2, int(math.isqrt(n)))
    t = n - 1

    def edges():
        for i in range(c):
            for j in range(i + 1, c):
                yield (i, j)
        for w in range(c, n - 1):
            span = min(c - 1, 1 + min(int(rng.expovariate(0.7)), 7))
            for x in range(span):
                yield (w, x)
        for x in range(c):
            yield (t, x)

    return Graph.from_edges(n, edges()), t


def _best_time(fn, repeats: int) -> float:
    """Best of `repeats` wall-clock timings with the cyclic collector
    paused, so the measurement reflects the decider, not GC passes over
    the millions of live containers of the big instance."""
    best = math.inf
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        assert result is True
        best = min(best, elapsed)
    return best


@pytest.mark.wallclock
def test_criterion_11_linear_time_contracts():
    """Runtime ratio between n=1e5 and n=1e6 class-appropriate instances
    stays below 15x for the four linear deciders (CI-tolerant bound for
    O(n+m) growth; the instances are built so the answer path does full
    work and returns True)."""
    small_n, big_n = 10 ** 5, 10 ** 6
    ratios = {}

    def measure(label, build, call, big_repeats=3):
        small = build(small_n)
        t_small = _best_time(lambda: call(*small), repeats=5)
        del small
        big = build(big_n)
        t_big = _best_time(lambda: call(*big), repeats=big_repeats)
        del big
        gc.collect()
        ratios[label] = (t_small, t_big, t_big / t_small)

    measure("decide_mns_chordal",
            lambda n: (fx.window(n), n - 1),
            lambda g, t: decide_mns_chordal(g, t),
            big_repeats=2)  # the one expensive big run
    measure("decide_unit_interval",
            lambda n: (fx.window(n), n - 1),
            lambda g, t: decide_unit_interval(g, t))
    measure("decide_mcs_split",
            lambda n: _split_perf_graph(n, seed=11),
            lambda g, t: decide_mcs_split(g, t))
    measure("is_simplicial",
            lambda n: _split_perf_graph(n, seed=12),
            lambda g, t: is_simplicial(g, t))

    lines = []
    for label, (t_small, t_big, ratio) in ratios.items():
        lines.append(f"{label}: {t_small * 1e3:.0f}ms -> {t_big * 1e3:.0f}ms (x{ratio:.1f})")
        assert ratio < 15.0, f"{label} scaled x{ratio:.1f} from 1e5 to 1e6"
    print("ACCEPTANCE 11 (linear-time contracts): PASS  [" + "; ".join(lines) + "]")


# ---------------------------------------------------------------------------
# Deterministic companions of criterion 11: call counts per stage, which
# do not depend on the machine's speed.


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Replace `module.name` with a counting wrapper at every endvertex
    module attribute bound to it; returns the one-element call counter."""
    original = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "endvertex" or mod_name.startswith("endvertex.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_chordal_hinted_mns_stage_counts(monkeypatch):
    """One chordal-hinted MNS dispatch establishes the class once and
    decides from the components of G - N[t]: no clique tree, one MCS
    pass with the elimination test inside it and none after it, at most
    two connectivity passes."""
    g = fx.window(200)
    counts = {name: _count_calls(monkeypatch, module, name)
              for module, name in ((endvertex.chordal, "clique_tree"),
                                   (endvertex.chordal, "_mcs_pass"),
                                   (endvertex.chordal, "peo_violation"),
                                   (endvertex.graph, "is_connected"))}
    res = dispatch_endvertex(g, 199, K.MNS, class_hint="chordal")
    assert res.verdict is Verdict.YES and res.method == "chordal MNS characterization"
    got = {name: c[0] for name, c in counts.items()}
    assert got["clique_tree"] == 0, got
    assert got["_mcs_pass"] == 1, got
    assert got["peo_violation"] == 0, got
    assert got["is_connected"] <= 2, got


def test_public_deciders_stage_counts(monkeypatch):
    """The public deciders establish their class through dispatch's class
    table rows: a unit interval order settles claw-net-free with no
    (claw, net) check, interval stops after one MCS on a non-chordal
    graph with no clique tree, and split runs its own recognizer with no
    chordal check."""
    counts = {name: _count_calls(monkeypatch, module, name)
              for module, name in ((endvertex.recognize, "is_claw_net_free"),
                                   (endvertex.recognize, "recognize_split"),
                                   (endvertex.chordal, "recognize_chordal"),
                                   (endvertex.chordal, "clique_tree"),
                                   (endvertex.chordal, "_mcs_pass"))}

    def taken():
        """The counts since the last call, which restarts them."""
        got = {name: c[0] for name, c in counts.items()}
        for c in counts.values():
            c[0] = 0
        return got

    g = fx.two_cliques(30)
    assert decide_dfs_claw_net_free(g, 0) and not decide_dfs_claw_net_free(g, 29)
    got = taken()
    assert got["is_claw_net_free"] == 0, got
    with pytest.raises(ClassMismatchError, match="^graph is not interval$"):
        decide_dfs_interval(fx.cocktail_party(4), 0)
    got = taken()
    assert got["_mcs_pass"] == 1 and got["clique_tree"] == 0, got
    g, nm = fx.split_example()
    assert not decide_mcs_split(g, nm["v"])
    got = taken()
    assert got["recognize_split"] == 1 and got["recognize_chordal"] == 0, got


def test_mcs_and_chordal_recognition_still_reject_disconnected_input():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(DisconnectedGraphError):
        mcs_order(g)
    with pytest.raises(DisconnectedGraphError):
        mcs_order(g, start=4)
    with pytest.raises(DisconnectedGraphError):
        recognize_chordal(g)
    with pytest.raises(DisconnectedGraphError):
        mcs_order(Graph.from_edges(2, []))


def test_split_validation_is_linear_on_criterion_11_family():
    """recognize_split validates its partition of criterion 11's n = 1e5
    split family (an independent side of ~1e5 vertices) without an
    all-pairs pass."""
    g, t = _split_perf_graph(10 ** 5, seed=11)
    part = recognize_split(g)
    assert part is not None and validate_split_partition(g, part)
    # t sees the whole sqrt-size clique, so maximality promotes it.
    assert part.clique == frozenset(range(math.isqrt(10 ** 5))) | {t}
