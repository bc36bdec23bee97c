import random
from itertools import product

import pytest

import fixtures as fx
from endvertex import (
    CnfFormula,
    GuardExceededError,
    SearchKind,
    assignment_satisfies,
    build_mcs_gadget,
    build_mns_gadget,
    is_endvertex_exhaustive,
    mcs_gadget_edge_count,
    mns_gadget_edge_count,
    parse_dimacs,
    randomized_endvertex_probe,
    sat_bruteforce,
    to_dimacs,
    validate_order,
    witness_order_mcs,
    witness_order_mns,
)
from endvertex import reduction
from reference import is_weakly_chordal_desk, reference_witness_order_mcs

K = SearchKind

RUNNING_INSTANCE = CnfFormula(4, (
    ((1, False), (2, True), (3, False)),
    ((1, True), (3, False), (4, True)),
    ((1, False), (3, False), (4, False)),
))


def test_cnf_invariants():
    with pytest.raises(ValueError):
        CnfFormula(2, (((1, True), (2, True), (3, True)),))  # var out of range
    with pytest.raises(ValueError):
        CnfFormula(3, (((1, True), (1, False), (2, True)),))  # complementary pair
    with pytest.raises(ValueError):
        CnfFormula(3, (((1, True), (1, True), (2, True)),))  # duplicate literal
    with pytest.raises(ValueError):
        CnfFormula(3, (((1, True), (2, True)),))  # not 3 literals


def test_dimacs_round_trip():
    text = to_dimacs(RUNNING_INSTANCE)
    back = parse_dimacs(text)
    assert back == RUNNING_INSTANCE
    assert parse_dimacs("c comment\np cnf 3 1\n1 -2 3 0\n").clauses == (
        ((1, True), (2, False), (3, True)),)
    with pytest.raises(ValueError):
        parse_dimacs("1 2 3 0\n")  # missing header
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 2\n1 -2 3 0\n")  # clause count mismatch


def test_sat_bruteforce():
    assert sat_bruteforce(RUNNING_INSTANCE) is not None
    all_false = {v: False for v in range(1, 5)}
    assert assignment_satisfies(RUNNING_INSTANCE, all_false)
    unsat = CnfFormula(3, tuple(
        ((1, a), (2, b), (3, c)) for a, b, c in product((True, False), repeat=3)))
    assert sat_bruteforce(unsat) is None
    with pytest.raises(GuardExceededError):
        sat_bruteforce(CnfFormula(30, ()), guard=24)


def test_mns_gadget_running_instance():
    art = build_mns_gadget(RUNNING_INSTANCE)
    g = art.graph
    assert g.n == 14
    assert g.m == 70 == mns_gadget_edge_count(4, 3)
    assert is_weakly_chordal_desk(g)
    assert art.roles[art.target] == ("t",)
    assert len(art.roles) == g.n


def test_mns_gadget_adjacency_rules():
    rng = random.Random(7001)
    for _ in range(10):
        k = rng.randint(3, 5)
        l = rng.randint(1, 4)
        cnf = fx.rand_cnf(rng, k, l)
        art = build_mns_gadget(cnf)
        g = art.graph
        assert g.n == 2 * k + l + 3
        assert g.m == mns_gadget_edge_count(k, l)
        by_role = {r: v for v, r in art.roles.items()}
        lits = {(i, pol): by_role[("literal", i, pol)]
                for i in range(1, k + 1) for pol in (True, False)}
        s, b, t = by_role[("s",)], by_role[("b",)], by_role[("t",)]
        # X is the complement of the matching.
        for (i, pi), u in lits.items():
            for (j, pj), w in lits.items():
                if u >= w:
                    continue
                expected = not (i == j)
                assert g.has_edge(u, w) == expected
        # Clause vertices: independent; adjacent to X minus their literals.
        for j, clause in enumerate(cnf.clauses, start=1):
            cj = by_role[("clause", j)]
            for other in range(1, l + 1):
                if other != j:
                    assert not g.has_edge(cj, by_role[("clause", other)])
            for lit, u in lits.items():
                assert g.has_edge(cj, u) == (lit not in clause)
            assert g.has_edge(s, cj) and g.has_edge(t, cj) and not g.has_edge(b, cj)
        for u in lits.values():
            assert g.has_edge(b, u) and g.has_edge(s, u) and g.has_edge(t, u)
        assert g.has_edge(b, t) and not g.has_edge(s, t) and not g.has_edge(s, b)


def test_witness_order_mns():
    art = build_mns_gadget(RUNNING_INSTANCE)
    asg = {1: False, 2: True, 3: False, 4: True}
    order = witness_order_mns(RUNNING_INSTANCE, asg)
    assert order[-1] == art.target
    assert validate_order(K.MNS, art.graph, order) == (True, None)
    by_role = {r: v for v, r in art.roles.items()}
    assert order[0] == by_role[("s",)]
    assert order[1:5] == [by_role[("literal", 1, False)], by_role[("literal", 2, True)],
                          by_role[("literal", 3, False)], by_role[("literal", 4, True)]]
    assert order[5] == by_role[("b",)]
    with pytest.raises(ValueError):
        witness_order_mns(RUNNING_INSTANCE, {1: True, 2: False, 3: True, 4: False})
    # b is not adjacent to s, so after s its empty label is not maximal.
    rest = [v for v in range(art.graph.n) if v not in (order[0], order[5])]
    with pytest.raises(AssertionError, match="no phase vertex holds a maximal label"):
        reduction._guided_order(K.MNS, art.graph, [[order[0]], [order[5]], rest])


def test_mns_round_trip_small_sample():
    rng = random.Random(7002)
    for _ in range(8):
        k = rng.randint(3, 5)
        l = rng.randint(1, 13 - 2 * k)
        cnf = fx.rand_cnf(rng, k, l)
        art = build_mns_gadget(cnf)
        sat = sat_bruteforce(cnf) is not None
        ok, witness = is_endvertex_exhaustive(art.graph, K.MNS, art.target)
        assert ok == sat
        if ok:
            assert validate_order(K.MNS, art.graph, witness) == (True, None)


def test_mns_unsat_direction():
    """The in-budget round-trip instances are all satisfiable (a 3-SAT
    instance with three distinct variables per clause needs at least 8
    clauses to be unsatisfiable, pushing the gadget to 17 vertices), so
    the non-satisfiable direction is exercised here at n = 17."""
    unsat = CnfFormula(3, tuple(
        ((1, a), (2, b), (3, c)) for a, b, c in product((True, False), repeat=3)))
    assert sat_bruteforce(unsat) is None
    art = build_mns_gadget(unsat)
    assert art.graph.n == 17
    ok, witness = is_endvertex_exhaustive(art.graph, K.MNS, art.target)
    assert not ok and witness is None


def test_mcs_gadget_structure():
    cnf = CnfFormula(3, (((1, True), (2, False), (3, True)),))
    art = build_mcs_gadget(cnf)
    g = art.graph
    assert g.n == 48 * 3 + 3 * 1 - 25 == 122
    assert g.m == mcs_gadget_edge_count(3, 1)
    by_role = {r: v for v, r in art.roles.items()}
    t = art.target
    assert g.degree(t) == 3
    assert g.degree(by_role[("s_prime",)]) == 1
    assert g.adj[by_role[("s_prime",)]] == frozenset({by_role[("s",)]})
    ksize = 3 * (4 * 3 + 8 * 2) + 4
    k_vertices = art.vertices_with("k") + art.vertices_with("connector")
    assert len(k_vertices) == ksize
    for v in art.vertices_with("k"):
        assert g.degree(v) == ksize  # |K|-1 inside plus one owner outside
    # s touches exactly the four endpoints of variable 1 plus s'.
    s = by_role[("s",)]
    expected_s = {by_role[("endpoint", 1, pol, e)] for pol in (True, False) for e in (0, 1)}
    expected_s.add(by_role[("s_prime",)])
    assert g.adj[s] == frozenset(expected_s)
    # Clause triangle wiring: designated endpoints of the negated literals.
    tri = [by_role[("triangle", 1, slot)] for slot in range(3)]
    for var, pol in cnf.clauses[0]:
        designated = by_role[("endpoint", var, not pol, 0)]
        for tv in tri:
            assert g.has_edge(designated, tv)
        other_end = by_role[("endpoint", var, not pol, 1)]
        assert not any(g.has_edge(other_end, tv) for tv in tri)
    # Aux gadget wiring.
    a0 = by_role[("aux", 1, True, False, 0)]
    a1 = by_role[("aux", 1, True, False, 1)]
    assert g.has_edge(a0, a1)
    for e in (0, 1):
        assert g.has_edge(a0, by_role[("endpoint", 1, True, e)])
        assert g.has_edge(a0, by_role[("endpoint", 2, False, e)])
        assert not g.has_edge(a0, by_role[("endpoint", 1, False, e)])
    # Connectors join both endpoints of the last variable's literals.
    for pol in (True, False):
        for e_conn in (0, 1):
            conn = by_role[("connector", 3, pol, e_conn)]
            for e in (0, 1):
                assert g.has_edge(conn, by_role[("endpoint", 3, pol, e)])


def test_mcs_gadget_rejects_k1():
    with pytest.raises(ValueError):
        build_mcs_gadget(CnfFormula(1, ()))


def test_witness_order_mcs():
    rng = random.Random(7003)
    for _ in range(4):
        k = rng.randint(3, 4)
        cnf = fx.rand_cnf(rng, k, rng.randint(1, 4))
        assignment = sat_bruteforce(cnf)
        if assignment is None:
            continue
        art = build_mcs_gadget(cnf)
        order = witness_order_mcs(cnf, assignment)
        assert order == reference_witness_order_mcs(cnf, assignment)
        assert len(order) == art.graph.n
        assert order[-1] == art.target
        by_role = {r: v for v, r in art.roles.items()}
        assert order[0] == by_role[("s_prime",)]
        assert order[1] == by_role[("s",)]
        assert validate_order(K.MCS, art.graph, order) == (True, None)
        # Aux traversal mirrors the chain: between the chosen literals of
        # variables i and i+1 sit exactly the two aux vertices of the
        # gadget joining them.
        for i in range(1, k):
            pol = assignment[i]
            nxt = assignment[i + 1]
            hi = order.index(by_role[("endpoint", i, pol, 1)])
            segment = order[hi + 1: hi + 3]
            expected = {by_role[("aux", i, pol, nxt, 0)], by_role[("aux", i, pol, nxt, 1)]}
            assert set(segment) == expected


def test_witness_order_mcs_matches_the_phase_by_phase_reference():
    """Every satisfying assignment of the running instance gives the order
    the phase-by-phase replay gives; reordered phases that no MCS run can
    follow raise the same stall error from both."""
    for bits in product((True, False), repeat=4):
        assignment = dict(zip(range(1, 5), bits))
        if assignment_satisfies(RUNNING_INSTANCE, assignment):
            assert witness_order_mcs(RUNNING_INSTANCE, assignment) == \
                reference_witness_order_mcs(RUNNING_INSTANCE, assignment)
    assignment = sat_bruteforce(RUNNING_INSTANCE)
    phases_of = reduction._mcs_witness_phases
    stalled = "witness construction stalled: no phase vertex holds a maximum label"
    for reorder, stalls in ((lambda ph: ph[::-1], True),
                            (lambda ph: ph[:2] + [ph[-1]] + ph[2:-1], True),
                            (lambda ph: [ph[1], ph[0]] + ph[2:], False)):
        def patched(cnf, asg, reorder=reorder):
            g, phases = phases_of(cnf, asg)
            return g, reorder(phases)

        outcomes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_mcs_witness_phases", patched)
            for witness in (witness_order_mcs, reference_witness_order_mcs):
                try:
                    outcomes.append(witness(RUNNING_INSTANCE, assignment))
                except AssertionError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == stalled) == stalls


def test_witness_order_mcs_rejects_bad_assignment():
    cnf = CnfFormula(3, (((1, True), (2, True), (3, True)),))
    with pytest.raises(ValueError):
        witness_order_mcs(cnf, {1: False, 2: False, 3: False})


def test_mcs_unsat_probe_zero_hits():
    unsat = CnfFormula(3, tuple(
        ((1, a), (2, b), (3, c)) for a, b, c in product((True, False), repeat=3)))
    art = build_mcs_gadget(unsat)
    hits = randomized_endvertex_probe(art.graph, K.MCS, art.target, trials=500, seed=99)
    assert hits == 0
