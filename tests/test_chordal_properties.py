"""Property tests of the chordal certificates, on graphs that hypothesis
draws with n <= 10: half chordal by construction, half G(n, p)-like, so
that holes, disconnected input and non-interval chordal graphs all occur.
`derandomize=True` fixes the examples, so a run cannot flake."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
from endvertex import (
    DisconnectedGraphError,
    Graph,
    chordal_hole,
    clique_tree,
    is_connected,
    peo_violation,
    recognize_chordal,
    recognize_interval,
    validate_clique_order,
)
from endvertex.chordal import is_chordless_cycle


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        # Vertex i joins a later anchor and part of the anchor's later
        # neighbourhood, which is a clique: 0, 1, ..., n - 1 is a PEO.
        later: list[set[int]] = [set() for _ in range(n)]
        for i in range(n - 2, -1, -1):
            j = draw(st.integers(i + 1, n - 1))
            later[i] = {j} | {x for x in sorted(later[j]) if draw(st.booleans())}
        edges = [(i, x) for i in range(n) for x in later[i]]
    else:
        edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[a], label[b]) for a, b in edges])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs())
def test_one_mcs_pass_certifies_chordality_both_ways(g):
    """On connected input exactly one of a PEO and a hole is found, and
    each passes its own check; on a chordal graph the clique tree holds
    exactly the maximal cliques, its separators are the intersections
    of their cliques, and the cliques holding a vertex form a subtree;
    an interval certificate passes its check."""
    if not is_connected(g):
        for certify in (recognize_chordal, chordal_hole, clique_tree):
            with pytest.raises(DisconnectedGraphError):
                certify(g)
        with pytest.raises(ValueError, match="connected"):
            recognize_interval(g)
        return
    peo, hole = recognize_chordal(g), chordal_hole(g)
    assert (peo is None) != (hole is None)
    if hole is not None:
        assert is_chordless_cycle(g, hole), hole
        assert recognize_interval(g) is None
        return
    assert peo_violation(g, peo) is None
    cliques, edges = clique_tree(g)
    assert set(cliques) == fx.brute_maximal_cliques(g) and len(cliques) == len(set(cliques))
    for i, j, sep in edges:
        assert sep == cliques[i] & cliques[j]

    def reached(keep: set[int]) -> set[int]:
        """The cliques of `keep` that tree edges inside it join to its least."""
        seen, stack = {min(keep)}, [min(keep)]
        while stack:
            a = stack.pop()
            for i, j, _ in edges:
                b = j if i == a else i if j == a else None
                if b in keep and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    everything = set(range(len(cliques)))
    assert len(edges) == len(cliques) - 1 and reached(everything) == everything
    for v in range(g.n):
        holding = {i for i, c in enumerate(cliques) if v in c}
        assert reached(holding) == holding, (v, cliques, edges)
    order = recognize_interval(g)
    assert order is None or validate_clique_order(g, order)
