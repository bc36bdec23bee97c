"""3-SAT to end-vertex reductions, as executable gadget compilers.

Two constructions:

* MNS gadget: literal vertices form the complement of the variable
  matching, clause vertices are independent and see every literal except
  their own three, b sees all literals, s and t see all literals and all
  clauses, plus the single edge bt.  2k + l + 3 vertices; the target is
  an MNS end-vertex iff the formula is satisfiable.

* MCS gadget: each literal is an edge, each clause a triangle, all 3l
  triangle vertices one clique; consecutive variables are linked by
  four 2-auxiliary-vertex gadgets; a big clique K (36k - 20 vertices)
  gives three exclusive members to every literal endpoint and auxiliary
  vertex and reaches the last variable through 4 connector vertices;
  t sees exactly the clause vertices.  48k + 3l - 25 vertices; the
  target is an MCS end-vertex iff the formula is satisfiable.

Witness emitters mirror the respective sufficiency arguments and their
output re-validates against the search engine.  Role maps tie every
vertex back to the construction so tests can assert adjacency rules
without reverse-engineering ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .errors import GuardExceededError
from .graph import Graph
from .search import FixedPreference, SearchKind, run_search

Literal = tuple[int, bool]  # (variable 1..k, polarity: True for x, False for negated x)
Role = tuple  # ("s",) | ("b",) | ("t",) | ("s_prime",) | ("literal", var, pol) | ...


@dataclass(frozen=True)
class CnfFormula:
    """A 3-SAT instance: exactly three literals per clause, over three
    distinct variables (neither duplicate nor complementary literals)."""

    variable_count: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        k = self.variable_count
        if k < 0:
            raise ValueError("variable count must be nonnegative")
        for idx, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise ValueError(f"clause {idx + 1} does not have exactly 3 literals")
            vars_seen = set()
            for var, pol in clause:
                if not 1 <= var <= k:
                    raise ValueError(f"clause {idx + 1}: variable {var} out of range 1..{k}")
                if not isinstance(pol, bool):
                    raise ValueError(f"clause {idx + 1}: polarity must be boolean")
                vars_seen.add(var)
            if len(vars_seen) != 3:
                raise ValueError(f"clause {idx + 1}: literals must use three distinct variables")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def assignment_satisfies(cnf: CnfFormula, assignment: dict[int, bool]) -> bool:
    for var in range(1, cnf.variable_count + 1):
        if var not in assignment:
            raise ValueError(f"assignment does not cover variable {var}")
    return all(any(assignment[var] == pol for var, pol in clause) for clause in cnf.clauses)


DEFAULT_SAT_GUARD = 24


def sat_bruteforce(cnf: CnfFormula, guard: int = DEFAULT_SAT_GUARD) -> dict[int, bool] | None:
    """A satisfying assignment, or None after exhausting all 2^k
    assignments.  Refuses to enumerate beyond the guard."""
    k = cnf.variable_count
    if k > guard:
        raise GuardExceededError("brute-force SAT", k, guard)
    clause_masks = []
    for clause in cnf.clauses:
        pos = 0
        neg = 0
        for var, pol in clause:
            bit = 1 << (var - 1)
            if pol:
                pos |= bit
            else:
                neg |= bit
        clause_masks.append((pos, neg))
    for bits in range(1 << k):
        ok = True
        for pos, neg in clause_masks:
            if not (bits & pos) and (bits & neg) == neg:
                ok = False
                break
        if ok:
            return {v: bool(bits >> (v - 1) & 1) for v in range(1, k + 1)}
    return None


# ---------------------------------------------------------------------------
# DIMACS CNF


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF ("p cnf k l" header, 0-terminated clauses)."""
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        tokens.extend(int(x) for x in line.split())
    if header is None:
        raise ValueError("missing 'p cnf' problem line")
    k, l = header
    clauses: list[tuple[Literal, ...]] = []
    current: list[Literal] = []
    for tok in tokens:
        if tok == 0:
            if current:
                clauses.append(tuple(current))
                current = []
            continue
        current.append((abs(tok), tok > 0))
    if current:
        raise ValueError("last clause is not 0-terminated")
    if len(clauses) != l:
        raise ValueError(f"header promises {l} clauses, found {len(clauses)}")
    return CnfFormula(k, tuple(clauses))  # type: ignore[arg-type]


def to_dimacs(cnf: CnfFormula) -> str:
    lines = [f"p cnf {cnf.variable_count} {cnf.clause_count}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(var if pol else -var) for var, pol in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gadget artifacts


@dataclass(frozen=True)
class GadgetArtifact:
    graph: Graph
    target: int
    roles: dict[int, Role]

    def vertices_with(self, *head) -> list[int]:
        """All vertices whose role starts with the given components."""
        return [v for v, role in sorted(self.roles.items()) if role[: len(head)] == head]


def role_to_str(role: Role) -> str:
    kind = role[0]
    if kind in ("s", "b", "t", "s_prime"):
        return kind
    if kind == "literal":
        return f"literal:{_lit_str(role[1], role[2])}"
    if kind == "clause":
        return f"clause:{role[1]}"
    if kind == "endpoint":
        return f"endpoint:{_lit_str(role[1], role[2])}:{role[3]}"
    if kind == "triangle":
        return f"triangle:{role[1]}:{role[2]}"
    if kind == "aux":
        return f"aux:{_lit_str(role[1], role[2])}-{_lit_str(role[1] + 1, role[3])}:{role[4]}"
    if kind == "k":
        return f"k:{role[1]}"
    if kind == "connector":
        return f"connector:{_lit_str(role[1], role[2])}:{role[3]}"
    raise ValueError(f"unknown role {role!r}")


def _lit_str(var: int, pol: bool) -> str:
    return f"x{var}" if pol else f"~x{var}"


# ---------------------------------------------------------------------------
# MNS gadget (weakly chordal)


def build_mns_gadget(cnf: CnfFormula) -> GadgetArtifact:
    """The MNS end-vertex gadget on 2k + l + 3 vertices."""
    k = cnf.variable_count
    l = cnf.clause_count
    if k < 1:
        raise ValueError("MNS gadget needs at least one variable")
    pos_of: dict[Literal, int] = {}
    roles: dict[int, Role] = {}
    for i in range(1, k + 1):
        pos_of[(i, True)] = i - 1
        pos_of[(i, False)] = k + i - 1
        roles[i - 1] = ("literal", i, True)
        roles[k + i - 1] = ("literal", i, False)
    clause_ids = list(range(2 * k, 2 * k + l))
    for j, cid in enumerate(clause_ids, start=1):
        roles[cid] = ("clause", j)
    s = 2 * k + l
    b = s + 1
    t = b + 1
    roles[s] = ("s",)
    roles[b] = ("b",)
    roles[t] = ("t",)

    edges: list[tuple[int, int]] = []
    literal_ids = list(range(2 * k))
    # X: complement of the per-variable matching (x_i misses only its negation).
    matched = {(pos_of[(i, True)], pos_of[(i, False)]) for i in range(1, k + 1)}
    for a in range(2 * k):
        for bb in range(a + 1, 2 * k):
            if (a, bb) not in matched:
                edges.append((a, bb))
    # Clause vertices: independent, adjacent to X minus their own literals.
    for j, clause in enumerate(cnf.clauses):
        cid = clause_ids[j]
        skip = {pos_of[lit] for lit in clause}
        for lv in literal_ids:
            if lv not in skip:
                edges.append((cid, lv))
    # b sees all literals; s and t see all literals and clauses; plus bt.
    edges.extend((b, lv) for lv in literal_ids)
    edges.extend((s, v) for v in literal_ids + clause_ids)
    edges.extend((t, v) for v in literal_ids + clause_ids)
    edges.append((b, t))
    graph = Graph.from_edges(2 * k + l + 3, edges)
    return GadgetArtifact(graph, t, roles)


def mns_gadget_edge_count(k: int, l: int) -> int:
    """Closed form for the MNS gadget: X edges + clause-X + b + s + t + bt."""
    return (2 * k * (2 * k - 1) // 2 - k) + l * (2 * k - 3) + 2 * k + (2 * k + l) + (2 * k + l) + 1


def witness_order_mns(cnf: CnfFormula, assignment: dict[int, bool]) -> list[int]:
    """An MNS order of the gadget ending at t, built from a satisfying
    assignment: s, the assignment's literal per variable, b, the
    remaining literals, the clause vertices, then t."""
    if not assignment_satisfies(cnf, assignment):
        raise ValueError("assignment does not satisfy the formula")
    art = build_mns_gadget(cnf)
    k = cnf.variable_count
    by_role = {role: v for v, role in art.roles.items()}
    order = [by_role[("s",)]]
    order.extend(by_role[("literal", i, assignment[i])] for i in range(1, k + 1))
    order.append(by_role[("b",)])
    order.extend(by_role[("literal", i, not assignment[i])] for i in range(1, k + 1))
    order.extend(by_role[("clause", j)] for j in range(1, cnf.clause_count + 1))
    order.append(art.target)
    return order


# ---------------------------------------------------------------------------
# MCS gadget


def build_mcs_gadget(cnf: CnfFormula) -> GadgetArtifact:
    """The MCS end-vertex gadget on 48k + 3l - 25 vertices (k >= 2).

    Endpoint index 0 of each literal edge is the designated endpoint
    carrying the clause connections.
    """
    k = cnf.variable_count
    l = cnf.clause_count
    if k < 2:
        raise ValueError("MCS gadget needs k >= 2 (the auxiliary chain presumes "
                         "a last variable distinct from the first)")
    roles: dict[int, Role] = {}
    nxt = 0

    def fresh(role: Role) -> int:
        nonlocal nxt
        roles[nxt] = role
        nxt += 1
        return nxt - 1

    s_prime = fresh(("s_prime",))
    s = fresh(("s",))
    endpoint: dict[tuple[int, bool, int], int] = {}
    for i in range(1, k + 1):
        for pol in (True, False):
            for e in (0, 1):
                endpoint[(i, pol, e)] = fresh(("endpoint", i, pol, e))
    aux: dict[tuple[int, bool, bool, int], int] = {}
    for i in range(1, k):
        for pol_i, pol_j in product((True, False), repeat=2):
            for e in (0, 1):
                aux[(i, pol_i, pol_j, e)] = fresh(("aux", i, pol_i, pol_j, e))
    triangle: dict[tuple[int, int], int] = {}
    for j in range(1, l + 1):
        for slot in range(3):
            triangle[(j, slot)] = fresh(("triangle", j, slot))
    # K members: 3 exclusive neighbors for every endpoint / auxiliary
    # vertex, then 4 connectors (2 per literal of the last variable).
    k_members: list[int] = []
    owners = [endpoint[key] for key in sorted(endpoint)] + [aux[key] for key in sorted(aux)]
    trio_of: dict[int, list[int]] = {}
    for owner in owners:
        trio_of[owner] = [fresh(("k", owner)) for _ in range(3)]
        k_members.extend(trio_of[owner])
    connector: dict[tuple[bool, int], int] = {}
    for pol in (True, False):
        for e in (0, 1):
            connector[(pol, e)] = fresh(("connector", k, pol, e))
            k_members.append(connector[(pol, e)])
    t = fresh(("t",))

    edges: list[tuple[int, int]] = [(s_prime, s)]
    # Literal edges; s sees all four endpoints of variable 1.
    for i in range(1, k + 1):
        for pol in (True, False):
            edges.append((endpoint[(i, pol, 0)], endpoint[(i, pol, 1)]))
    for pol in (True, False):
        for e in (0, 1):
            edges.append((s, endpoint[(1, pol, e)]))
    # Auxiliary gadgets: both aux vertices of a link see both endpoints
    # of both linked literals and each other.
    for i in range(1, k):
        for pol_i, pol_j in product((True, False), repeat=2):
            a0 = aux[(i, pol_i, pol_j, 0)]
            a1 = aux[(i, pol_i, pol_j, 1)]
            edges.append((a0, a1))
            for a in (a0, a1):
                for e in (0, 1):
                    edges.append((a, endpoint[(i, pol_i, e)]))
                    edges.append((a, endpoint[(i + 1, pol_j, e)]))
    # Clause triangles: one clique over all 3l triangle vertices.
    tri_ids = [triangle[key] for key in sorted(triangle)]
    for a in range(len(tri_ids)):
        for bb in range(a + 1, len(tri_ids)):
            edges.append((tri_ids[a], tri_ids[bb]))
    # Designated endpoints of negated literals reach the whole triangle.
    for j, clause in enumerate(cnf.clauses, start=1):
        for var, pol in clause:
            neg_designated = endpoint[(var, not pol, 0)]
            for slot in range(3):
                edges.append((neg_designated, triangle[(j, slot)]))
    # The clique K, its exclusive trios, and the connectors.
    for a in range(len(k_members)):
        for bb in range(a + 1, len(k_members)):
            edges.append((k_members[a], k_members[bb]))
    for owner, trio in trio_of.items():
        for km in trio:
            edges.append((km, owner))
    for pol in (True, False):
        for e_conn in (0, 1):
            for e_lit in (0, 1):
                edges.append((connector[(pol, e_conn)], endpoint[(k, pol, e_lit)]))
    # t sees exactly the clause vertices.
    for tv in tri_ids:
        edges.append((t, tv))

    graph = Graph.from_edges(nxt, edges)
    expected = 48 * k + 3 * l - 25
    if graph.n != expected:
        raise AssertionError(f"MCS gadget has {graph.n} vertices, expected {expected}")
    return GadgetArtifact(graph, t, roles)


def mcs_gadget_edge_count(k: int, l: int) -> int:
    """Closed form for the MCS gadget edge count."""
    ksize = 3 * (4 * k + 8 * (k - 1)) + 4
    return (
        1                   # s' - s
        + 4                 # s to the four endpoints of variable 1
        + 2 * k             # literal edges
        + 9 * 4 * (k - 1)   # aux gadgets: pair edge + 8 endpoint edges each
        + 3 * l * (3 * l - 1) // 2   # clause clique
        + 9 * l             # designated-endpoint / triangle edges
        + 3 * l             # t to the clause vertices
        + ksize * (ksize - 1) // 2   # K internal
        + 3 * (4 * k + 8 * (k - 1))  # exclusive trios
        + 8                 # connectors to the last variable's endpoints
    )


def witness_order_mcs(cnf: CnfFormula, assignment: dict[int, bool]) -> list[int]:
    """An MCS order of the gadget ending at t, built from a satisfying
    assignment by replaying the sufficiency argument:

    s', s, then the chosen literal chain (both endpoints per variable,
    crossing the matching auxiliary pair between variables), the two
    connectors of the last chosen literal, all of K, every remaining
    non-clause vertex, the clause vertices, and finally t.

    One MCS run prefers the phases in that order, each in id order.  It
    leaves a phase early only where no phase vertex holds a maximum label,
    which raises (the construction or the argument would be wrong).
    """
    g, phases = _mcs_witness_phases(cnf, assignment)
    preference = tuple(v for phase in phases for v in sorted(phase))
    order = run_search(SearchKind.MCS, g, policy=FixedPreference(preference))
    blocks = iter(order)
    if any(set(islice(blocks, len(phase))) != set(phase) for phase in phases):
        raise AssertionError(
            "witness construction stalled: no phase vertex holds a maximum label")
    return order


def _mcs_witness_phases(cnf: CnfFormula,
                        assignment: dict[int, bool]) -> tuple[Graph, list[list[int]]]:
    """The gadget and the phases of `witness_order_mcs`, a vertex partition."""
    if not assignment_satisfies(cnf, assignment):
        raise ValueError("assignment does not satisfy the formula")
    art = build_mcs_gadget(cnf)
    g = art.graph
    k = cnf.variable_count
    by_role = {role: v for v, role in art.roles.items()}

    phases: list[list[int]] = []
    phases.append([by_role[("s_prime",)]])
    phases.append([by_role[("s",)]])
    chain: list[int] = []
    for i in range(1, k + 1):
        pol = assignment[i]
        chain.append(by_role[("endpoint", i, pol, 0)])
        chain.append(by_role[("endpoint", i, pol, 1)])
        if i < k:
            nxt_pol = assignment[i + 1]
            chain.append(by_role[("aux", i, pol, nxt_pol, 0)])
            chain.append(by_role[("aux", i, pol, nxt_pol, 1)])
    phases.append(chain)
    last_pol = assignment[k]
    connectors = [by_role[("connector", k, last_pol, e)] for e in (0, 1)]
    phases.append(connectors)
    rest_of_k = [v for v, role in sorted(art.roles.items())
                 if role[0] in ("k", "connector") and v not in connectors]
    phases.append(rest_of_k)
    clause_vertices = {v for v, role in art.roles.items() if role[0] == "triangle"}
    placed = {v for phase in phases for v in phase}
    remaining = [v for v in range(g.n)
                 if v not in placed and v not in clause_vertices and v != art.target]
    phases.append(remaining)
    phases.append(sorted(clause_vertices))
    phases.append([art.target])

    return g, phases
