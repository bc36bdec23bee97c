"""End-vertex deciders for chordal graph classes, with linear-time
contracts, plus a dispatcher that routes a query to the strongest
characterization its search kind has.

Each complete characterization is one private function
`(g, t, cert, name_of) -> (holds, detail)` that assumes g connected and
in its class, with `cert` the class's certificate.  `dispatch_endvertex`
checks connectivity once, recognizes only the classes the query's kind
can use, each at most once, and calls the characterization its route
table names.  Each public `decide_*` function runs the same
characterization behind one precondition helper, `_decide`, which
checks the target, connectivity and the class, and raises
ClassMismatchError when the class check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .chordal import recognize_chordal
from .errors import ClassMismatchError, DisconnectedGraphError, GuardExceededError
from .graph import Graph, cut_vertices, is_connected, is_inclusion_chain, is_simplicial
from .oracle import is_endvertex_exhaustive
from .recognize import (
    CliqueOrder,
    _interval_order,
    _unit_interval_order,
    is_claw_net_free,
    is_split,
    recognize_split,
    validate_clique_order,
)
from .search import SearchKind


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# MNS on chordal graphs


def decide_mns_chordal(g: Graph, t: int) -> bool:
    """t is an MNS end-vertex of a connected chordal graph iff t is
    simplicial and the minimal separators inside N(t) form an inclusion
    chain.  Those separators are exactly the sets N(C), one per
    component C of G - N[t], so one search over G - N[t] finds them and
    no clique tree is built.  O(n + m), the chordality check included."""
    return _decide(g, t, "chordal", recognize_chordal, _mns_chordal)


def _mns_chordal(g: Graph, t: int, cert, name_of=str) -> tuple[bool, str | None]:
    if not is_simplicial(g, t):
        return False, f"vertex {name_of(t)} is not simplicial"
    inside = list(set(_outside_component_neighborhoods(g, t)))
    if is_inclusion_chain(inside):
        return True, None
    pair = _incomparable_pair(inside)
    return False, (f"minimal separators {_fmt(pair[0], name_of)} and {_fmt(pair[1], name_of)} "
                   f"inside N({name_of(t)}) are inclusion-incomparable")


def _outside_component_neighborhoods(g: Graph, t: int) -> list[frozenset]:
    """N(C) for each component C of G - N[t], one entry per component.

    Each N(C) lies in N(t) and is a minimal separator (C and the
    component holding t are both full for it); conversely a minimal
    separator S inside N(t) has a full component away from t that
    cannot meet N(t), i.e. a component C of G - N[t] with N(C) = S.
    One labelling pass, O(n + m)."""
    adj = g.adj
    n = g.n
    # 0 = unseen outside N[t], 1 = t or already labelled, 2 = in N(t).
    mark = bytearray(n)
    mark[t] = 1
    for v in adj[t]:
        mark[v] = 2
    found = []
    for s in range(n):
        if mark[s]:
            continue
        mark[s] = 1
        boundary = set()
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                m = mark[w]
                if not m:
                    mark[w] = 1
                    stack.append(w)
                elif m == 2:
                    boundary.add(w)
        found.append(frozenset(boundary))
    return found


# ---------------------------------------------------------------------------
# MCS on split graphs


def decide_mcs_split(g: Graph, t: int) -> bool:
    """t is an MCS end-vertex of a connected split graph iff t is
    simplicial and the neighborhoods of all strictly lower-degree
    vertices form an inclusion chain.  Counting sort by degree plus a
    stamped marking array keep this O(n + m), the split check included."""
    return _decide(g, t, "split", is_split, _mcs_split)


def _mcs_split(g: Graph, t: int, cert, name_of=str) -> tuple[bool, str | None]:
    n = g.n
    if not is_simplicial(g, t):
        return False, f"vertex {name_of(t)} is not simplicial"
    deg_t = len(g.adj[t])
    buckets: list[list[int]] = [[] for _ in range(deg_t)]
    for v in range(n):
        d = len(g.adj[v])
        if d < deg_t:
            buckets[d].append(v)
    stamp = [0] * n
    i = 0
    prev = -1
    for d in range(deg_t - 1, -1, -1):
        for v in buckets[d]:
            i += 1
            if i == 1:
                for w in g.adj[v]:
                    stamp[w] = 1
            else:
                for w in g.adj[v]:
                    if stamp[w] != i - 1:
                        return False, (f"neighborhoods of vertices {name_of(prev)} and "
                                       f"{name_of(v)} are inclusion-incomparable")
                for w in g.adj[v]:
                    stamp[w] = i
            prev = v
    return True, None


# ---------------------------------------------------------------------------
# Unit interval graphs (MNS, MCS and LDFS simultaneously)


def decide_unit_interval(g: Graph, t: int) -> bool:
    """End-vertex status of t on a connected unit interval graph, valid
    simultaneously for MNS, MCS and LDFS: t is simplicial and G - N[t]
    is connected (or empty).  O(n + m) after the class check, whose
    three LBFS sweeps cost O(n + m log Δ)."""
    return _decide(g, t, "unit interval", _unit_interval_order, _unit_interval)


def _unit_interval(g: Graph, t: int, cert, name_of=str) -> tuple[bool, str | None]:
    if not is_simplicial(g, t):
        return False, f"vertex {name_of(t)} is not simplicial"
    if _connected_outside_closed_neighborhood(g, t):
        return True, None
    return False, f"G - N[{name_of(t)}] is disconnected"


def _connected_outside_closed_neighborhood(g: Graph, t: int) -> bool:
    # An empty remainder counts as connected.
    return len(_outside_component_neighborhoods(g, t)) <= 1


# ---------------------------------------------------------------------------
# DFS deciders


def decide_dfs_claw_net_free(g: Graph, t: int) -> bool:
    """On a connected (claw, net)-free graph, t is a DFS end-vertex iff
    t is not a cut vertex.  O(n + m) after the class check, which is
    not linear."""
    return _decide(g, t, "claw-net-free", is_claw_net_free, _cut_vertex)


def _cut_vertex(g: Graph, t: int, cert, name_of=str) -> tuple[bool, str | None]:
    if t in cut_vertices(g):
        return False, f"vertex {name_of(t)} is a cut vertex"
    return True, None


def decide_dfs_interval(g: Graph, t: int) -> bool:
    """On a connected interval graph, t is a DFS end-vertex iff the
    subgraph induced by N(t), taken as one graph, has a hamiltonian
    path.  Recognizes the class once (near-linear), then O(n + m)."""
    return _decide(g, t, "interval", _interval_order, _dfs_interval)


def _dfs_interval(g: Graph, t: int, order: CliqueOrder, name_of=str) -> tuple[bool, str | None]:
    """`order` is a clique path of g, which restricted to N(t) is an
    interval model of G[N(t)].  The only characterization that reads
    its certificate: a hint that implies interval (unit-interval) also
    implies claw-net-free, whose route answers DFS first."""
    if hamiltonian_path(g, order, g.adj[t]) is not None:
        return True, None
    return False, f"G[N({name_of(t)})] has no hamiltonian path"


def hamiltonian_path(g: Graph, order: CliqueOrder, vertices: Iterable[int]) -> list[int] | None:
    """A hamiltonian path of G[vertices], or None.

    `order` is a clique path of g; each vertex's interval ends at its
    last clique.  The walk starts at the vertex whose interval ends
    first and always steps to the unvisited neighbour whose interval
    ends first (ties to the smaller id).  Arikati and Pandu Rangan (IPL
    35, 1990) prove that this greedy, restarted whenever it is stuck,
    covers an interval graph with the fewest vertex-disjoint paths, so a
    hamiltonian path exists iff the walk never gets stuck, and the walk
    is one.  Ties are harmless: intervals ending at the same clique can
    be stretched into any order without changing the graph.  O(n + m).
    """
    keep = frozenset(vertices)
    if not keep:
        return []
    # Later cliques overwrite earlier ones: each vertex keeps its last.
    end = {v: (i, v) for i, c in enumerate(order.cliques) for v in c & keep}
    v = min(keep, key=end.__getitem__)
    path = [v]
    unvisited = set(keep)
    unvisited.remove(v)
    adj = g.adj
    while unvisited:
        step = adj[v] & unvisited
        if not step:
            return None
        v = min(step, key=end.__getitem__)
        unvisited.remove(v)
        path.append(v)
    return path


# ---------------------------------------------------------------------------
# MCS on interval graphs: one-sided sufficient condition


def mcs_interval_sufficient(g: Graph, order: CliqueOrder, t: int) -> Verdict:
    """One-sided test for MCS end-vertex status on an interval graph.

    YES when t is simplicial and, with C_i the unique clique holding t,
    either i is an end of the order, or both
        C_{i-1} & C_i  subset of  C_i & C_{i+1}
        |C_i & C_{i+1}| <= |C_j & C_{j+1}| for all j > i
    hold in the given order or in its reverse.  UNKNOWN is not a
    negative answer."""
    _check_target(g, t)
    if not validate_clique_order(g, order):
        raise ValueError("invalid clique order for this graph")
    return _mcs_interval_verdict(g, order, t)


def _mcs_interval_verdict(g: Graph, order: CliqueOrder, t: int) -> Verdict:
    """Assumes `order` is a valid clique order of g."""
    if not is_simplicial(g, t):
        return Verdict.UNKNOWN
    if _separator_growth_conditions(order.cliques, t) or _separator_growth_conditions(order.reversed().cliques, t):
        return Verdict.YES
    return Verdict.UNKNOWN


def _separator_growth_conditions(cliques: tuple[frozenset, ...], t: int) -> bool:
    holding = [i for i, c in enumerate(cliques) if t in c]
    if len(holding) != 1:
        return False  # non-simplicial t sits in several cliques
    i = holding[0]
    k = len(cliques)
    if i == 0 or i == k - 1:
        return True
    if not (cliques[i - 1] & cliques[i]) <= (cliques[i] & cliques[i + 1]):
        return False
    bar = len(cliques[i] & cliques[i + 1])
    return all(len(cliques[j] & cliques[j + 1]) >= bar for j in range(i + 1, k - 1))


# ---------------------------------------------------------------------------
# Dispatch


@dataclass(frozen=True)
class DispatchResult:
    verdict: Verdict
    method: str
    detail: str | None = None
    witness: tuple[int, ...] | None = None
    classes: tuple[str, ...] = ()


# Class -> (recognizer given g and the presumed class's certificate,
# returning its own or None; the class it presumes).  The lambdas look each
# recognizer up when called, so a recognizer patched here is the one that
# runs.  Dispatch has checked connectivity, so the interval classes call
# the recognizers' bodies, which do not check it again.
_RECOGNIZERS = {
    "chordal": (lambda g, _: recognize_chordal(g), None),
    "split": (lambda g, _: recognize_split(g), "chordal"),
    "interval": (lambda g, peo: _interval_order(g, peo), "chordal"),
    "unit-interval": (lambda g, _: _unit_interval_order(g), "interval"),
    "claw-net-free": (lambda g, _: is_claw_net_free(g) or None, None),
}
# Class hint -> the classes it implies.
_IMPLIES = {
    "split": ("chordal",),
    "chordal": (),
    "interval": ("chordal",),
    "unit-interval": ("interval", "chordal", "claw-net-free"),
}
_HINTS = ("auto", *_IMPLIES)
# Kind -> its complete characterizations, tried in order:
# (class, method, characterization given the class's certificate).
_ROUTES = {
    SearchKind.MNS: (("chordal", "chordal MNS characterization", _mns_chordal),),
    SearchKind.MCS: (("split", "split MCS characterization", _mcs_split),
                     ("unit-interval", "unit-interval characterization", _unit_interval)),
    SearchKind.LDFS: (("unit-interval", "unit-interval characterization", _unit_interval),),
    SearchKind.DFS: (("claw-net-free", "cut-vertex characterization", _cut_vertex),
                     ("interval", "interval DFS characterization", _dfs_interval)),
}


def dispatch_endvertex(g: Graph, t: int, kind: SearchKind, class_hint: str | None = None,
                       oracle_guard: int | None = None, name_of=str) -> DispatchResult:
    """Route an end-vertex query to the strongest applicable decider.

    Each kind tries the characterizations it has, complete ones first
    and the cheaper recognizer first among those: MNS chordal; MCS
    split, then unit interval, then the interval sufficient condition;
    LDFS unit interval; DFS claw-net-free, then interval.  GENERIC, BFS
    and LBFS have none.  What is left goes to the exhaustive oracle under
    `oracle_guard` (None: the oracle's default for the kind), then to
    UNKNOWN with the reason.

    A class is recognized the first time a route asks for it, and at
    most once, together with the class it presumes.  A class hint is
    validated up front (a failed certificate is a ClassMismatchError);
    then the hint and the classes it implies are the only classes that
    hold.  `classes` of the result lists the classes established while
    answering.  Connectivity is checked once, here; the characterizations
    of `_ROUTES` trust it and the class instead of checking again.
    """
    _check_target(g, t)
    if not is_connected(g):
        raise DisconnectedGraphError("end-vertex dispatch requires a connected graph")
    hint = class_hint or "auto"
    if hint not in _HINTS:
        raise ValueError(f"unknown class hint {hint!r} (expected one of {_HINTS})")

    # Class -> its certificate (True when implied by the hint), or None
    # when the class does not hold.
    certs: dict[str, object] = {}
    if hint != "auto":
        cert = _RECOGNIZERS[hint][0](g, None)
        if cert is None:
            raise ClassMismatchError(f"class hint {hint!r} failed certificate validation")
        certs = dict.fromkeys(_RECOGNIZERS)
        certs.update(dict.fromkeys(_IMPLIES[hint], True))
        certs[hint] = cert

    def holds(cls: str) -> object:
        if cls not in certs:
            recognizer, presumed = _RECOGNIZERS[cls]
            prior = holds(presumed) if presumed else None
            certs[cls] = recognizer(g, prior) if presumed is None or prior else None
        return certs[cls]

    def result(verdict: Verdict, method: str, detail: str | None = None,
               witness: list[int] | None = None) -> DispatchResult:
        return DispatchResult(verdict, method, detail,
                              tuple(witness) if witness is not None else None,
                              tuple(sorted(c for c, cert in certs.items() if cert is not None)))

    def oracle_or_unknown(detail: str | None, unknown_detail: str) -> DispatchResult:
        try:
            ok, witness = is_endvertex_exhaustive(g, kind, t, guard=oracle_guard)
        except GuardExceededError:
            return result(Verdict.UNKNOWN, "none", unknown_detail)
        return result(Verdict.YES if ok else Verdict.NO, "exhaustive oracle", detail, witness)

    for cls, method, characterization in _ROUTES.get(kind, ()):
        cert = holds(cls)
        if cert:
            ok, why = characterization(g, t, cert, name_of)
            return result(Verdict.YES if ok else Verdict.NO, method, why)
    if kind is SearchKind.MCS and holds("interval"):
        if _mcs_interval_verdict(g, certs["interval"], t) is Verdict.YES:
            return result(Verdict.YES, "interval MCS sufficient condition")
        return oracle_or_unknown(
            "MCS on general interval graphs has no full characterization in scope",
            "no polynomial characterization in scope (MCS on interval graphs is open)")
    return oracle_or_unknown(None, "no polynomial characterization in scope")


def _decide(g: Graph, t: int, cls: str, recognize, characterization) -> bool:
    """A public decider: checks t and connectivity, runs the class check
    `recognize` (which may presume connectivity) and hands its
    certificate to `characterization`.
    Raises ClassMismatchError when the check fails."""
    _check_target(g, t)
    if not is_connected(g):
        raise DisconnectedGraphError(f"{cls} decider requires a connected graph")
    cert = recognize(g)
    if not cert:
        raise ClassMismatchError(f"graph is not {cls}")
    return characterization(g, t, cert)[0]


def _check_target(g: Graph, t: int) -> None:
    if not 0 <= t < g.n:
        raise ValueError(f"vertex {t} out of range")


def _incomparable_pair(sets) -> tuple[frozenset, frozenset]:
    """The first incomparable pair in (size, members) order, so that a
    NO answer's detail does not depend on set iteration order."""
    ordered = sorted(sets, key=lambda s: (len(s), sorted(s)))
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            if not (a <= b or b <= a):
                return a, b
    raise AssertionError("no incomparable pair in a non-chain family")


def _fmt(s: frozenset, name_of=str) -> str:
    return "{" + ",".join(name_of(v) for v in sorted(s)) + "}"
