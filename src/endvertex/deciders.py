"""End-vertex deciders for chordal graph classes, with linear-time
contracts, plus a dispatcher that routes a query to the strongest
characterization its search kind has.

The public deciders check connectivity, and their class where a linear
check exists (chordal, split) or the decider needs the certificate
(interval); unit interval membership (near-linear) and (claw, net)-free
membership (not linear) are checked only with verify_class=True.  The
private helpers (`_*_explain`, `_dfs_interval`) assume every
precondition: `dispatch_endvertex` checks connectivity once, recognizes
only the classes the query's kind can use, each at most once and with
its certificate, and calls them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .chordal import recognize_chordal
from .errors import ClassMismatchError, DisconnectedGraphError, GuardExceededError, NotChordalError
from .graph import Graph, cut_vertices, is_connected, is_inclusion_chain, is_simplicial
from .oracle import is_endvertex_exhaustive
from .recognize import (
    CliqueOrder,
    is_claw_net_free,
    is_split,
    recognize_interval,
    recognize_split,
    recognize_unit_interval,
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
    no clique tree is built.  O(n + m), the chordality check included;
    raises NotChordalError on non-chordal input."""
    _check_target(g, t)
    if recognize_chordal(g) is None:  # raises on disconnected input
        raise NotChordalError("graph is not chordal (no perfect elimination ordering)")
    ok, _ = _mns_chordal_explain(g, t)
    return ok


def _mns_chordal_explain(g: Graph, t: int, name_of=str) -> tuple[bool, str | None]:
    """Assumes g connected and chordal."""
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
    stamped marking array keep this O(n + m)."""
    _check_target(g, t)
    if not is_connected(g):
        raise DisconnectedGraphError("split decider requires a connected graph")
    if not is_split(g):
        raise ClassMismatchError("graph is not split")
    ok, _ = _mcs_split_explain(g, t)
    return ok


def _mcs_split_explain(g: Graph, t: int, name_of=str) -> tuple[bool, str | None]:
    """Assumes g connected and split."""
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


def decide_unit_interval(g: Graph, t: int, verify_class: bool = False) -> bool:
    """End-vertex status of t on a connected unit interval graph, valid
    simultaneously for MNS, MCS and LDFS: t is simplicial and G - N[t]
    is connected (or empty).  O(n + m) with verification off."""
    _check_target(g, t)
    if not is_connected(g):
        raise DisconnectedGraphError("unit interval decider requires a connected graph")
    if verify_class and recognize_unit_interval(g) is None:
        raise ClassMismatchError("graph is not unit interval")
    ok, _ = _unit_interval_explain(g, t)
    return ok


def _unit_interval_explain(g: Graph, t: int, name_of=str) -> tuple[bool, str | None]:
    """Assumes g connected and unit interval."""
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


def decide_dfs_claw_net_free(g: Graph, t: int, verify_class: bool = False) -> bool:
    """On a connected (claw, net)-free graph, t is a DFS end-vertex iff
    t is not a cut vertex.  O(n + m) with verification off."""
    _check_target(g, t)
    if verify_class and not is_claw_net_free(g):
        raise ClassMismatchError("graph contains an induced claw or net")
    return t not in cut_vertices(g)


def decide_dfs_interval(g: Graph, t: int) -> bool:
    """On a connected interval graph, t is a DFS end-vertex iff the
    subgraph induced by N(t), taken as one graph, has a hamiltonian
    path.  Recognizes the class once (near-linear), then O(n + m);
    raises ClassMismatchError when g has no clique path."""
    _check_target(g, t)
    if not is_connected(g):
        raise DisconnectedGraphError("interval DFS decider requires a connected graph")
    order = recognize_interval(g)
    if order is None:
        raise ClassMismatchError("graph is not interval")
    return _dfs_interval(g, t, order)


def _dfs_interval(g: Graph, t: int, order: CliqueOrder) -> bool:
    """Assumes g connected and `order` a clique path of g.  G's clique
    path restricted to N(t) is an interval model of G[N(t)]."""
    return hamiltonian_path(g, order, g.adj[t]) is not None


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
# recognizer up when called, so a recognizer patched here is the one that runs.
_RECOGNIZERS = {
    "chordal": (lambda g, _: recognize_chordal(g), None),
    "split": (lambda g, _: recognize_split(g), "chordal"),
    "interval": (lambda g, peo: recognize_interval(g, peo), "chordal"),
    "unit-interval": (lambda g, _: recognize_unit_interval(g), "interval"),
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
    answering.  Connectivity is checked once, here; the deciders below
    trust it and the class instead of checking again.
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

    if kind is SearchKind.MNS and holds("chordal"):
        ok, why = _mns_chordal_explain(g, t, name_of=name_of)
        return result(Verdict.YES if ok else Verdict.NO, "chordal MNS characterization", why)
    if kind is SearchKind.MCS and holds("split"):
        ok, why = _mcs_split_explain(g, t, name_of=name_of)
        return result(Verdict.YES if ok else Verdict.NO, "split MCS characterization", why)
    if kind in (SearchKind.MCS, SearchKind.LDFS) and holds("unit-interval"):
        ok, why = _unit_interval_explain(g, t, name_of=name_of)
        return result(Verdict.YES if ok else Verdict.NO, "unit-interval characterization", why)
    if kind is SearchKind.DFS and holds("claw-net-free"):
        ok = decide_dfs_claw_net_free(g, t)
        return result(Verdict.YES if ok else Verdict.NO, "cut-vertex characterization",
                      None if ok else f"vertex {name_of(t)} is a cut vertex")
    if kind is SearchKind.DFS and holds("interval"):
        ok = _dfs_interval(g, t, certs["interval"])
        return result(Verdict.YES if ok else Verdict.NO, "interval DFS characterization",
                      None if ok else f"G[N({name_of(t)})] has no hamiltonian path")
    if kind is SearchKind.MCS and holds("interval"):
        if _mcs_interval_verdict(g, certs["interval"], t) is Verdict.YES:
            return result(Verdict.YES, "interval MCS sufficient condition")
        return oracle_or_unknown(
            "MCS on general interval graphs has no full characterization in scope",
            "no polynomial characterization in scope (MCS on interval graphs is open)")
    return oracle_or_unknown(None, "no polynomial characterization in scope")


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
