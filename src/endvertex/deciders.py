"""End-vertex deciders for chordal graph classes, with linear-time
contracts, plus a dispatcher that routes a query to the strongest
characterization its search kind has.

Each characterization is one private function
`(g, t, cert, name_of) -> (holds, detail)` that assumes g connected and
in its class, with `cert` the class's certificate; a one-sided one
returns None for `holds` where it cannot settle the query.
`dispatch_endvertex` checks connectivity once, recognizes only the
classes the query's kind can use, each at most once, and calls the
characterizations its route table names.  Each public `decide_*` function runs the same
characterization behind one precondition helper, `_decide`, which
checks the target and connectivity, establishes the class through the
same class table rows (`_RECOGNIZERS`) as dispatch, and raises
ClassMismatchError when the class does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import chordal
from .errors import ClassMismatchError, DisconnectedGraphError, GuardExceededError
from .graph import Graph, _chain_break, _check_vertex, cut_vertices, is_connected, is_simplicial
from .oracle import is_endvertex_exhaustive
from .recognize import (
    CliqueOrder,
    _interval_from_pass,
    is_claw_net_free,
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
    no clique tree is built.  O(n + m), the chordality check included."""
    return _decide(g, t, "chordal", _mns_chordal)


def _mns_chordal(g: Graph, t: int, cert, name_of=str) -> tuple[bool, str | None]:
    if not is_simplicial(g, t):
        return False, f"vertex {name_of(t)} is not simplicial"
    inside = _outside_component_neighborhoods(g, t)
    pair = _chain_break(inside)
    if pair is None:
        return True, None
    a, b = (_fmt(inside[i], name_of) for i in pair)
    return False, f"minimal separators {a} and {b} inside N({name_of(t)}) are inclusion-incomparable"


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
    vertices form an inclusion chain.  `is_inclusion_chain`'s walk (a
    counting sort by size, then one subset test per consecutive pair)
    keeps this O(n + m), the split check included."""
    return _decide(g, t, "split", _mcs_split)


def _mcs_split(g: Graph, t: int, cert, name_of=str) -> tuple[bool, str | None]:
    if not is_simplicial(g, t):
        return False, f"vertex {name_of(t)} is not simplicial"
    adj = g.adj
    deg_t = len(adj[t])
    lower = [v for v in range(g.n) if len(adj[v]) < deg_t]
    pair = _chain_break([adj[v] for v in lower])
    if pair is None:
        return True, None
    u, v = (name_of(lower[i]) for i in pair)
    return False, f"neighborhoods of vertices {u} and {v} are inclusion-incomparable"


# ---------------------------------------------------------------------------
# Unit interval graphs (MNS, MCS and LDFS simultaneously)


def decide_unit_interval(g: Graph, t: int) -> bool:
    """End-vertex status of t on a connected unit interval graph, valid
    simultaneously for MNS, MCS and LDFS: t is simplicial and G - N[t]
    is connected (or empty).  O(n) after the class check, whose three
    LBFS sweeps cost O(n + m log Δ)."""
    return _decide(g, t, "unit interval", _unit_interval)


def _unit_interval(g: Graph, t: int, order: list[int], name_of=str) -> tuple[bool, str | None]:
    """`order` is a unit interval order of g: every closed neighbourhood
    is a run of it, so u < v < w with uw an edge gives uv and vw.  N[t]
    is the run order[lo..hi] around t.  Its members lie between its ends,
    so t is simplicial iff the ends are adjacent.  No edge jumps over t,
    so G - N[t] falls apart iff the run touches neither end of the order;
    each side that is left is a run of consecutive, adjacent vertices
    (g is connected), so it is connected.  O(n) for the index of t."""
    adj = g.adj
    nbrs = adj[t]
    lo = hi = order.index(t)
    while lo and order[lo - 1] in nbrs:
        lo -= 1
    while hi + 1 < len(order) and order[hi + 1] in nbrs:
        hi += 1
    if lo < hi and order[hi] not in adj[order[lo]]:
        return False, f"vertex {name_of(t)} is not simplicial"
    if lo and hi + 1 < len(order):
        return False, f"G - N[{name_of(t)}] is disconnected"
    return True, None


# ---------------------------------------------------------------------------
# DFS deciders


def decide_dfs_claw_net_free(g: Graph, t: int) -> bool:
    """On a connected (claw, net)-free graph, t is a DFS end-vertex iff
    t is not a cut vertex.  O(n + m) after the class check, which reads
    a unit interval order when g has one and otherwise runs the (claw,
    net) check, which is not linear."""
    return _decide(g, t, "claw-net-free", _cut_vertex)


def _cut_vertex(g: Graph, t: int, cert, name_of=str) -> tuple[bool, str | None]:
    if t in cut_vertices(g):
        return False, f"vertex {name_of(t)} is a cut vertex"
    return True, None


def decide_dfs_interval(g: Graph, t: int) -> bool:
    """On a connected interval graph, t is a DFS end-vertex iff the
    subgraph induced by N(t), taken as one graph, has a hamiltonian
    path.  Recognizes the class once (near-linear), then O(n + m)."""
    return _decide(g, t, "interval", _dfs_interval)


def _dfs_interval(g: Graph, t: int, order: CliqueOrder, name_of=str) -> tuple[bool, str | None]:
    """`order` is a clique path of g, which restricted to N(t) is an
    interval model of G[N(t)].  It reads its certificate, so it must
    never get True: a hint that implies interval (unit-interval) also
    implies claw-net-free, whose row answers DFS first."""
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
    _check_vertex(g, min(keep))
    _check_vertex(g, max(keep))
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
    _check_vertex(g, t)
    if not validate_clique_order(g, order):
        raise ValueError("invalid clique order for this graph")
    return Verdict.YES if _mcs_interval(g, t, order)[0] else Verdict.UNKNOWN


def _mcs_interval(g: Graph, t: int, order: CliqueOrder,
                  name_of=str) -> tuple[bool | None, str | None]:
    """`order` is a valid clique order of g (never True: the only hint
    implying interval, unit-interval, answers MCS in its own row first).
    Settles only YES; when the condition fails it returns (None, why)."""
    if is_simplicial(g, t) and (_separator_growth_conditions(order.cliques, t)
                                or _separator_growth_conditions(order.reversed().cliques, t)):
        return True, None
    return None, "MCS on general interval graphs has no full characterization in scope"


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


# Class -> recognizer given g and `holds`, returning the certificate or None:
# the only way the library establishes a class.  Chordal's is its MCS pass,
# which interval reads its clique tree from; a unit interval order settles
# claw-net-free.  The lambdas look each recognizer up when called, so a
# patched one runs.
_RECOGNIZERS = {
    "chordal": lambda g, holds: (mcs if (mcs := chordal._mcs_pass(g)).chordal else None),
    "split": lambda g, holds: recognize_split(g),
    "interval": lambda g, holds: (None if (mcs := holds("chordal")) is None
                                  else _interval_from_pass(g, mcs)),
    "unit-interval": lambda g, holds: recognize_unit_interval(g),
    "claw-net-free": lambda g, holds: (holds("unit-interval") is not None
                                       or is_claw_net_free(g) or None),
}
# Class -> the classes it implies; its keys are the class hints.
_IMPLIES = {
    "split": ("chordal",),
    "chordal": (),
    "interval": ("chordal",),
    "unit-interval": ("interval", "chordal", "claw-net-free"),
}
_HINTS = ("auto", *_IMPLIES)
# Kind -> its characterizations, tried in order: (class, method,
# characterization given the class's certificate).  A characterization
# returns (True or False, detail) when it settles the query and (None, why)
# when it cannot; the last `why` goes to the oracle.  Under a hint, implied
# classes hold True, so a row that reads its certificate must follow a
# settling row of every hint that implies its class.
_ROUTES = {
    SearchKind.MNS: (("chordal", "chordal MNS characterization", _mns_chordal),),
    SearchKind.MCS: (("split", "split MCS characterization", _mcs_split),
                     ("unit-interval", "unit-interval characterization", _unit_interval),
                     ("interval", "interval MCS sufficient condition", _mcs_interval)),
    SearchKind.LDFS: (("unit-interval", "unit-interval characterization", _unit_interval),),
    SearchKind.DFS: (("claw-net-free", "cut-vertex characterization", _cut_vertex),
                     ("interval", "interval DFS characterization", _dfs_interval)),
}


class _Certs(dict):
    """Class -> g's certificate, recognized on first lookup.  A method and
    not a closure over itself, so that no reference cycle keeps g and its
    certificates alive after a query."""

    __slots__ = ("g",)

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, cls: str) -> object:
        if any(cls in _IMPLIES.get(c, ()) for c, cert in self.items() if cert is not None):
            cert = True
        elif "chordal" in _IMPLIES.get(cls, ()) and self["chordal"] is None:
            cert = None
        else:
            cert = _RECOGNIZERS[cls](self.g, self.__getitem__)
        self[cls] = cert
        return cert


def _class_table(g: Graph, hint: str = "auto"):
    """`(holds, certs)`: `holds(cls)` is g's certificate for `cls` (True
    when implied) or None when g is not in it; `certs` caches the answers.
    A class is recognized when first asked for, at most once, and not at
    all when an established class implies it or it implies chordal and
    chordal fails.  A hint is validated up front (ClassMismatchError when
    it fails); then it and the classes it implies are the only ones that
    hold.  Test with `is not None`: the empty graph's are falsy."""
    if hint not in _HINTS:
        raise ValueError(f"unknown class hint {hint!r} (expected one of {_HINTS})")
    certs = _Certs(g)
    holds = certs.__getitem__
    if hint != "auto":
        cert = _RECOGNIZERS[hint](g, holds)
        if cert is None:
            raise ClassMismatchError(f"class hint {hint!r} failed certificate validation")
        certs.update({**dict.fromkeys(_RECOGNIZERS), **dict.fromkeys(_IMPLIES[hint], True),
                      hint: cert})
    return holds, certs


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

    Classes come from `_class_table`, which validates `class_hint`:
    chordal gates split, interval and unit interval, and a unit interval
    order settles claw-net-free.  `classes` lists every class established
    while answering, gates included.  Connectivity is checked once, here;
    the characterizations of `_ROUTES` trust it and the class.
    """
    _check_vertex(g, t)
    if not is_connected(g):
        raise DisconnectedGraphError("end-vertex dispatch requires a connected graph")
    holds, certs = _class_table(g, class_hint or "auto")

    def result(verdict: Verdict, method: str, detail: str | None = None,
               witness: list[int] | None = None) -> DispatchResult:
        return DispatchResult(verdict, method, detail,
                              tuple(witness) if witness is not None else None,
                              tuple(sorted(c for c, cert in certs.items() if cert is not None)))

    why = None
    for cls, method, characterization in _ROUTES.get(kind, ()):
        cert = holds(cls)
        if cert is not None:
            ok, why = characterization(g, t, cert, name_of)
            if ok is not None:
                return result(Verdict.YES if ok else Verdict.NO, method, why)
    try:
        ok, witness = is_endvertex_exhaustive(g, kind, t, guard=oracle_guard)
    except GuardExceededError:
        return result(Verdict.UNKNOWN, "none", why or "no polynomial characterization in scope")
    return result(Verdict.YES if ok else Verdict.NO, "exhaustive oracle", why, witness)


def _decide(g: Graph, t: int, cls: str, characterization) -> bool:
    """A public decider: checks t and connectivity, establishes `cls`
    (spelled as its messages print it) by its own `_RECOGNIZERS` row, so
    split and unit interval skip `holds`' chordal gate, and hands the
    certificate to `characterization`.  ClassMismatchError outside it."""
    _check_vertex(g, t)
    if not is_connected(g):
        raise DisconnectedGraphError(f"{cls} decider requires a connected graph")
    holds, _ = _class_table(g)
    cert = _RECOGNIZERS[cls.replace(" ", "-")](g, holds)
    if cert is None:
        raise ClassMismatchError(f"graph is not {cls}")
    return characterization(g, t, cert)[0]


def _fmt(s: frozenset, name_of=str) -> str:
    return "{" + ",".join(name_of(v) for v in sorted(s)) + "}"
