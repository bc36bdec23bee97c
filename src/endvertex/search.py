"""The six restricted graph searches plus generic search, expressed as
eligibility rules over search prefixes.

Every search is defined by one question: given the vertices visited so
far (in order), which unvisited vertices may legally come next?  Every
answer reads one label per unvisited vertex: the positions of its
visited neighbors, kept as a bitmask.  BFS and LBFS give the i-th
visited vertex the bit 1 << (n - 1 - i), every other kind 1 << i, so
that the position a rule favours is always the higher bit and each rule
is one comparison:

  Generic  a label holding any bit of the union of all labels (every
           vertex, if none is visited)
  BFS      a label holding the highest bit of the union: a neighbor of
           the earliest visited vertex that still has an unvisited one
  DFS      the same comparison, where the highest bit is the latest
           such vertex
  LBFS     the largest label: at the earliest position where two
           labels differ, the one holding it wins
  LDFS     the largest label: the latest such position wins
  MCS      the most set bits (visited neighbors)
  MNS      labels that no other label strictly contains

Once no unvisited vertex has a visited neighbor (a disconnected graph),
Generic, BFS and DFS have nothing eligible, while under the other four
every label is empty, hence maximal, and every unvisited vertex is
eligible.  `validate_order` and the recognizers' LBFS sweeps follow
these rules across components.  `run_search` requires a connected graph
and runs no check of its own for it: its engines stop at that point
under every kind, so an order shorter than n proves the graph
disconnected.  Only when a bad start or policy is about to be reported
does it check connectivity, so that a disconnected graph is reported
first.

A tie-break policy ranks the vertices; `run_search` always visits the
eligible vertex of least rank, and `validate_order` is the same run with
each vertex ranked by its position in the given ordering.  Two engines,
neither of which keeps these position bitmasks:

  Generic, MCS      lazy heaps of ranks per visited-neighbour count,
                    O((n + m) log n)
  BFS, DFS, LBFS,   partition refinement of one list of the unvisited
  LDFS, MNS         vertices, sorting the neighbours each visit moves,
                    O(n + m log Δ) for maximum degree Δ; the recognizers'
                    LBFS sweeps run it too.  MNS refines it as LBFS does,
                    so its classes are the groups of equal label, and
                    keeps the inclusion-maximal classes and a lazy heap
                    over them; a step costs about the degrees around it,
                    not linear in general (see `_refine_picks`)

`SearchReplay` keeps the labels themselves; it serves `eligible_set` and
the exhaustive oracle, which walk arbitrary prefixes.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush, heapreplace
from typing import Iterator, Sequence

from .errors import DisconnectedGraphError
from .graph import Graph, _position_map, is_connected


class SearchKind(Enum):
    GENERIC = "generic"
    BFS = "bfs"
    DFS = "dfs"
    LBFS = "lbfs"
    LDFS = "ldfs"
    MCS = "mcs"
    MNS = "mns"

    @classmethod
    def parse(cls, name: str) -> "SearchKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown search kind {name!r} (expected one of: {valid})") from None


# ---------------------------------------------------------------------------
# Tie-break policies


class TieBreakPolicy:
    """Deterministic rule choosing the eligible vertex it ranks first."""

    def priority(self, n: int) -> list[int]:
        """Distinct vertices of range(n), most preferred first.  A vertex
        left out has no rank."""
        raise NotImplementedError


class LowestId(TieBreakPolicy):
    def priority(self, n):
        return list(range(n))


class HighestId(TieBreakPolicy):
    def priority(self, n):
        return list(range(n - 1, -1, -1))


@dataclass(frozen=True)
class SeededRandom(TieBreakPolicy):
    """A uniformly random priority over the vertices, drawn once per run
    and deterministic per seed."""

    seed: int

    def priority(self, n):
        order = list(range(n))
        random.Random(self.seed).shuffle(order)
        return order


@dataclass(frozen=True)
class FixedPreference(TieBreakPolicy):
    """Rank vertices by their position (the last, if repeated) in a preference."""

    preference: tuple[int, ...]

    def priority(self, n):
        ranked = list(dict.fromkeys(reversed(self.preference)))  # each key at its last position
        ranked.reverse()
        within = range(n)
        return [v for v in ranked if v in within]


LOWEST_ID = LowestId()
HIGHEST_ID = HighestId()


# ---------------------------------------------------------------------------
# Replay state


class SearchReplay:
    """Incremental prefix state for one search kind on one graph.

    Besides the prefix, the state is one label per vertex: the bits of
    the positions of its visited neighbours, where position i is the bit
    `1 << (n - 1 - i)` for BFS and LBFS and `1 << i` for every other kind,
    computed as it is visited, and the unvisited vertices in ascending order (`left`).
    Each rule of the module docstring is one comparison over the labels
    in `left`.  `advance` adds the new position's bit to every
    neighbour's label and `retreat` removes it, visited neighbours
    included: prefixes nest, so a visited vertex's later neighbours are
    retreated before it is, and its label is exact again by then.

    It serves `eligible_set` and the exhaustive oracle, which step
    through arbitrary prefixes; `run_search` and `validate_order` run
    the rank-keyed engines instead.  `eligible` reads the labels of the
    unvisited vertices only.
    """

    __slots__ = ("kind", "adj", "zero", "order", "pos", "label", "left")

    def __init__(self, g: Graph, kind: SearchKind):
        n = g.n
        self.kind = kind
        self.adj = g.adj
        # Position i has the bit 1 << abs(i - zero).
        self.zero = n - 1 if kind is SearchKind.BFS or kind is SearchKind.LBFS else 0
        self.order: list[int] = []
        self.pos = [-1] * n
        self.label = [0] * n
        self.left = list(range(n))

    def advance(self, v: int) -> None:
        if self.pos[v] >= 0:
            raise ValueError(f"vertex {v} already visited")
        i = len(self.order)
        self.pos[v] = i
        self.order.append(v)
        self.left.remove(v)
        bit, label = 1 << abs(i - self.zero), self.label
        for w in self.adj[v]:
            label[w] |= bit

    def retreat(self) -> None:
        v = self.order.pop()
        self.pos[v] = -1
        insort(self.left, v)
        bit, label = 1 << abs(len(self.order) - self.zero), self.label
        for w in self.adj[v]:
            label[w] ^= bit

    def unvisited(self) -> list[int]:
        return list(self.left)

    def eligible(self) -> list[int]:
        """Vertices a valid step may visit next, ascending."""
        kind, left, label = self.kind, self.left, self.label
        if not self.order:
            return list(left)
        if kind is SearchKind.MNS:  # labels that no other label strictly contains
            labels = [label[v] for v in left]
            out = []
            for v, lab in zip(left, labels):
                for other in labels:
                    if lab != other and lab & other == lab:
                        break
                else:
                    out.append(v)
            return out
        if kind is SearchKind.GENERIC or kind is SearchKind.BFS or kind is SearchKind.DFS:
            # Generic: any bit of the union of labels (-1 holds them all);
            # BFS, DFS: its highest bit, which is the largest label's (or 0).
            want = -1 if kind is SearchKind.GENERIC else \
                1 << max(map(label.__getitem__, left), default=0).bit_length() >> 1
            return [v for v in left if label[v] & want]
        # LBFS and LDFS: the largest label; MCS: the most bits.
        if kind is SearchKind.MCS:
            keys = [label[v].bit_count() for v in left]
        else:
            keys = [label[v] for v in left]
        best = max(keys, default=0)
        return [v for v, key in zip(left, keys) if key == best]


# ---------------------------------------------------------------------------
# Public operations


def eligible_set(kind: SearchKind, g: Graph, prefix: Sequence[int]) -> frozenset:
    """The vertices a valid `kind`-search may visit right after `prefix`.

    The prefix must consist of distinct in-range vertices and leave at
    least one vertex unvisited; it need not itself be a valid order of
    the kind (eligibility is well defined for any prefix).
    """
    n = g.n
    if len(set(prefix)) != len(prefix):
        raise ValueError("prefix contains repeated vertices")
    if len(prefix) >= n:
        raise ValueError("prefix leaves no unvisited vertex")
    replay = SearchReplay(g, kind)
    for v in prefix:
        if not 0 <= v < n:
            raise ValueError(f"prefix vertex {v} out of range")
        replay.advance(v)
    return frozenset(replay.eligible())


def run_search(kind: SearchKind, g: Graph, start: int | None = None,
               policy: TieBreakPolicy = LOWEST_ID) -> list[int]:
    """Run a full `kind`-search, resolving ties with `policy`.

    Deterministic whenever the policy is.  The optional fixed start only
    forces the first vertex; with no start, the policy chooses it from
    all vertices (every vertex is eligible at an empty prefix).

    Raises DisconnectedGraphError on a disconnected graph, before any
    error about the start or the policy; the engine finds it on its own,
    as the module docstring explains.
    """
    n = g.n
    if n == 0:
        return []
    try:
        if start is not None and not 0 <= start < n:
            raise ValueError(f"start vertex {start} out of range")
        by_rank = policy.priority(n)
        if len(by_rank) < n:
            # Every vertex but a fixed start is picked from an eligible set once.
            if set(range(n)).difference(by_rank, (start,)):
                raise ValueError("preference ordering does not cover the eligible set")
            by_rank.append(start)
        rank = _position_map(by_rank, n)
    except Exception:
        if not is_connected(g):
            raise DisconnectedGraphError(f"{kind.value} search requires a connected graph") from None
        raise
    order = list(_picks(kind, g, by_rank, rank, by_rank[0] if start is None else start, stall=True))
    if len(order) < n:
        raise DisconnectedGraphError(f"{kind.value} search requires a connected graph")
    return order


def validate_order(kind: SearchKind, g: Graph, order: Sequence[int]) -> tuple[bool, int | None]:
    """Check `order` against the kind's eligibility rule.

    Returns (True, None) if every step is legal, otherwise
    (False, p) where p is the earliest violating position (1-based).
    Raises ValueError when `order` is not a permutation of the vertices.

    Once a prefix of `order` is legal, its next vertex is the unvisited
    one of least rank, so the run picks it exactly when it is eligible.
    """
    n = g.n
    rank = _position_map(order, n)
    if n == 0:
        return True, None
    for step, (v, picked) in enumerate(zip(order, _picks(kind, g, order, rank, order[0])), 1):
        if v != picked:
            return False, step
    return (True, None) if step == n else (False, step + 1)


# ---------------------------------------------------------------------------
# Engines: each visits `first`, then always the eligible vertex of least
# rank, and stops early where nothing is eligible.  With `stall`, all
# seven stop where Generic, BFS and DFS do: once no unvisited vertex has
# a visited neighbour, which on a connected graph means none is left.


def _picks(kind: SearchKind, g: Graph, by_rank: Sequence[int], rank: list[int],
           first: int, stall: bool = False) -> Iterator[int]:
    if kind is SearchKind.GENERIC or kind is SearchKind.MCS:
        return _count_picks(g.adj, rank, by_rank, first, kind is SearchKind.MCS, stall)
    return _refine_picks(g.adj, rank, by_rank, first, kind, stall)


def _count_picks(adj, rank: list[int], by_rank: Sequence[int], first: int,
                 mcs: bool, stall: bool = False) -> Iterator[int]:
    """One heap of ranks per visited-neighbour count, read at the highest
    count; Generic search caps counts at 1 and never picks a count of 0,
    nor does MCS with `stall`.  An entry is stale once its vertex is
    visited or counts more."""
    n = len(adj)
    cap = n if mcs else 1
    count = [0] * n  # -1 once visited
    heaps = [list(range(n)) if mcs else []]  # a sorted list is a heap
    floor = 0 if mcs and not stall else 1  # the least count picked
    best = 0
    v = first
    while True:
        yield v
        count[v] = -1
        for w in adj[v]:
            c = count[w]
            if 0 <= c < cap:
                c = count[w] = c + 1
                if c == len(heaps):
                    heaps.append([])
                heappush(heaps[c], rank[w])
                if c > best:
                    best = c
        while best >= floor:
            heap = heaps[best]
            while heap and count[by_rank[heap[0]]] != best:
                heappop(heap)
            if heap:
                break
            best -= 1
        else:
            return
        v = by_rank[heap[0]]


def _refine_picks(adj, rank: list[int], by_rank: Sequence[int], first: int,
                  kind: SearchKind, stall: bool = False) -> Iterator[int]:
    """Partition refinement (Habib, McConnell, Paul and Viennot 2000; Corneil
    and Krueger 2008) on one linked list of the unvisited vertices: the
    classes of equal label are runs of it, largest label first and each in
    rank order, so after `first` (unlinked wherever it stands) the head is
    the next vertex.  Class 0 holds the unreached vertices (the empty label)
    and stays last.  Visiting v moves its unvisited neighbours, in rank
    order, into new classes:

      BFS        the unreached ones, into one class just before class 0
      DFS        all of them, into one class in front of every class
      LBFS, MNS  each old class's group, into a class just before the old one
      LDFS       each old class's group, into a class in front of every class

    LBFS, LDFS and MNS sort by rank, then stably by class.  Class ids are
    never reused, so the depth rules' list holds them in falling order;
    moving LDFS's groups oldest class first, each to the current front,
    keeps the new classes in their old classes' order.  `head` (class -> its
    first vertex) is kept exact only for BFS, LBFS and MNS, which insert
    before it.  A visit sorts only if it moves two or more vertices, so
    O(n + m log Δ).  BFS and DFS stop once the head is unreached: no
    unvisited vertex has a visited neighbour.  LBFS and LDFS see every
    label maximal then, so they go on to the next component, unless
    `stall` stops them there too (and MNS once it would pick class 0).

    MNS refines like LBFS, so each class is the group of one label, the set
    of its visited neighbours (`lab`, dropped once the class is empty), and
    it visits the head of least rank among the classes of inclusion-maximal
    label: `maxima`, with a lazy heap `tops` of (rank of the head, class)
    over them.  The labels of the classes a visit of v makes are their old
    classes' plus v, so the maximal ones among them join the maxima, and an
    old maximum survives unless some of its members moved (their new label
    contains it).  A class made from a maximum L_a is maximal itself: a
    label strictly containing L_a + v holds v, so it is L_c + v for a class
    c made now, and L_c would strictly contain L_a.  Only the other made
    classes are tested, against the made maxima.  If v leaves its own
    class empty, a label inside v's may become maximal.  Each such class
    was made at the visit of its label's latest vertex, a visited
    neighbour x of v, so only the live classes made at those visits
    (`born`) are looked at.  A label L is maximal iff
    no label in N(x) strictly contains it, for any x in L, since every
    label holding x belongs to an unvisited neighbour of x: the x with the
    fewest unvisited neighbours (`left`) is scanned, unless they all hold L
    itself (then L is maximal) or L is {x} (then any other label holding x
    contains it).  Class 0 is maximal exactly when no nonempty label is
    left.  A `tops` entry is stale once its class has left the maxima or
    its head has moved on (refreshed to the head, whose rank only ever
    rises).  MNS is not linear in general: a step costs O(d log n + t^2 s)
    for d unvisited neighbours in t classes and labels of at most s
    vertices (a label never outgrows its vertex's degree).  When v empties
    its class, add s for each live class made at the visits of v's visited
    neighbours, plus deg(x) s for each one inside v's that needs the scan.
    Lazy heap pops, and dropping empty classes from `born`, are paid for by
    the pushes."""
    n = len(adj)
    nxt = [0] * (n + 1)  # the list runs from the sentinel n back to it
    prv = [0] * (n + 1)
    chain = [n, *by_rank, n]
    for a, b in zip(chain, chain[1:]):
        nxt[a] = b
        prv[b] = a
    mns = kind is SearchKind.MNS
    lex = kind is SearchKind.LBFS or kind is SearchKind.LDFS or mns
    depth = kind is SearchKind.DFS or kind is SearchKind.LDFS
    fresh = kind is SearchKind.BFS  # only unreached neighbours move
    floor = 0 if lex and not stall else 1  # the least class picked: BFS and DFS stall at 0
    cls = [0] * n + [-1]  # -1 once visited, and for the sentinel
    head = [by_rank[0]]
    if mns:
        lab: list = [frozenset()]  # None once the class is empty
        size = [n]  # class -> its unvisited vertices
        left = [0] * n  # a visited vertex's unvisited neighbours
        born: list = [None] * n  # visited vertex -> the classes made at its visit
        maxima = {0}
        tops = [(0, 0)]
    v = first
    while True:
        yield v
        c = cls[v]
        cls[v] = -1
        p = prv[v]
        u = nxt[v]
        nxt[p] = u
        prv[u] = p
        if head[c] == v:  # else v is a `first` the ranking does not put first
            head[c] = u
        if fresh:
            nbrs = [w for w in adj[v] if not cls[w]]
        else:
            nbrs = [w for w in adj[v] if cls[w] >= 0]
        if len(nbrs) > 1:
            nbrs.sort(key=rank.__getitem__)
            if lex:
                nbrs.sort(key=cls.__getitem__)
        if mns:
            own, made = c, len(head)
            olds = list(map(cls.__getitem__, nbrs))  # ascending: one run per group
        c = -1
        for w in nbrs:
            if cls[w] != c and (lex or c < 0):  # the first of a group (BFS and DFS move one)
                c = cls[w]
                f = nxt[n] if depth else head[c]  # the group goes just before f
                d = len(head)
                head.append(w)
            u = nxt[w]
            if w == f:  # w already follows the group's earlier vertices
                f = head[c] = u
            else:
                p = prv[w]
                nxt[p] = u
                prv[u] = p
                p = prv[f]
                nxt[p] = w
                prv[w] = p
                nxt[w] = f
                prv[f] = w
            cls[w] = d
        if not mns:
            v = nxt[n]
            if cls[v] < floor:
                return
            continue
        size[own] -= 1
        for x in lab[own]:  # v's visited neighbours
            left[x] -= 1
        left[v] = len(nbrs)
        if nbrs:
            bit = {v}
            new = born[v] = range(made, len(head))
            kept, rest = [], []  # made from a maximum, or not
            i = 0
            for d in new:  # each made class's group is the next run of olds
                old = olds[i]
                k = bisect_right(olds, old, i) - i
                i += k
                lab.append(lab[old] | bit)
                size.append(k)
                size[old] -= k
                if not size[old]:
                    lab[old] = None
                if old in maxima:  # the new label contains it, and is maximal in turn
                    maxima.discard(old)
                    kept.append(d)
                else:
                    rest.append(d)
            for d in _maximal(rest, lab, kept):  # only labels holding v can contain these
                maxima.add(d)
                heappush(tops, (rank[head[d]], d))
        if lab[own] is not None and not size[own]:  # v was the last of its class
            label = lab[own]
            lab[own] = None
            maxima.discard(own)
            for x in label:
                live = born[x] = [d for d in born[x] if size[d]]
                for d in live:
                    if lab[d] < label and d not in maxima and _maximal_at(d, adj, cls, lab, left, size):
                        maxima.add(d)
                        heappush(tops, (rank[head[d]], d))
            if not maxima and size[0]:
                maxima.add(0)
                heappush(tops, (rank[head[0]], 0))
        if len(tops) > 2 * len(maxima):  # stale entries would leave only at the top
            tops = [(rank[head[d]], d) for d in maxima]
            heapify(tops)
        while tops:
            r, d = tops[0]
            if d not in maxima:
                heappop(tops)
                continue
            v = head[d]
            if rank[v] == r:
                break
            heapreplace(tops, (rank[v], d))
        else:
            return
        if d < floor:
            return


def _maximal_at(d: int, adj, cls: list[int], lab: list, left: list[int], size: list[int]) -> bool:
    """No label strictly contains class d's nonempty one; checked at the
    member with the fewest unvisited neighbours, as `_refine_picks` explains."""
    label = lab[d]
    x = min(label, key=left.__getitem__)
    if left[x] == size[d]:
        return True
    if len(label) == 1:  # any other label holding x strictly contains {x}
        return False
    for u in adj[x]:
        e = cls[u]
        if e >= 0 and label < lab[e]:
            return False
    return True


def _maximal(classes, lab: list, out: list[int]) -> list[int]:
    """`out`, classes of maximal label, extended by those of `classes` whose
    label no label in it strictly contains, tested largest first: a label
    inside another made one is then inside a maximal one found before it."""
    for d in sorted(classes, key=lambda d: len(lab[d]), reverse=True):
        label = lab[d]
        for top in out:
            if label < lab[top]:
                break
        else:
            out.append(d)
    return out
