"""The six restricted graph searches plus generic search, expressed as
eligibility rules over search prefixes.

Every search is defined by one question: given the vertices visited so
far (in order), which unvisited vertices may legally come next?  Every
answer reads one label per unvisited vertex: the positions of its
visited neighbors, kept as a bitmask (bit i is set iff the i-th visited
vertex is a neighbor).

  Generic  a nonempty label (every vertex, if none is visited)
  BFS      a nonempty label holding the lowest bit of all labels: the
           earliest visited neighbor
  DFS      a label holding the highest bit of all labels: a neighbor of
           the latest visited vertex that still has an unvisited one
  LBFS     maximal label, earliest-first: at the smallest position where
           exactly one of two labels has its bit set, that label wins
  LDFS     maximal label, latest-first: the largest such position wins,
           which is plain integer comparison
  MCS      maximal number of set bits (visited neighbors)
  MNS      labels that no other label strictly contains

Once no unvisited vertex has a visited neighbor (a disconnected graph),
Generic, BFS and DFS have nothing eligible, while under the other four
every label is empty, hence maximal, and every unvisited vertex is
eligible.

A tie-break policy ranks the vertices; `run_search` always visits the
eligible vertex of least rank, and `validate_order` is the same run with
each vertex ranked by its position in the given ordering.  One engine
per kind, none of which keeps these position bitmasks:

  Generic, MCS  lazy heaps of ranks per visited-neighbour count,
                O((n + m) log n)
  BFS, DFS      a queue / stack over rank-sorted neighbourhoods, O(n + m)
  LBFS          partition refinement, sorting each visit's unvisited
                neighbours, O(n + m log Δ) for maximum degree Δ; the
                recognizers' LBFS sweeps run it too
  LDFS          a stack of partition classes, O(n + m log n)
  MNS           groups of equal label and their inclusion-maximal
                labels, kept incrementally; not linear in general (the
                per-step cost is in `_mns_picks`)

`SearchReplay` keeps the labels themselves; it serves `eligible_set` and
the exhaustive oracle, which walk arbitrary prefixes.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from heapq import heappop, heappush
from operator import or_
from typing import Iterator, Sequence

from .chordal import _position_map
from .errors import DisconnectedGraphError
from .graph import Graph, is_connected


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
        last = {v: i for i, v in enumerate(self.preference)}
        return [v for i, v in enumerate(self.preference) if last[v] == i and v in range(n)]


LOWEST_ID = LowestId()
HIGHEST_ID = HighestId()


# ---------------------------------------------------------------------------
# Replay state


class SearchReplay:
    """Incremental prefix state for one search kind on one graph.

    Besides the prefix, the state is one label per vertex: for an
    unvisited vertex, the bitmask of the positions of its visited
    neighbors (bit i is set iff the i-th visited vertex is a neighbor).
    Every kind reads its rule off these labels, and advance/retreat
    update them the same way for every kind, so enumerators can walk the
    prefix tree without recomputing labels.  The labels are always
    exactly a function of the current prefix.

    It serves `eligible_set` and the exhaustive oracle, which step
    through arbitrary prefixes; `run_search` and `validate_order` run
    the rank-keyed engines instead.  `eligible` scans all n vertices.
    """

    __slots__ = ("kind", "n", "adj", "order", "pos", "label", "visited_mask", "full_mask")

    def __init__(self, g: Graph, kind: SearchKind):
        self.kind = kind
        self.n = g.n
        self.adj = g.adj
        self.order: list[int] = []
        self.pos = [-1] * g.n
        self.label = [0] * g.n
        self.visited_mask = 0
        self.full_mask = (1 << g.n) - 1

    def advance(self, v: int) -> None:
        pos, label = self.pos, self.label
        if pos[v] >= 0:
            raise ValueError(f"vertex {v} already visited")
        i = len(self.order)
        pos[v] = i
        self.order.append(v)
        self.visited_mask |= 1 << v
        bit = 1 << i
        for w in self.adj[v]:
            if pos[w] < 0:
                label[w] |= bit

    def retreat(self) -> None:
        pos, label = self.pos, self.label
        v = self.order.pop()
        pos[v] = -1
        self.visited_mask ^= 1 << v
        bit = 1 << len(self.order)
        # The unvisited neighbors are again exactly those that advance(v) marked.
        for w in self.adj[v]:
            if pos[w] < 0:
                label[w] ^= bit

    def unvisited(self) -> list[int]:
        return [v for v, p in enumerate(self.pos) if p < 0]

    def eligible(self) -> list[int]:
        """Vertices a valid step may visit next, ascending."""
        if not self.order:
            return list(range(self.n))
        kind, pos, label = self.kind, self.pos, self.label
        if kind is SearchKind.DFS:
            # The latest position in any label is that of the latest visited
            # vertex with an unvisited neighbor; the labels holding it are
            # exactly those neighbors'.
            top = max([lab for p, lab in zip(pos, label) if p < 0 and lab], default=0)
            if not top:
                return []
            return sorted([w for w in self.adj[self.order[top.bit_length() - 1]] if pos[w] < 0])
        if kind is SearchKind.GENERIC or kind is SearchKind.BFS:
            cand = [v for v, p in enumerate(pos) if p < 0 and label[v]]
            if not cand or kind is SearchKind.GENERIC:
                return cand
            low = reduce(or_, map(label.__getitem__, cand))
            low &= -low  # the earliest position in any label
            return [v for v in cand if label[v] & low]
        cand = self.unvisited()
        if not cand:
            return cand
        if kind is SearchKind.MCS:
            counts = [label[v].bit_count() for v in cand]
            best = max(counts)
            return [v for v, c in zip(cand, counts) if c == best]
        if kind is SearchKind.LDFS:
            # Latest-first label comparison is integer comparison.
            best = max(label[v] for v in cand)
        elif kind is SearchKind.LBFS:
            best = label[cand[0]]
            for v in cand[1:]:
                if _lbfs_beats(label[v], best):
                    best = label[v]
        else:  # MNS: labels that no other label strictly contains
            labels = [label[v] for v in cand]
            out = []
            for v, lab in zip(cand, labels):
                for other in labels:
                    if lab != other and lab & other == lab:
                        break
                else:
                    out.append(v)
            return out
        return [v for v in cand if label[v] == best]


def _lbfs_beats(a: int, b: int) -> bool:
    """Earliest-first comparison: at the lowest differing position, the
    label that has it wins.  Empty-vs-anything loses."""
    if a == b:
        return False
    low = (a ^ b) & -(a ^ b)
    return bool(a & low)


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
    """
    n = g.n
    if n == 0:
        return []
    if not is_connected(g):
        raise DisconnectedGraphError(f"{kind.value} search requires a connected graph")
    if start is not None and not 0 <= start < n:
        raise ValueError(f"start vertex {start} out of range")
    by_rank = policy.priority(n)
    if len(by_rank) < n:
        # Every vertex but a fixed start is picked from an eligible set once.
        if set(range(n)).difference(by_rank, (start,)):
            raise ValueError("preference ordering does not cover the eligible set")
        by_rank.append(start)
    rank = _position_map(by_rank, n)
    return list(_picks(kind, g, by_rank, rank, by_rank[0] if start is None else start))


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
# rank, and stops early where nothing is eligible.


def _picks(kind: SearchKind, g: Graph, by_rank: Sequence[int], rank: list[int],
           first: int) -> Iterator[int]:
    if kind is SearchKind.GENERIC or kind is SearchKind.MCS:
        return _count_picks(g.adj, rank, by_rank, first, mcs=kind is SearchKind.MCS)
    if kind is SearchKind.MNS:
        return _mns_picks(g.adj, rank, by_rank, first)
    if kind is SearchKind.LBFS:
        return _lbfs_picks(g.adj, rank, by_rank, first)
    # For BFS, DFS and LDFS, one bucket pass lists every neighbourhood in
    # falling rank order, so the best-ranked neighbour is at the end.
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u in reversed(by_rank):
        for w in g.adj[u]:
            adj[w].append(u)
    if kind is SearchKind.LDFS:
        return _ldfs_picks(adj, by_rank, first)
    return _scan_picks(adj, first, depth=kind is SearchKind.DFS)


def _count_picks(adj, rank: list[int], by_rank: Sequence[int], first: int,
                 mcs: bool) -> Iterator[int]:
    """One heap of ranks per visited-neighbour count, read at the highest
    count; Generic search caps counts at 1 and never picks a count of 0.  An
    entry is stale once its vertex is visited or counts more."""
    n = len(adj)
    cap = n if mcs else 1
    count = [0] * n  # -1 once visited
    heaps = [list(range(n)) if mcs else []]  # a sorted list is a heap
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
        while best >= 0:
            heap = heaps[best]
            while heap and count[by_rank[heap[0]]] != best:
                heappop(heap)
            if heap:
                break
            best -= 1
        else:
            return
        v = by_rank[heap[0]]


def _scan_picks(adj: list[list[int]], first: int, depth: bool) -> Iterator[int]:
    """BFS reads the earliest, DFS the latest visited vertex that still has an
    unvisited neighbour, and takes its first one."""
    visited = [False] * len(adj)
    active = deque([first])
    end, drop = (-1, active.pop) if depth else (0, active.popleft)
    v = first
    while True:
        yield v
        visited[v] = True
        while active:
            nbrs = adj[active[end]]
            while nbrs and visited[nbrs[-1]]:
                nbrs.pop()
            if nbrs:
                break
            drop()
        else:
            return
        v = nbrs.pop()
        active.append(v)


def _lbfs_picks(adj, rank: list[int], by_rank: Sequence[int], first: int) -> Iterator[int]:
    """Partition refinement (Habib, McConnell, Paul and Viennot 2000) on one
    linked list of the unvisited vertices: the classes of equal label are
    runs of it, largest label first and each in rank order, so after `first`
    (unlinked wherever it stands) the head is the next vertex.  Visiting v
    moves its unvisited neighbours, in rank order, to the end of a new class
    just before their old one; a class's stamp names the visit that last
    split it, and `kid` the class split off.  State is O(n) (class ids are
    recycled) and a visit sorts its unvisited neighbours only if it has two
    or more, so O(n + m log Δ).  Every label is maximal once a component is
    done, so it goes on to the next one and never stops early."""
    n = len(adj)
    nxt = [0] * (n + 1)  # the list runs from the sentinel n back to it
    prv = [0] * (n + 1)
    chain = [n, *by_rank, n]
    for a, b in zip(chain, chain[1:]):
        nxt[a] = b
        prv[b] = a
    cls = [0] * n + [-1]  # -1 once visited, and for the sentinel
    head = [by_rank[0]] * n  # class -> its first vertex
    kid = [0] * n  # class -> the class its stamp's visit split off it
    stamp = [-1] * n
    free = list(range(n - 1, 0, -1))  # ids of empty classes
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
            if cls[u] == c:
                head[c] = u
            else:
                free.append(c)
        nbrs = [w for w in adj[v] if cls[w] >= 0]
        if len(nbrs) > 1:
            nbrs.sort(key=rank.__getitem__)
        for w in nbrs:
            c = cls[w]
            if stamp[c] == v:
                d = kid[c]
            else:
                stamp[c] = v
                d = kid[c] = free.pop()
                head[d] = w
            f = head[c]
            u = nxt[w]
            if w != f:  # else w already follows the end of d
                p = prv[w]
                nxt[p] = u
                prv[u] = p
                p = prv[f]
                nxt[p] = w
                prv[w] = p
                nxt[w] = f
                prv[f] = w
            elif cls[u] == c:
                head[c] = u
            else:
                free.append(c)
            cls[w] = d
        v = nxt[n]
        if v == n:
            return


def _ldfs_picks(adj: list[list[int]], by_rank: Sequence[int], first: int) -> Iterator[int]:
    """A stack of partition classes of equal label, largest label on top, so
    the top class is the eligible set.  Visiting v raises each unvisited
    neighbour above every other vertex, so it moves into one new class per
    touched class, pushed in the touched classes' stack order; class ids
    rise up the stack, so that order is the sorted ids.  A class is a chain
    of entries in rising rank order, in flat lists (no allocation per
    class); an entry whose vertex was visited or moved on is stale, and a
    class with no live entry is popped when it reaches the top."""
    cls = [0] * len(adj)  # -1 once visited
    vert = list(by_rank)
    after = list(range(1, len(adj))) + [-1]
    head = [0]
    stack = [0]
    v = first
    while True:
        yield v
        cls[v] = -1
        nbrs = [w for w in adj[v] if cls[w] >= 0]  # falling rank
        kids = dict.fromkeys(map(cls.__getitem__, nbrs))
        for c in sorted(kids):
            kids[c] = len(head)
            stack.append(len(head))
            head.append(-1)
        for w in nbrs:
            d = cls[w] = kids[cls[w]]
            after.append(head[d])
            head[d] = len(vert)
            vert.append(w)
        while stack:
            top = stack[-1]
            e = head[top]
            while e >= 0 and cls[vert[e]] != top:
                e = after[e]
            head[top] = e
            if e >= 0:
                break
            stack.pop()
        else:
            return
        v = vert[e]


def _mns_picks(adj, rank: list[int], by_rank: Sequence[int], first: int) -> Iterator[int]:
    """The unvisited vertices grouped by label, each group a lazy heap of
    ranks, plus the set of inclusion-maximal labels.  Visiting v gives its
    unvisited neighbours a fresh bit: the maximal labels among those that
    gained it join the maxima, an old maximum survives unless one of its
    members gained it too (a new label then contains it), and if v leaves
    its own group empty, the labels inside v's label are checked again
    against the maxima, largest first.  A visited vertex's bit slot is recycled once it
    has no unvisited neighbour, so labels are as wide as the frontier.

    Not linear in general: a step costs O(d log n + t^2 + M), plus
    O(L + s M) when v empties its group, for d unvisited neighbours in t
    groups, M maximal labels, L labels and s labels inside v's, in word
    operations on labels as wide as the frontier."""
    n = len(adj)
    label = [0] * n  # bits of the slots of visited neighbours; -1 once visited
    left = [0] * n  # a visited vertex's unvisited neighbours
    slot = [0] * n
    free: list[int] = []
    width = 0
    heaps = {0: list(range(n))}  # label -> ranks of its group; a sorted list is a heap
    size = {0: n}
    maxima = {0}
    v = first
    while True:
        yield v
        own = label[v]
        label[v] = -1
        size[own] -= 1
        fresh = [w for w in adj[v] if label[w] >= 0]
        left[v] = len(fresh)
        olds = set()
        if fresh:
            if free:
                slot[v] = free.pop()
            else:
                slot[v] = width
                width += 1
            bit = 1 << slot[v]
            for w in fresh:
                lab = label[w]
                olds.add(lab)
                size[lab] -= 1
                lab = label[w] = lab | bit
                if lab in size:
                    size[lab] += 1
                else:
                    size[lab] = 1
                    heaps[lab] = []
                heappush(heaps[lab], rank[w])
            # Gaining the same bit keeps containment among the old labels.
            tops: list[int] = []
            for lab in sorted(olds, key=int.bit_count, reverse=True):
                if all(lab & top != lab for top in tops):
                    tops.append(lab)
            maxima -= olds
            maxima.update(top | bit for top in tops)
        for u in adj[v]:
            if label[u] < 0:
                left[u] -= 1
                if not left[u]:
                    free.append(slot[u])
        for lab in olds:
            if not size[lab]:
                del size[lab], heaps[lab]
        if own not in olds and not size[own]:  # else own | bit contains what own did
            del size[own], heaps[own]
            maxima.discard(own)
            for lab in sorted([lab for lab in size if lab & own == lab],
                              key=int.bit_count, reverse=True):
                if all(lab & top != lab for top in maxima):
                    maxima.add(lab)
        best = n
        for top in maxima:
            heap = heaps[top]
            while label[by_rank[heap[0]]] != top:
                heappop(heap)
            if heap[0] < best:
                best = heap[0]
        if best == n:
            return
        v = by_rank[best]
