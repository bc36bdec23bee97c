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

Generators (`run_search`) resolve the remaining nondeterminism with a
tie-break policy; validators (`validate_order`) replay a given ordering
step by step and report the first violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import or_
from typing import Callable, Sequence

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
    """Deterministic rule choosing one vertex from a nonempty eligible set."""

    def make_picker(self) -> Callable[[list[int]], int]:
        raise NotImplementedError


class LowestId(TieBreakPolicy):
    def make_picker(self):
        return min


class HighestId(TieBreakPolicy):
    def make_picker(self):
        return max


@dataclass(frozen=True)
class SeededRandom(TieBreakPolicy):
    """Uniform choice among eligible vertices, deterministic per seed."""

    seed: int

    def make_picker(self):
        rng = random.Random(self.seed)
        return lambda eligible: eligible[rng.randrange(len(eligible))]


@dataclass(frozen=True)
class FixedPreference(TieBreakPolicy):
    """Pick the eligible vertex appearing earliest in a preference ordering."""

    preference: tuple[int, ...]

    def make_picker(self):
        rank = {v: i for i, v in enumerate(self.preference)}

        def pick(eligible: list[int]) -> int:
            try:
                return min(eligible, key=rank.__getitem__)
            except KeyError:
                raise ValueError("preference ordering does not cover the eligible set") from None

        return pick


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
    replay = SearchReplay(g, kind)
    pick = policy.make_picker()
    if start is not None:
        replay.advance(start)
    while len(replay.order) < n:
        elig = replay.eligible()
        if not elig:
            raise DisconnectedGraphError("search stalled: no eligible vertex")
        replay.advance(pick(elig))
    return list(replay.order)


def validate_order(kind: SearchKind, g: Graph, order: Sequence[int]) -> tuple[bool, int | None]:
    """Replay `order` against the kind's eligibility rule.

    Returns (True, None) if every step is legal, otherwise
    (False, p) where p is the earliest violating position (1-based).
    Raises ValueError when `order` is not a permutation of the vertices.
    """
    n = g.n
    _position_map(order, n)
    replay = SearchReplay(g, kind)
    for i, v in enumerate(order):
        if i and v not in replay.eligible():
            return False, i + 1
        replay.advance(v)
    return True, None
