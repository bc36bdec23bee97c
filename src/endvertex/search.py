"""The six restricted graph searches plus generic search, expressed as
eligibility rules over search prefixes.

Every search is defined by one question: given the vertices visited so
far (in order), which unvisited vertices may legally come next?

  Generic  unvisited vertices with a visited neighbor (all, if none visited)
  BFS      minimize the position of the earliest visited neighbor
  DFS      unvisited neighbors of the deepest vertex that still has any
  LBFS     maximal label, earliest-first: at the smallest position where
           exactly one of two candidates has a visited neighbor, it wins
  LDFS     maximal label, latest-first: the largest such position wins
  MCS      maximize the number of visited neighbors
  MNS      visited-neighbor set inclusion-maximal among unvisited vertices

Generators (`run_search`) resolve the remaining nondeterminism with a
tie-break policy; validators (`validate_order`) replay a given ordering
step by step and report the first violation.

Labels are never materialized as strings: LBFS/LDFS comparisons run on
visited-neighbor position bitmasks (latest-first is plain integer
comparison; earliest-first compares the lowest differing bit), and MNS
labels are neighbor bitmasks intersected with the visited mask.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
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

    Supports advance/retreat so enumerators can walk the prefix tree
    without recomputing labels from scratch.  The label state is always
    exactly a function of the current prefix.
    """

    __slots__ = ("g", "kind", "n", "adj", "masks", "order", "pos", "visited_mask",
                 "full_mask", "count", "first_seen", "posmask", "_undo")

    def __init__(self, g: Graph, kind: SearchKind):
        self.g = g
        self.kind = kind
        self.n = g.n
        self.adj = g.adj
        self.masks = g.adjacency_masks()
        self.order: list[int] = []
        self.pos = [-1] * g.n
        self.visited_mask = 0
        self.full_mask = (1 << g.n) - 1
        self.count = [0] * g.n if kind is SearchKind.MCS else None
        self.first_seen = [-1] * g.n if kind is SearchKind.BFS else None
        self.posmask = [0] * g.n if kind in (SearchKind.LBFS, SearchKind.LDFS) else None
        self._undo: list[list[int]] = []

    def advance(self, v: int) -> None:
        if self.pos[v] >= 0:
            raise ValueError(f"vertex {v} already visited")
        i = len(self.order)
        self.pos[v] = i
        self.order.append(v)
        self.visited_mask |= 1 << v
        touched: list[int] = []
        if self.count is not None:
            for w in self.adj[v]:
                if self.pos[w] < 0:
                    self.count[w] += 1
                    touched.append(w)
        elif self.first_seen is not None:
            for w in self.adj[v]:
                if self.pos[w] < 0 and self.first_seen[w] < 0:
                    self.first_seen[w] = i
                    touched.append(w)
        elif self.posmask is not None:
            bit = 1 << i
            for w in self.adj[v]:
                if self.pos[w] < 0:
                    self.posmask[w] |= bit
                    touched.append(w)
        self._undo.append(touched)

    def retreat(self) -> None:
        v = self.order.pop()
        i = len(self.order)
        touched = self._undo.pop()
        self.pos[v] = -1
        self.visited_mask &= ~(1 << v)
        if self.count is not None:
            for w in touched:
                self.count[w] -= 1
        elif self.first_seen is not None:
            for w in touched:
                self.first_seen[w] = -1
        elif self.posmask is not None:
            bit = 1 << i
            for w in touched:
                self.posmask[w] &= ~bit

    def unvisited(self) -> list[int]:
        return [v for v in range(self.n) if self.pos[v] < 0]

    def eligible(self) -> list[int]:
        """Vertices a valid step may visit next, ascending."""
        kind = self.kind
        cand = self.unvisited()
        if not self.order or not cand:
            return cand
        if kind is SearchKind.GENERIC:
            vm = self.visited_mask
            return [v for v in cand if self.masks[v] & vm]
        if kind is SearchKind.BFS:
            seen = [v for v in cand if self.first_seen[v] >= 0]
            if not seen:
                return []
            best = min(self.first_seen[v] for v in seen)
            return [v for v in seen if self.first_seen[v] == best]
        if kind is SearchKind.DFS:
            unvis_mask = self.full_mask & ~self.visited_mask
            for v in reversed(self.order):
                free = self.masks[v] & unvis_mask
                if free:
                    return _bits(free)
            return []
        if kind is SearchKind.MCS:
            best = max(self.count[v] for v in cand)
            return [v for v in cand if self.count[v] == best]
        if kind is SearchKind.LDFS:
            # Latest-first label comparison is integer comparison of
            # position bitmasks.
            best = max(self.posmask[v] for v in cand)
            return [v for v in cand if self.posmask[v] == best]
        if kind is SearchKind.LBFS:
            best = cand[0]
            bm = self.posmask[best]
            for v in cand[1:]:
                if _lbfs_beats(self.posmask[v], bm):
                    best, bm = v, self.posmask[v]
            return [v for v in cand if self.posmask[v] == bm]
        if kind is SearchKind.MNS:
            vm = self.visited_mask
            labels = [(v, self.masks[v] & vm) for v in cand]
            out = []
            for v, lab in labels:
                for _, other in labels:
                    if lab != other and lab & other == lab:
                        break
                else:
                    out.append(v)
            return out
        raise AssertionError(kind)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
