"""Reference implementations the library's faster paths are compared against.

These are the step-by-step replay versions: every step asks
`SearchReplay.eligible()` for the whole eligible set and picks from it.
They are quadratic (cubic for MNS) and serve only as differential
references.  No library path replays a search any more, so for LDFS and
MNS these are the only second implementation the engines are checked
against.
"""

from __future__ import annotations

from endvertex import (
    DisconnectedGraphError,
    FixedPreference,
    HighestId,
    LowestId,
    SearchKind,
    SearchReplay,
)
from endvertex.chordal import _position_map
from endvertex.graph import is_connected
from endvertex import reduction


def reference_picker(policy):
    """The eligible-set picker each deterministic policy stands for."""
    if isinstance(policy, LowestId):
        return min
    if isinstance(policy, HighestId):
        return max
    if isinstance(policy, FixedPreference):
        rank = {v: i for i, v in enumerate(policy.preference)}

        def pick(eligible):
            try:
                return min(eligible, key=rank.__getitem__)
            except KeyError:
                raise ValueError("preference ordering does not cover the eligible set") from None

        return pick
    raise TypeError(f"no reference picker for {policy!r}")


def reference_run_search(kind, g, start=None, policy=LowestId()):
    n = g.n
    if n == 0:
        return []
    if not is_connected(g):
        raise DisconnectedGraphError(f"{kind.value} search requires a connected graph")
    if start is not None and not 0 <= start < n:
        raise ValueError(f"start vertex {start} out of range")
    replay = SearchReplay(g, kind)
    pick = reference_picker(policy)
    if start is not None:
        replay.advance(start)
    while len(replay.order) < n:
        elig = replay.eligible()
        if not elig:
            raise DisconnectedGraphError("search stalled: no eligible vertex")
        replay.advance(pick(elig))
    return list(replay.order)


def reference_validate_order(kind, g, order):
    _position_map(order, g.n)
    replay = SearchReplay(g, kind)
    for i, v in enumerate(order):
        if i and v not in replay.eligible():
            return False, i + 1
        replay.advance(v)
    return True, None


def reference_witness_order_mcs(cnf, assignment):
    """Visit each phase of `witness_order_mcs` in turn, always the least-id
    phase vertex that holds a maximum label."""
    g, phases = reduction._mcs_witness_phases(cnf, assignment)
    replay = SearchReplay(g, SearchKind.MCS)
    order = []
    for phase in phases:
        pending = set(phase)
        while pending:
            eligible = set(replay.eligible())
            pick = min(pending & eligible, default=None)
            if pick is None:
                raise AssertionError(
                    "witness construction stalled: no phase vertex holds a maximum label")
            pending.remove(pick)
            replay.advance(pick)
            order.append(pick)
    return order
