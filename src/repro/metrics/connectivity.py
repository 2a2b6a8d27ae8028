"""Connectivity snapshots over the unit-disk graph.

``e`` in the RE metric is the number of hosts reachable from the source,
directly or indirectly, at the moment the broadcast is initiated.  A
snapshot is a breadth-first search taken one level at a time: each step
is one numpy distance mask from the hosts reached last to the hosts not
yet reached, with the channel's receiver-scan test ``dx*dx + dy*dy <=
r*r``, so a host exactly ``r`` away is in range.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

import numpy as np

__all__ = ["reachable_rows", "reachable_set", "connected_components"]

Position = Tuple[float, float]


def reachable_rows(
    x: np.ndarray,
    y: np.ndarray,
    source: int,
    candidates: np.ndarray,
    radius: float,
) -> np.ndarray:
    """The rows of ``candidates`` reachable from row ``source`` by
    multihop paths through other candidates, in no particular order.

    ``x`` and ``y`` hold every row's coordinates; ``candidates`` is an
    index array that must not contain ``source``.
    """
    radius_sq = radius * radius
    frontier = np.array([source])
    left = candidates
    reached = []
    while frontier.size and left.size:
        dx = x[left] - x[frontier, None]
        dy = y[left] - y[frontier, None]
        dx *= dx
        dy *= dy
        dx += dy
        hit = (dx <= radius_sq).any(axis=0)
        frontier = left[hit]
        left = left[~hit]
        reached.append(frontier)
    return np.concatenate(reached) if reached else left[:0]


def reachable_set(
    positions: Dict[Hashable, Position], source: Hashable, radius: float
) -> Set[Hashable]:
    """Hosts reachable from ``source`` by multihop paths (source excluded)."""
    if source not in positions:
        raise KeyError(f"source {source!r} has no position")
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    ids = list(positions)
    x, y = np.array(list(positions.values()), dtype=np.float64).T
    row = ids.index(source)
    others = np.delete(np.arange(len(ids)), row)
    return {ids[i] for i in reachable_rows(x, y, row, others, radius).tolist()}


def connected_components(
    positions: Dict[Hashable, Position], radius: float
) -> List[Set[Hashable]]:
    """All connected components of the unit-disk graph (largest first)."""
    remaining = set(positions)
    components = []
    while remaining:
        seed = next(iter(remaining))
        component = reachable_set(positions, seed, radius) | {seed}
        components.append(component)
        remaining -= component
    components.sort(key=len, reverse=True)
    return components
