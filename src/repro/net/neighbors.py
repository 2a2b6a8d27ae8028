"""Neighbor tables, two-hop knowledge, and the dynamic hello interval.

One-hop discovery (paper Section 4.3): "A host x enlists another host h as
its one-hop neighbor when a HELLO is received from h.  If no HELLO has been
received from h for the past two hello intervals, host x deletes h as its
one-hop neighbor."  With the dynamic-hello-interval scheme each host
announces its own interval inside the HELLO, so the timeout applied to a
neighbor is two of *that neighbor's* announced intervals.

Two-hop knowledge for the neighbor-coverage scheme: HELLOs piggyback the
sender's neighbor set ``N_h``; the receiver stores it as ``N_{x,h}``.

Neighborhood variation (Section 4.3)::

    nv_x = (#hosts joining or leaving N_x in the past 10 s) / (|N_x| * 10)

Dynamic hello interval::

    hi_x = max(hi_min, (nv_max - nv_x) / nv_max * hi_max)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.net.packets import HelloPacket

__all__ = [
    "NeighborTable",
    "absorb_hello",
    "dynamic_hello_interval",
    "DEFAULT_NV_WINDOW",
]

DEFAULT_NV_WINDOW = 10.0

_EMPTY: FrozenSet[int] = frozenset()
_INF = float("inf")


class NeighborTable:
    """Host-local neighbor knowledge built from received HELLOs.

    Two dicts keyed by neighbor id: ``{h: expiry}``, where expiry is
    ``last_heard + timeout_multiplier * announced_interval`` and the entry
    is stale strictly after it, and ``{h: N_{x,h}}``, the neighbor set
    ``h`` last announced (NC only).  :meth:`purge` drops exactly the
    entries whose expiry is before ``now``.  It keeps a lower bound on the
    earliest expiry, so a purge with nothing due returns without a scan;
    a HELLO lowers the bound when it brings an expiry below it, which a
    refresh with a shorter announced interval can do.
    """

    __slots__ = (
        "_default_interval", "_timeout_multiplier", "_variation_window",
        "_expiry", "_two_hop", "_next_expiry", "_changes", "_frozen",
        "hello_updates", "expirations",
    )

    def __init__(
        self,
        default_interval: float,
        timeout_multiplier: float = 2.0,
        variation_window: float = DEFAULT_NV_WINDOW,
    ) -> None:
        if default_interval <= 0:
            raise ValueError(f"default_interval must be > 0, got {default_interval}")
        if timeout_multiplier <= 0:
            raise ValueError(
                f"timeout_multiplier must be > 0, got {timeout_multiplier}"
            )
        self._default_interval = default_interval
        self._timeout_multiplier = timeout_multiplier
        self._variation_window = variation_window
        self._expiry: Dict[int, float] = {}
        self._two_hop: Dict[int, FrozenSet[int]] = {}
        #: No entry expires before this instant.
        self._next_expiry = _INF
        # (time, host_id) of join/leave events, pruned to the window.
        self._changes: Deque[Tuple[float, int]] = deque()
        # Cached frozenset(N_x); invalidated on join/leave, not on refresh.
        self._frozen: Optional[FrozenSet[int]] = None
        #: Perf counters (see repro.perf): HELLOs absorbed / entries expired.
        self.hello_updates = 0
        self.expirations = 0

    # ----------------------------------------------------------- updates

    def update_from_hello(self, hello: HelloPacket, now: float) -> None:
        """Process a received HELLO packet."""
        absorb_hello((self,), hello, now)

    def purge(self, now: float) -> Set[int]:
        """Drop neighbors not heard within their timeout; returns the dropped ids."""
        dropped: Set[int] = set()
        if self._next_expiry >= now:
            return dropped
        expiries = self._expiry
        bound = _INF
        for host_id, expiry in expiries.items():
            if expiry < now:
                dropped.add(host_id)
            elif expiry < bound:
                bound = expiry
        self._next_expiry = bound
        if dropped:
            two_hop = self._two_hop
            changes = self._changes
            for host_id in dropped:
                del expiries[host_id]
                two_hop.pop(host_id, None)
                changes.append((now, host_id))
            self._frozen = None
            self.expirations += len(dropped)
        return dropped

    # ----------------------------------------------------------- queries

    def neighbor_ids(self, now: Optional[float] = None) -> Set[int]:
        """Current one-hop neighbor set ``N_x`` (purged first if ``now`` given)."""
        if now is not None:
            self.purge(now)
        return set(self._expiry)

    def neighbor_frozenset(self, now: Optional[float] = None) -> FrozenSet[int]:
        """``frozenset(N_x)``, cached across calls until membership changes.

        HELLO piggybacking asks for this set once per HELLO; rebuilding it
        only when a neighbor joined or expired makes the steady-state cost
        O(1) instead of O(|N_x|).
        """
        if now is not None:
            self.purge(now)
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = frozenset(self._expiry)
        return frozen

    def neighbor_count(self, now: Optional[float] = None) -> int:
        """``n = |N_x|``, the input to the adaptive threshold functions."""
        if now is not None:
            self.purge(now)
        return len(self._expiry)

    def two_hop_neighbors(self, host_id: int) -> FrozenSet[int]:
        """``N_{x,h}``: the neighbor set ``h`` announced, empty if unknown."""
        return self._two_hop.get(host_id, _EMPTY)

    def knows(self, host_id: int) -> bool:
        return host_id in self._expiry

    def variation(self, now: float) -> float:
        """The paper's ``nv_x`` over the past ``variation_window`` seconds.

        The denominator uses ``max(|N_x|, 1)`` to keep the value defined for
        an isolated host (the paper's formula assumes a non-empty
        neighborhood).
        """
        self.purge(now)
        cutoff = now - self._variation_window
        while self._changes and self._changes[0][0] < cutoff:
            self._changes.popleft()
        denom = max(len(self._expiry), 1) * self._variation_window
        return len(self._changes) / denom


def absorb_hello(
    tables: Iterable[NeighborTable], hello: HelloPacket, now: float
) -> None:
    """Enter one HELLO, received at ``now``, into each of ``tables``.

    The one write path of every table: :meth:`NeighborTable.update_from_hello`
    passes its own table, and the network hands over all clean receivers
    of a HELLO frame at once.  A table's update touches that table alone
    (no event, no random draw, no record), so neither batching nor
    receiver order changes any result.
    """
    sender = hello.sender_id
    announced = hello.neighbor_ids
    interval = hello.hello_interval
    for table in tables:
        table.hello_updates += 1
        expiry = now + table._timeout_multiplier * (
            table._default_interval if interval is None else interval
        )
        expiries = table._expiry
        if sender not in expiries:
            table._changes.append((now, sender))
            table._frozen = None
        expiries[sender] = expiry
        if expiry < table._next_expiry:
            table._next_expiry = expiry
        if announced is not None:
            table._two_hop[sender] = announced


def dynamic_hello_interval(
    variation: float,
    nv_max: float = 0.02,
    hi_min: float = 1.0,
    hi_max: float = 10.0,
) -> float:
    """The paper's DHI formula: ``max(hi_min, (nv_max - nv)/nv_max * hi_max)``.

    Variation at or above ``nv_max`` maps to ``hi_min``; zero variation maps
    to ``hi_max``.  Defaults are the paper's simulation values
    (``nv_max = 0.02``, ``hi_min = 1 s``, ``hi_max = 10 s``).
    """
    if nv_max <= 0:
        raise ValueError(f"nv_max must be > 0, got {nv_max}")
    if not 0 < hi_min <= hi_max:
        raise ValueError(f"need 0 < hi_min <= hi_max, got {hi_min}..{hi_max}")
    scaled = (nv_max - variation) / nv_max * hi_max
    return max(hi_min, scaled)
