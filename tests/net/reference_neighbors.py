"""The reference model of one host's neighbor table: plain dicts.

This is the table the simulator kept per host before every table moved
into :class:`repro.net.neighbors.NeighborStore`.  Property tests drive
the store and this model through the same HELLO streams and compare
every query.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.net.neighbors import DEFAULT_NV_WINDOW
from repro.net.packets import HelloPacket

_EMPTY: FrozenSet[int] = frozenset()
_INF = float("inf")


class ReferenceTable:
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

    def __init__(
        self,
        default_interval: float,
        timeout_multiplier: float = 2.0,
        variation_window: float = DEFAULT_NV_WINDOW,
    ) -> None:
        self._default_interval = default_interval
        self._timeout_multiplier = timeout_multiplier
        self._variation_window = variation_window
        self._expiry: Dict[int, float] = {}
        self._two_hop: Dict[int, FrozenSet[int]] = {}
        self._next_expiry = _INF
        self._changes: Deque[Tuple[float, int]] = deque()
        self.hello_updates = 0
        self.expirations = 0

    def update_from_hello(self, hello: HelloPacket, now: float) -> None:
        absorb_hello((self,), hello, now)

    def purge(self, now: float) -> Set[int]:
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
        for host_id in dropped:
            del expiries[host_id]
            self._two_hop.pop(host_id, None)
            self._changes.append((now, host_id))
        self.expirations += len(dropped)
        return dropped

    def neighbor_ids(self, now: Optional[float] = None) -> Set[int]:
        if now is not None:
            self.purge(now)
        return set(self._expiry)

    def neighbor_frozenset(self, now: Optional[float] = None) -> FrozenSet[int]:
        if now is not None:
            self.purge(now)
        return frozenset(self._expiry)

    def neighbor_count(self, now: Optional[float] = None) -> int:
        if now is not None:
            self.purge(now)
        return len(self._expiry)

    def two_hop_neighbors(self, host_id: int) -> FrozenSet[int]:
        return self._two_hop.get(host_id, _EMPTY)

    def knows(self, host_id: int) -> bool:
        return host_id in self._expiry

    def variation(self, now: float) -> float:
        self.purge(now)
        cutoff = now - self._variation_window
        while self._changes and self._changes[0][0] < cutoff:
            self._changes.popleft()
        denom = max(len(self._expiry), 1) * self._variation_window
        return len(self._changes) / denom


def absorb_hello(
    tables: Iterable[ReferenceTable], hello: HelloPacket, now: float
) -> None:
    """Enter one HELLO, received at ``now``, into each of ``tables``."""
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
        expiries[sender] = expiry
        if expiry < table._next_expiry:
            table._next_expiry = expiry
        if announced is not None:
            table._two_hop[sender] = announced
