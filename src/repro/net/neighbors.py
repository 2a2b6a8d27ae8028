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

Layout
------
One :class:`NeighborStore` holds every host's table.  Expiries and
announced two-hop sets are ``(n, n)`` arrays indexed ``[sender,
receiver]``, so a HELLO frame lands in all its receivers' tables as a few
fancy-index writes on the sender's row.  A host's :class:`NeighborTable`
is its handle on the store: it reads its own column, and keeps in Python
what its queries need in O(1) -- its members, in join order, and a lower
bound on their earliest expiry.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.net.packets import HelloPacket

__all__ = [
    "NeighborStore",
    "NeighborTable",
    "dynamic_hello_interval",
    "DEFAULT_NV_WINDOW",
]

DEFAULT_NV_WINDOW = 10.0

_EMPTY: FrozenSet[int] = frozenset()
_INF = float("inf")

#: Frames with fewer receivers, and purges of tables with fewer members,
#: go entry by entry in Python; larger ones use whole-array operations,
#: whose fixed cost of about a microsecond per numpy call only pays off
#: on many entries.
_VECTOR_FROM = 12
#: Receiver-id arrays of large frames wait in a list and are counted into
#: ``hello_updates`` in one go once this many have gathered (or when a
#: count is read or reset).
_FOLD_EVERY = 256


class NeighborStore:
    """Every host's neighbor table, in arrays indexed ``[sender, receiver]``.

    ``expiry[h, x]`` is ``last_heard + timeout_multiplier *
    announced_interval`` for each neighbor ``h`` in host ``x``'s table
    (stale strictly after it) and ``inf`` for every other host;
    ``two_hop[h, x]`` is the set ``h`` last announced to ``x`` (NC only),
    ``None`` if none.  ``listers[h]`` is the Python set of hosts whose
    table holds ``h``, so a frame finds the receivers it joins without a
    scan.  All hosts share one default interval, timeout multiplier and
    variation window.  Host ids are ``0 .. size - 1``.
    """

    __slots__ = (
        "size", "tables", "_default_interval", "_timeout_multiplier",
        "_variation_window", "_expiry", "_two_hop", "_expiry_rows",
        "_expiry_cells", "_two_hop_rows", "_listers", "_announced",
        "_updates", "_update_log",
    )

    def __init__(
        self,
        size: int,
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
        self.size = size
        self._default_interval = default_interval
        self._timeout_multiplier = timeout_multiplier
        self._variation_window = variation_window
        self._expiry = np.full((size, size), _INF)
        # An empty object array holds None throughout.
        self._two_hop = np.empty((size, size), dtype=object)
        # Per-sender row views: a frame writes one row.  A memoryview of
        # a row reads and writes one float faster than numpy indexing.
        self._expiry_rows = list(self._expiry)
        self._expiry_cells = [memoryview(row) for row in self._expiry_rows]
        self._two_hop_rows = list(self._two_hop)
        self._listers: List[Set[int]] = [set() for _ in range(size)]
        # Senders that have announced an interval: only their HELLOs can
        # bring a member's expiry forward (see ``absorb``).
        self._announced = [False] * size
        #: Per host: HELLOs absorbed since its table was last reset,
        #: without the frames still waiting in ``_update_log``.
        self._updates = [0] * size
        self._update_log: List[np.ndarray] = []
        #: Host ``x``'s table is ``tables[x]``.  Iterating a transposed
        #: array makes its column views in C, faster than indexing.
        self.tables = [
            NeighborTable(self, host_id, column, two_hop)
            for host_id, column, two_hop in zip(
                range(size), self._expiry.T, self._two_hop.T
            )
        ]

    def absorb(self, hello: HelloPacket, receivers: np.ndarray, now: float) -> None:
        """Enter one HELLO, received at ``now``, into the tables of
        ``receivers`` (distinct host ids, kept by reference until counted).

        It leaves each table exactly as :meth:`NeighborTable.update_from_hello`
        on that table alone would.  Absorbing a HELLO schedules no event,
        draws no random number and emits no record, and each table's
        Python state is touched only through its own column and handle, so
        neither batching nor receiver order changes a result.
        """
        ids = receivers.tolist()
        if len(ids) < _VECTOR_FROM:
            self._absorb_each(hello, ids, now)
            return
        sender = hello.sender_id
        interval = hello.hello_interval
        expiry = now + self._timeout_multiplier * (
            self._default_interval if interval is None else interval
        )
        self._expiry_rows[sender][receivers] = expiry
        announced = hello.neighbor_ids
        if announced is not None:
            self._two_hop_rows[sender][receivers] = announced
        log = self._update_log
        log.append(receivers)
        if len(log) >= _FOLD_EVERY:
            self._fold_updates()
        tables = self.tables
        if interval is not None:
            self._announced[sender] = True
        if self._announced[sender]:
            # A refresh can bring a member's expiry forward, below its
            # table's bound, only if this or an earlier HELLO of the
            # sender announced an interval: with the default interval
            # each time, the later HELLO expires later.  Otherwise only
            # joins lower the bound.
            for host_id in ids:
                table = tables[host_id]
                if expiry < table._next_expiry:
                    table._next_expiry = expiry
        listers = self._listers[sender]
        if not listers.issuperset(ids):
            for host_id in ids:
                if host_id not in listers:
                    listers.add(host_id)
                    tables[host_id]._join(sender, now, expiry)

    def _absorb_each(self, hello: HelloPacket, ids: List[int], now: float) -> None:
        """:meth:`absorb`, one receiver at a time."""
        sender = hello.sender_id
        interval = hello.hello_interval
        if interval is not None:
            self._announced[sender] = True
        expiry = now + self._timeout_multiplier * (
            self._default_interval if interval is None else interval
        )
        announced = hello.neighbor_ids
        expiries = self._expiry_cells[sender]
        two_hop = self._two_hop_rows[sender]
        listers = self._listers[sender]
        updates = self._updates
        tables = self.tables
        for host_id in ids:
            updates[host_id] += 1
            expiries[host_id] = expiry
            if announced is not None:
                two_hop[host_id] = announced
            table = tables[host_id]
            if host_id not in listers:
                listers.add(host_id)
                table._join(sender, now, expiry)
            elif expiry < table._next_expiry:
                table._next_expiry = expiry

    def close(self) -> None:
        """Drop the store's list of tables, at the end of a simulation:
        each table keeps its own hold on the store, and stays readable."""
        self.tables = []

    def _fold_updates(self) -> None:
        log = self._update_log
        if log:
            counts = np.bincount(np.concatenate(log), minlength=self.size)
            log.clear()
            updates = self._updates
            for host_id, count in enumerate(counts.tolist()):
                if count:
                    updates[host_id] += count


class NeighborTable:
    """Host ``host_id``'s neighbor knowledge: its handle on a
    :class:`NeighborStore`, built by the store (``store.tables[host_id]``).

    The members sit in a dict in join order, beside a lower bound on
    their earliest expiry.  :meth:`purge` drops exactly the members whose
    expiry is before ``now``; while the bound is not before ``now`` it
    returns without a scan.  A HELLO lowers the bound when it brings an
    expiry below it: a join can, and so can a refresh whose interval is
    shorter than the one its sender announced before.  An entry that has
    expired but not been purged
    stays a member, so a HELLO refreshing it is not a join.
    """

    __slots__ = (
        "host_id", "_store", "_column", "_expiry", "_two_hop", "_members",
        "_next_expiry", "_changes", "_frozen", "expirations",
    )

    def __init__(
        self,
        store: NeighborStore,
        host_id: int,
        column: np.ndarray,
        two_hop: np.ndarray,
    ) -> None:
        self.host_id = host_id
        self._store = store
        # This host's column of the store's arrays (views the store makes
        # in bulk), the expiries also as a memoryview for reads of one
        # entry.
        self._column = column
        self._expiry = memoryview(column)
        self._two_hop = two_hop
        self._members: Dict[int, None] = {}
        #: No member expires before this instant.
        self._next_expiry = _INF
        # (time, host_id) of join/leave events, trimmed to the variation
        # window as they are appended.
        self._changes: Deque[Tuple[float, int]] = deque()
        # Cached frozenset(N_x); invalidated on join/leave, not on refresh.
        self._frozen: Optional[FrozenSet[int]] = None
        #: Perf counter (see repro.perf): entries purges dropped.
        self.expirations = 0

    @property
    def hello_updates(self) -> int:
        """Perf counter (see repro.perf): HELLOs this table absorbed."""
        store = self._store
        store._fold_updates()
        return store._updates[self.host_id]

    # ----------------------------------------------------------- updates

    def update_from_hello(self, hello: HelloPacket, now: float) -> None:
        """Process a HELLO received by this host alone (the per-receiver
        upcall path; :meth:`NeighborStore.absorb` takes a whole frame)."""
        self._store._absorb_each(hello, (self.host_id,), now)

    def _join(self, sender: int, now: float, expiry: float) -> None:
        self._members[sender] = None
        self._changes.append((now, sender))
        self._trim(now)
        self._frozen = None
        if expiry < self._next_expiry:
            self._next_expiry = expiry

    def _trim(self, now: float) -> None:
        """Drop the join/leave entries older than the variation window
        as of ``now``: :meth:`variation` would never count them again."""
        changes = self._changes
        cutoff = now - self._store._variation_window
        while changes and changes[0][0] < cutoff:
            changes.popleft()

    def purge(self, now: float) -> Set[int]:
        """Drop neighbors not heard within their timeout; returns the dropped ids."""
        dropped: Set[int] = set()
        if self._next_expiry >= now:
            return dropped
        members = self._members
        if len(members) < _VECTOR_FROM:
            bound = _INF
            cells = self._expiry
            for host_id in members:
                expiry = cells[host_id]
                if expiry < now:
                    dropped.add(host_id)
                    cells[host_id] = _INF
                elif expiry < bound:
                    bound = expiry
            self._next_expiry = bound
        else:
            column = self._column
            # Non-members hold inf, so the whole column can be scanned.
            expired = (column < now).nonzero()[0]
            if expired.size:
                column[expired] = _INF
                dropped = set(expired.tolist())
            self._next_expiry = float(column.min())
        if dropped:
            two_hop = self._two_hop
            listers = self._store._listers
            changes = self._changes
            host = self.host_id
            for host_id in dropped:
                del members[host_id]
                two_hop[host_id] = None
                listers[host_id].discard(host)
                changes.append((now, host_id))
            self._trim(now)
            self._frozen = None
            self.expirations += len(dropped)
        return dropped

    def reset(self) -> None:
        """Forget everything (a crash): no members, no history, and the
        perf counters back at zero."""
        members = self._members
        if members:
            ids = list(members)
            self._column[ids] = _INF
            self._two_hop[ids] = None
            listers = self._store._listers
            for host_id in ids:
                listers[host_id].discard(self.host_id)
            members.clear()
        self._next_expiry = _INF
        self._changes.clear()
        self._frozen = None
        self.expirations = 0
        store = self._store
        store._fold_updates()
        store._updates[self.host_id] = 0

    # ----------------------------------------------------------- queries

    def neighbor_ids(self, now: Optional[float] = None) -> Set[int]:
        """Current one-hop neighbor set ``N_x`` (purged first if ``now`` given)."""
        if now is not None:
            self.purge(now)
        return set(self._members)

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
            frozen = self._frozen = frozenset(self._members)
        return frozen

    def neighbor_count(self, now: Optional[float] = None) -> int:
        """``n = |N_x|``, the input to the adaptive threshold functions."""
        if now is not None:
            self.purge(now)
        return len(self._members)

    def two_hop_neighbors(self, host_id: int) -> FrozenSet[int]:
        """``N_{x,h}``: the neighbor set ``h`` announced, empty if unknown."""
        announced = self._two_hop[host_id]
        return _EMPTY if announced is None else announced

    def knows(self, host_id: int) -> bool:
        return host_id in self._members

    def variation(self, now: float) -> float:
        """The paper's ``nv_x`` over the past ``variation_window`` seconds.

        The denominator uses ``max(|N_x|, 1)`` to keep the value defined for
        an isolated host (the paper's formula assumes a non-empty
        neighborhood).
        """
        self.purge(now)
        self._trim(now)
        denom = max(len(self._members), 1) * self._store._variation_window
        return len(self._changes) / denom


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
