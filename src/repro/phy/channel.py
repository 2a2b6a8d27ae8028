"""The shared radio medium.

Propagation model
-----------------
Unit disk: a frame transmitted from position *p* is heard by every attached
host within ``radio_radius`` of *p*.  The receiver set is frozen at
transmission start; at the paper's parameters a frame lasts 2.432 ms, during
which even an 80 km/h host moves under 6 cm, so mid-frame topology change is
negligible.

Collision model
---------------
Receiver-side overlap, no capture effect, which is what makes the broadcast
storm bite:

- If two or more frames overlap in time at a receiver, **all** of them are
  corrupted at that receiver (the paper: without collision detection a host
  keeps transmitting even if foregoing bits were garbled).
- A host is half-duplex: frames arriving while it transmits are corrupted
  for it, though they still occupy its carrier sense afterwards.

Host bitsets
------------
Per-host medium state is kept in Python ints used as bitsets over host
ids: bit ``h`` stands for host ``h``.  Set algebra over every host a
frame reaches is then a few int operations, however many receivers it
has.  The channel's are :attr:`Channel.busy` (hosts hearing at least one
frame on the air), :attr:`Channel.transmitting`, :attr:`Channel.sensed`
and :attr:`Channel.subscribed`; each frame on the air carries the
``mask`` of the receivers it still reaches and the ``clean`` mask of
those at which it is still uncorrupted.  Bit order is id order; where
order matters (edges, deliveries and drop-predicate queries), hosts are
visited in the frame's receiver order, which is attach order as of the
frame's start, and id order until attach order diverges from it.

Carrier sensing
---------------
Each host's sensed carrier state lives in the channel: its bit in
:attr:`Channel.sensed` and :attr:`Channel.idle_since` (a numpy array: the
instant of the host's last idle edge; 0.0 until the first).  They track
*incoming* energy only (a host's bit of :attr:`Channel.busy` turning on
or off); a host's own transmission state is something its MAC already
knows, so it is deliberately excluded.  The :meth:`Channel.carrier_busy`
poll, used by tests, reports the physical truth (incoming energy or own
transmission).

Busy edges take effect through a zero-delay event rather than
synchronously.  This models the fact that clear-channel assessment cannot
sense a carrier instantaneously (the paper: "carriers cannot be sensed
immediately due to things such as RF delays"): stations whose backoff
countdowns expire at the same instant all transmit and collide, instead of
the second one impossibly sensing the first with zero delay.  Idle edges
are synchronous -- at frame end there is no equivalent race.

An edge updates :attr:`Channel.sensed` (and, going idle,
:attr:`Channel.idle_since`) for every host it reaches, and then hands the
listeners whose bit in :attr:`Channel.subscribed` is set, in the frame's
receiver order, to their class's :meth:`RadioListener.on_medium_edge` in
one call: by default one ``on_medium_state(busy)`` upcall each, while
:class:`repro.mac.csma.CsmaCaMac` freezes or resumes all its MACs in one
loop.  Every listener is subscribed at :meth:`Channel.attach`; a listener
may clear its own bit while it would ignore every edge and must set it
again before it would not (the MAC clears it while it has nothing to send
and no backoff pending).  Attach and detach reset a host's sensed state to
idle since 0.0.

Failure injection
-----------------
``drop_predicate(sender_id, receiver_id)`` lets tests corrupt arbitrary
links deterministically; it is a writable property so the fault subsystem
(:mod:`repro.faults`) can compose bursty link-loss processes onto it at
runtime.  :meth:`Channel.abort_transmission` truncates an in-flight frame
(a crashing radio): the frame is removed from every receiver's air without
ever being delivered, and :meth:`Channel.detach` aborts the host's own
transmission first so a dead radio can neither KeyError the end-of-frame
event nor deliver from beyond the grave.

Receiver scan
-------------
Host positions come from a :class:`repro.mobility.store.PositionStore`,
which evaluates every host for a timestamp in one batched call.  A
transmission's receiver set is one numpy distance mask over those
arrays, kept both as an id array and as a bitset.  The mask yields hosts
in id order; when attach order and id order have diverged (a host crashed
and recovered), the id array is re-sorted by attach order, so receiver
iteration -- and with it the RNG draw order of stateful drop predicates,
medium-busy edge order and delivery callback order -- always follows
attach order.

Reception state
---------------
Without capture, a frame's ``clean`` mask is the whole reception state,
justified by the *all-corrupted invariant* of the no-capture collision
rule: any arrival into a busy receiver garbles everything it is hearing,
and receptions only leave by ending, so at every instant a receiver has
**at most one clean reception** (the first frame into an idle receiver).
A new frame's overlapped receivers are its mask and :attr:`Channel.busy`;
they leave the clean mask of every frame already on the air, and the new
frame starts clean only at the receivers it found idle that are not deaf
or dropped.  A receiver that detaches mid-frame leaves the mask of every
frame on the air, so the frame's end (or abort) skips it, also if it has
re-attached by then.

A capture model breaks that invariant (a strong frame can survive an
overlap), so with one set, and only then, each receiver also keeps an
arrival-ordered ``{sender: power}`` inbox, and a frame that loses an
overlap leaves its clean mask there.  The overlap rule sums the inbox's
powers in arrival order: float addition is not associative, so that
order is part of the result.

Either way:

- per-host rx airtime accumulates in a numpy array, and the MAC
  ``frames_corrupted`` bumps of swallowed corruptions and the
  ``frames_received`` bumps of bulk-delivered frames as logs of receiver
  masks; all are folded into their dict/stats form whenever
  :attr:`Channel.stats` is read;
- a frame's arrivals that are corrupted from their start form one mask:
  deaf (the receiver is transmitting) or dropped by the
  ``drop_predicate``, which is asked once about every other receiver, in
  attach order, so a stateful predicate draws its RNG in that order.
  The overlap rule and, with capture, the inbox read that mask;
- tracing or a corrupted-frame-notify listener forces the per-reception
  dispatch loop at frame end, keeping callback/record order identical;
- otherwise a frame's clean receivers are first offered, all at once and
  as an id array, to the :attr:`Channel.bulk_delivery` hook, and get
  per-listener upcalls only if it declines the frame.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.store import PositionStore
from repro.phy.capture import CaptureModel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler
from repro.trace.recorder import frame_ident

__all__ = ["Channel", "ChannelStats", "RadioListener"]


class RadioListener:
    """What the channel needs from an attached host (implemented by the MAC)."""

    def on_medium_state(self, busy: bool) -> None:
        """Edge-triggered carrier-sense change, called only while the
        host's bit in :attr:`Channel.subscribed` is set (from attach until
        the listener clears it), after the channel has recorded the edge
        in :attr:`Channel.sensed` and :attr:`Channel.idle_since`."""
        raise NotImplementedError

    @staticmethod
    def on_medium_edge(listeners: Sequence["RadioListener"], busy: bool) -> None:
        """One edge for ``listeners``, subscribed and all of this class,
        in the frame's receiver order: each one's :meth:`on_medium_state`.
        A class may override it to handle the whole edge in one pass; the
        channel calls it only if every listener attached so far shares
        it."""
        for listener in listeners:
            listener.on_medium_state(busy)

    def on_frame_received(self, frame: Any, sender_id: int) -> None:
        """A frame completed without collision."""
        raise NotImplementedError

    def on_frame_corrupted(self, frame: Any, sender_id: int) -> None:
        """A frame completed but was garbled at this receiver."""


class ChannelStats:
    """Medium-wide counters, cumulative over a simulation.

    A plain ``__slots__`` class (not a dataclass): the counters sit on the
    per-frame hot path and the slot layout keeps the increments cheap.
    """

    __slots__ = (
        "transmissions", "deliveries", "collisions", "deaf_misses",
        "injected_drops", "aborted_frames", "truncated_receptions",
        "batch_scans", "vector_candidates",
        "tx_airtime", "rx_airtime",
    )

    def __init__(self) -> None:
        self.transmissions = 0
        self.deliveries = 0
        self.collisions = 0
        #: Frames that arrived while the receiver was itself transmitting.
        self.deaf_misses = 0
        self.injected_drops = 0
        #: Transmissions truncated mid-frame (crash).
        self.aborted_frames = 0
        #: Receptions scrubbed by a sender abort.
        self.truncated_receptions = 0
        #: Vectorized receiver scans (one per transmission or
        #: neighbors_in_range query).
        self.batch_scans = 0
        #: Total size of the vector distance masks (in-range hosts summed
        #: over all batch scans) -- mean mask size = vector_candidates /
        #: batch_scans.
        self.vector_candidates = 0
        #: Per-host seconds spent transmitting / receiving energy.  A
        #: standard first-order energy proxy:
        #: radio energy ~ a*tx_airtime + b*rx_airtime.
        self.tx_airtime: Dict[int, float] = {}
        self.rx_airtime: Dict[int, float] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelStats):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # mutable counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__ if "airtime" not in name
        )
        return f"ChannelStats({fields})"

    def add_tx_airtime(self, host_id: int, duration: float) -> None:
        self.tx_airtime[host_id] = self.tx_airtime.get(host_id, 0.0) + duration

    @property
    def total_tx_airtime(self) -> float:
        return sum(self.tx_airtime.values())

    @property
    def total_rx_airtime(self) -> float:
        return sum(self.rx_airtime.values())


#: Logged receiver masks are counted and folded into the MACs' tallies
#: this many at a time (a bound on the memory they hold).
_FOLD_EVERY = 256

if hasattr(int, "bit_count"):
    _popcount = int.bit_count
else:  # Python < 3.10
    def _popcount(bits: int) -> int:
        return bin(bits).count("1")


@functools.lru_cache(maxsize=None)
def _nibble_ids(position: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """For the low and the high four bits of the bitset byte at
    ``position``: for each of their 16 values, the host ids of the set
    bits, in increasing order."""
    return tuple(
        tuple(
            tuple(base + bit for bit in range(4) if nibble >> bit & 1)
            for nibble in range(16)
        )
        for base in (8 * position, 8 * position + 4)
    )


class _Transmission:
    __slots__ = (
        "sender_id", "frame", "end_time", "receiver_ids", "mask", "clean",
        "end_event",
    )

    def __init__(
        self,
        sender_id: int,
        frame: Any,
        end_time: float,
        receiver_ids: np.ndarray,
        mask: int,
    ) -> None:
        self.sender_id = sender_id
        self.frame = frame
        self.end_time = end_time
        #: The receivers, in attach order, and as a bitset.  A receiver
        #: that detaches mid-frame (a crash) leaves both, so the frame's
        #: end skips it, also if it has re-attached since.
        self.receiver_ids = receiver_ids
        self.mask = mask
        #: The receivers at which the frame is still uncorrupted.
        self.clean = 0
        self.end_event: Any = None


class Channel:
    """Unit-disk broadcast medium with receiver-side collisions.

    Host ids are the rows ``0 .. store.size - 1`` of ``position_store``.
    """

    # No __slots__ here on purpose: there is exactly one Channel per
    # simulation (nothing to save), and tests spy on its methods by
    # instance assignment.

    def __init__(
        self,
        scheduler: Scheduler,
        params: PhyParams,
        position_store: PositionStore,
        drop_predicate: Optional[Callable[[int, int], bool]] = None,
        capture: Optional[CaptureModel] = None,
        trace: Optional[Any] = None,
    ) -> None:
        self._scheduler = scheduler
        self._params = params
        self._store = position_store
        self._xy = position_store.xy
        self._drop_predicate = drop_predicate
        #: Structured :class:`repro.trace.TraceRecorder` sink; ``None``
        #: keeps the guarded emission sites inert.
        self._trace = trace
        self._capture = capture
        self._radio_radius_sq = params.radio_radius * params.radio_radius
        self._listeners: Dict[int, RadioListener] = {}
        self._active: Dict[int, _Transmission] = {}
        self._attach_counter = itertools.count()
        self._stats = ChannelStats()
        n = position_store.size
        self._size = n
        self._nbytes = (n + 7) // 8
        self._id_rows = [_nibble_ids(position) for position in range(self._nbytes)]
        self._attached = np.zeros(n, dtype=bool)
        # Host bitsets (module docstring).
        #: Hosts hearing at least one frame on the air: the union of
        #: the masks of the frames on the air.
        self.busy = 0
        #: Hosts with a frame on the air.
        self.transmitting = 0
        #: Per-host sensed carrier (module docstring): busy between a
        #: busy edge and the next idle edge, and the instant of the last
        #: idle edge.
        self.sensed = 0
        self.idle_since = np.zeros(n, dtype=np.float64)
        #: Hosts whose listeners get medium edges.
        self.subscribed = 0
        #: The attached MACs' shared contention heap (see
        #: :mod:`repro.mac.csma`), made by the first of them.
        self.contention: Any = None
        #: Capture only: per-receiver arrival-ordered ``{sender: power}``.
        self._inboxes: Optional[List[Dict[int, float]]] = (
            [{} for _ in range(n)] if capture is not None else None
        )
        self._order = np.zeros(n, dtype=np.int64)
        # Whether attach order still equals id order; any detach (crash)
        # clears it and receivers are re-sorted from then on.
        self._sorted = True
        # What the listeners' edges go through: their class's
        # ``on_medium_edge`` if every listener attached so far shares one.
        self._edge: Optional[Callable[[Sequence[RadioListener], bool], None]] = None
        # Per-host tallies, folded into the dict/stats form whenever
        # ``stats`` is read.
        self._rx_air = np.zeros(n, dtype=np.float64)
        self._rx_seen = 0
        self._rx_order: List[int] = []
        self._mac_stats: Dict[int, Any] = {}
        # Receiver masks whose MAC ``frames_corrupted`` / ``frames_received``
        # bumps are not yet counted in.
        self._corrupted_log: List[int] = []
        self._received_log: List[int] = []
        # Any attached listener that wants per-frame corruption upcalls
        # forces the ordered dispatch loop at frame end.
        self._any_notify = False
        #: Optional ``hook(frame, receiver_ids) -> bool``, offered each
        #: frame's clean receivers (an id array in receiver order, which
        #: neither side may modify) at frame end on the untraced dispatch
        #: path.  ``True`` means the hook delivered the frame to all of
        #: them, standing in for their ``on_frame_received`` upcalls (the
        #: channel then counts each MAC's ``frames_received`` bump);
        #: ``False`` leaves them to the upcalls.
        #: :class:`repro.net.network.Network` sets it.
        self.bulk_delivery: Optional[Callable[[Any, np.ndarray], bool]] = None

    @property
    def params(self) -> PhyParams:
        return self._params

    @property
    def stats(self) -> ChannelStats:
        """Medium-wide counters, with the per-host tallies folded in.

        Per-host rx airtime accumulates in an array on the hot path, and
        the MAC ``frames_corrupted`` bumps of listeners that swallow
        corruption upcalls and the ``frames_received`` bumps of
        bulk-delivered frames as logs of receiver masks; each read
        rebuilds the rx-airtime dict in first-touch order (which fixes its
        float summation order) and adds the logged bumps to the MACs.
        Idempotent and safe mid-run.
        """
        rx_vec = self._rx_air
        rx_air = self._stats.rx_airtime
        rx_air.clear()
        for host_id in self._rx_order:
            rx_air[host_id] = float(rx_vec[host_id])
        self._fold_logs()
        return self._stats

    def _bit_counts(self, log: List[int]) -> List[Tuple[int, int]]:
        """``(host_id, count)`` for each host set in any mask of ``log``,
        which it empties."""
        nbytes = self._nbytes
        packed = np.frombuffer(
            b"".join([bits.to_bytes(nbytes, "little") for bits in log]),
            dtype=np.uint8,
        ).reshape(len(log), nbytes)
        log.clear()
        counts = np.unpackbits(packed, axis=1, bitorder="little").sum(axis=0)
        hosts = counts.nonzero()[0]
        return list(zip(hosts.tolist(), counts[hosts].tolist()))

    def _fold_logs(self) -> None:
        """Add the logged bumps to the MACs' ``frames_corrupted`` and
        ``frames_received``.

        Only listeners in ``_mac_stats`` reach the logs (any other forces
        the per-reception loop), and an entry outlives a detach.  A bump
        goes to the host's entry as of the fold; :meth:`attach` folds
        before a different stats object takes a host's entry, so that is
        the listener that heard the frame.
        """
        mac_stats = self._mac_stats
        if self._corrupted_log:
            for host_id, count in self._bit_counts(self._corrupted_log):
                mac_stats[host_id].frames_corrupted += count
        if self._received_log:
            for host_id, count in self._bit_counts(self._received_log):
                mac_stats[host_id].frames_received += count

    @property
    def drop_predicate(self) -> Optional[Callable[[int, int], bool]]:
        return self._drop_predicate

    @drop_predicate.setter
    def drop_predicate(
        self, predicate: Optional[Callable[[int, int], bool]]
    ) -> None:
        self._drop_predicate = predicate

    # ----------------------------------------------------- attach/detach

    def attach(self, host_id: int, listener: RadioListener) -> None:
        """Register a host's radio.  Host ids must be unique."""
        if host_id in self._listeners:
            raise ValueError(f"host {host_id} already attached")
        attached = self._attached
        if not 0 <= host_id < len(attached):
            raise ValueError(
                f"host {host_id} outside the position store's id range "
                f"0..{len(attached) - 1}"
            )
        self._listeners[host_id] = listener
        order = next(self._attach_counter)
        # Reception state is already clear: unattached hosts are never
        # scanned, and detach clears it.
        attached[host_id] = True
        self._order[host_id] = order
        bit = 1 << host_id
        self.sensed &= ~bit
        self.idle_since[host_id] = 0.0
        self.subscribed |= bit
        edge = getattr(
            type(listener), "on_medium_edge", RadioListener.on_medium_edge
        )
        if self._edge is None:
            self._edge = edge
        elif self._edge is not edge:
            self._edge = RadioListener.on_medium_edge
        stats_obj = getattr(listener, "stats", None)
        if (
            stats_obj is not None
            and getattr(listener, "_notify_corrupt", True) is False
        ):
            # MAC that swallows corruption upcalls: its counter can be
            # bumped in bulk from the corruption log at fold time.  The
            # bumps logged so far belong to the entry's current owner.
            if self._mac_stats.get(host_id, stats_obj) is not stats_obj:
                self._fold_logs()
            self._mac_stats[host_id] = stats_obj
        else:
            self._any_notify = True
        if host_id != order:
            self._sorted = False

    def detach(self, host_id: int) -> None:
        """Remove a host (e.g. crash / going offline).

        If the host is mid-transmission its frame is aborted first, so the
        scheduled end-of-frame event neither KeyErrors nor delivers a frame
        from a radio that no longer exists.  Receptions in progress at the
        host simply vanish: the host leaves each such frame's receivers.
        """
        if host_id in self._active:
            self.abort_transmission(host_id)
        self._listeners.pop(host_id, None)
        if 0 <= host_id < self._size:
            self._attached[host_id] = False
            bit = 1 << host_id
            keep = ~bit
            for tx in self._active.values():
                if tx.mask & bit:
                    tx.mask &= keep
                    tx.clean &= keep
                    ids = tx.receiver_ids
                    tx.receiver_ids = ids[ids != host_id]
            self.busy &= keep
            self.sensed &= keep
            self.idle_since[host_id] = 0.0
            self.subscribed &= keep
            if self._inboxes is not None:
                self._inboxes[host_id] = {}
            # A later re-attach gets a fresh (higher) order index, so
            # attach order and id order have permanently diverged.
            self._sorted = False

    def abort_transmission(self, sender_id: int) -> bool:
        """Truncate ``sender_id``'s in-flight frame (radio crash / power-off).

        The frame disappears from the air immediately: every receiver's
        reception of it is scrubbed without any delivery or corruption
        callback (a truncated frame fails its CRC and carries no decodable
        information; the energy stops now, so receivers left hearing
        nothing get a medium-idle edge).  TX/RX airtime counters are
        credited back for the unsent remainder.  Returns ``True`` if a
        frame was actually aborted, ``False`` if the host was not
        transmitting.
        """
        tx = self._active.pop(sender_id, None)
        if tx is None:
            return False
        if tx.end_event is not None:
            tx.end_event.cancel()
        now = self._scheduler.now
        remainder = max(0.0, tx.end_time - now)
        self._stats.aborted_frames += 1
        self._stats.add_tx_airtime(sender_id, -remainder)
        if self._trace is not None:
            kind, src, seq, _hops = frame_ident(tx.frame)
            self._trace.records.append(
                (now, "tx-abort", sender_id, kind, src, seq)
            )
        ids = tx.receiver_ids
        if ids.size:
            self._stats.truncated_receptions += int(ids.size)
            self._rx_air[ids] -= remainder
        self._off_air(tx)
        return True

    def close(self) -> None:
        """Let go of the listeners and the bulk-delivery hook, at the end
        of a simulation; :attr:`stats` stays readable."""
        self._listeners.clear()
        self.bulk_delivery = None

    @property
    def attached_ids(self) -> List[int]:
        return list(self._listeners)

    def is_transmitting(self, host_id: int) -> bool:
        return host_id in self._active

    def carrier_busy(self, host_id: int) -> bool:
        """Whether ``host_id`` senses energy (incoming or its own TX)."""
        return bool(self.busy >> host_id & 1) or host_id in self._active

    def _ids_in(self, bits: int, order: np.ndarray) -> List[int]:
        """The hosts set in ``bits`` (not 0), all in ``order`` (a scan's id
        array, in attach order as of that scan), in that order.

        While attach order is id order, that is bit order.
        """
        if not bits & (bits - 1):  # one host
            return [bits.bit_length() - 1]
        if not self._sorted:
            return [host_id for host_id in order.tolist() if bits >> host_id & 1]
        ids: List[int] = []
        for (low, high), byte in zip(
            self._id_rows, bits.to_bytes(self._nbytes, "little")
        ):
            if byte:
                ids += low[byte & 15]
                ids += high[byte >> 4]
        return ids

    def _scan(self, host_id: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The attached hosts within radio range of ``host_id`` (itself
        excluded), as an id array in attach order and as a bool mask over
        host ids, and every host's squared distance to it: one vectorized
        distance mask over the store's ``(2, n)`` positions, which the
        caller has brought to now."""
        xy = self._xy
        d = xy - xy[:, host_id, None]
        d *= d
        dsq = d[0]
        dsq += d[1]
        mask = dsq <= self._radio_radius_sq
        if len(self._listeners) < self._size:
            mask &= self._attached
        mask[host_id] = False
        ids = mask.nonzero()[0]
        if not self._sorted and ids.size > 1:
            ids = ids[np.argsort(self._order[ids], kind="stable")]
        self._stats.batch_scans += 1
        self._stats.vector_candidates += ids.size
        return ids, mask, dsq

    def neighbors_in_range(self, host_id: int) -> List[int]:
        """Geometric oracle: attached hosts within radio range right now."""
        self._store.arrays_at(self._scheduler._now)
        return self._scan(host_id)[0].tolist()

    def start_transmission(self, sender_id: int, frame: Any, duration: float) -> None:
        """Put ``frame`` on the air from ``sender_id`` for ``duration`` seconds.

        Called by the MAC exactly when transmission begins (after DIFS /
        backoff).  Raises if the sender is already transmitting.
        """
        if sender_id not in self._listeners:
            raise ValueError(f"host {sender_id} not attached")
        if sender_id in self._active:
            raise RuntimeError(f"host {sender_id} is already transmitting")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")

        scheduler = self._scheduler
        now = scheduler._now
        self._store.arrays_at(now)
        stats = self._stats
        stats.transmissions += 1
        stats.add_tx_airtime(sender_id, duration)

        ids, in_range, dsq = self._scan(sender_id)
        rx = (
            int.from_bytes(np.packbits(in_range, bitorder="little").tobytes(), "little")
            if ids.size else 0
        )
        busy = self.busy
        fresh = rx & ~busy
        overlapped = rx ^ fresh
        # Arrivals corrupted from their start: deaf (the receiver is
        # transmitting) or dropped (the predicate is asked about every
        # other receiver, in attach order).
        corrupted = rx & self.transmitting
        deaf_misses = _popcount(corrupted) if corrupted else 0
        drop_predicate = self._drop_predicate
        if drop_predicate is not None and rx:
            dropped = 0
            for host_id in ids.tolist():
                bit = 1 << host_id
                if not corrupted & bit and drop_predicate(sender_id, host_id):
                    dropped |= bit
            if dropped:
                stats.injected_drops += _popcount(dropped)
                corrupted |= dropped
        # Half-duplex: anything the sender was hearing is garbled now.
        # Without capture, the (at most one) clean reception at each
        # overlapped receiver flips as well.
        sender_bit = 1 << sender_id
        capture = self._inboxes is not None
        flip = sender_bit if capture else sender_bit | overlapped
        collisions = 0
        active = self._active
        for other in active.values():
            hit = other.clean & flip
            if hit:
                other.clean ^= hit
                if hit & sender_bit:
                    deaf_misses += 1
                    hit ^= sender_bit
                if hit:
                    collisions += _popcount(hit)
        tx = _Transmission(sender_id, frame, now + duration, ids, rx)
        active[sender_id] = tx
        self.transmitting |= sender_bit
        self.busy = busy | rx
        if capture:
            tx.clean = rx & ~corrupted
            if rx:
                collisions += self._arrive_capture(tx, dsq, overlapped)
        else:
            # The new arrival lands corrupted at every overlapped
            # receiver: one collision each, unless it already was.
            tx.clean = fresh & ~corrupted
            if overlapped:
                collisions += _popcount(overlapped & ~corrupted)
        if rx:
            first = rx & ~self._rx_seen
            if first:
                # First-touch order fixes the flushed rx_airtime dict's
                # summation order.
                self._rx_seen |= first
                self._rx_order += self._ids_in(first, ids)
            self._rx_air[ids] += duration

        if deaf_misses:
            stats.deaf_misses += deaf_misses
        if collisions:
            stats.collisions += collisions
        if self._trace is not None:
            kind, src, seq, hops = frame_ident(frame)
            self._trace.records.append((
                now, "tx-start", sender_id, kind, src, seq, hops, duration,
                len(ids),
            ))
        if fresh:
            scheduler.schedule_at(now, self._notify_busy, fresh, ids)
        tx.end_event = scheduler.schedule_at(
            now + duration, self._end_transmission, sender_id
        )

    def _arrive_capture(
        self, tx: _Transmission, dsq: np.ndarray, overlapped: int
    ) -> int:
        """Land ``tx`` in each receiver's capture inbox, in attach order,
        and return the collisions it caused.  ``dsq`` holds every host's
        squared distance from the sender (what the scan compared against
        the radius), ``overlapped`` the receivers that were already busy.

        Each still-clean frame in an overlap survives only if its power
        beats the summed power of the others by the capture threshold;
        once corrupted, a frame stays corrupted (receivers cannot resync
        mid-frame).
        """
        capture = self._capture
        power_of = capture.power
        survives = capture.survives
        inboxes = self._inboxes
        active = self._active
        sender_id = tx.sender_id
        ids = tx.receiver_ids
        collisions = 0
        for host_id, dist_sq in zip(ids.tolist(), dsq[ids].tolist()):
            inbox = inboxes[host_id]
            inbox[sender_id] = power_of(dist_sq ** 0.5)
            bit = 1 << host_id
            if not overlapped & bit:
                continue
            total = sum(inbox.values())
            for other_id, power in inbox.items():
                other = active[other_id]
                if other.clean & bit and not survives(power, total - power):
                    other.clean ^= bit
                    collisions += 1
        return collisions

    def _listeners_in(self, bits: int, order: np.ndarray) -> List[RadioListener]:
        listeners = self._listeners
        return [listeners[host_id] for host_id in self._ids_in(bits, order)]

    def _notify_busy(self, host_bits: int, order: np.ndarray) -> None:
        """The zero-delay busy edge of the hosts a frame found idle, in
        the order of its receivers, ``order``, as it started."""
        self.sensed |= host_bits
        subscribed = host_bits & self.subscribed
        if subscribed:
            self._edge(self._listeners_in(subscribed, order), True)

    def _off_air(self, tx: _Transmission) -> None:
        """Take ``tx``, already out of ``_active``, off the air: its
        receivers that hear nothing else get their idle edge."""
        self.transmitting &= ~(1 << tx.sender_id)
        mask = tx.mask
        if not mask:
            return
        ids = tx.receiver_ids
        inboxes = self._inboxes
        if inboxes is not None:
            sender_id = tx.sender_id
            for host_id in ids.tolist():
                del inboxes[host_id][sender_id]
        busy = 0
        for other in self._active.values():
            busy |= other.mask
        self.busy = busy
        idle = mask & ~busy
        if not idle:
            return
        self.sensed &= ~idle
        self.idle_since[ids if idle == mask else self._ids_in(idle, ids)] = (
            self._scheduler._now
        )
        subscribed = idle & self.subscribed
        if subscribed:
            self._edge(self._listeners_in(subscribed, ids), False)

    def _end_transmission(self, sender_id: int) -> None:
        """Frame end: idle edges fire first in receiver order, then
        reception outcomes dispatch in receiver order.  Receivers that
        detached mid-frame are skipped."""
        tx = self._active.pop(sender_id, None)
        if tx is None:  # aborted mid-frame (the end event should have been
            return      # cancelled; this guard makes the race harmless)
        ids = tx.receiver_ids
        mask = tx.mask
        clean = tx.clean
        self._off_air(tx)
        frame = tx.frame
        trace = self._trace
        deliveries = 0
        if trace is not None or self._any_notify:
            # Ordered per-reception dispatch: corruption upcalls and trace
            # records interleave with deliveries in receiver order.
            listeners_get = self._listeners.get
            if trace is not None:
                kind, src, seq, _hops = frame_ident(frame)
                trace_records = trace.records
                now = self._scheduler._now
            for host_id in ids.tolist():
                listener = listeners_get(host_id)
                if listener is None:
                    continue
                if clean >> host_id & 1:
                    deliveries += 1
                    if trace is not None:
                        trace_records.append(
                            (now, "rx", sender_id, host_id, kind, src, seq)
                        )
                    listener.on_frame_received(frame, sender_id)
                else:
                    if trace is not None:
                        trace_records.append(
                            (now, "rx-corrupt", sender_id, host_id, kind,
                             src, seq)
                        )
                    listener.on_frame_corrupted(frame, sender_id)
        else:
            if clean != mask:
                # Every attached listener swallows corruption upcalls
                # (MAC stat bump only): log the bumps; reading ``stats``
                # folds them into MacStats.
                log = self._corrupted_log
                log.append(mask & ~clean)
                if len(log) >= _FOLD_EVERY:
                    self._fold_logs()
            if clean:
                listed = None if clean == mask else self._ids_in(clean, ids)
                deliveries = len(ids) if listed is None else len(listed)
                bulk = self.bulk_delivery
                if bulk is not None and bulk(
                    frame, ids if listed is None else np.array(listed)
                ):
                    # The MACs' ``frames_received`` bumps, one per
                    # receiver, counted in later.
                    log = self._received_log
                    log.append(clean)
                    if len(log) >= _FOLD_EVERY:
                        self._fold_logs()
                else:
                    listeners_get = self._listeners.get
                    for host_id in ids.tolist() if listed is None else listed:
                        listener = listeners_get(host_id)
                        if listener is not None:
                            listener.on_frame_received(frame, sender_id)
        if deliveries:
            self._stats.deliveries += deliveries
