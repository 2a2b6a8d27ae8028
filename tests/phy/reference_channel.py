"""The reference model of the radio medium: per-host numpy arrays.

This is the channel the simulator used before its per-host carrier and
reception state moved into host bitsets (:mod:`repro.phy.channel`).  It
keeps a per-receiver in-flight count and clean-sender slot, bool arrays
for sensed carrier, edge subscription and transmitting hosts, and
array-accumulated per-host tallies.  Property tests drive it and
:class:`repro.phy.channel.Channel` through the same schedules and compare
every upcall, every counter and every per-host tally.

Listeners see the same edges as on the live channel, one
``on_medium_state`` upcall per subscribed host; a listener clears its
subscription with ``channel.subscribed[host_id] = False``.

Reception state rests on the *all-corrupted invariant* of the no-capture
collision rule: any arrival into a busy receiver garbles everything it
is hearing, and receptions only leave by ending, so at every instant a
receiver has at most one clean reception (the first frame into an idle
receiver).  An in-flight count plus a single clean-sender slot per
receiver therefore carry the full reception state.  A capture model
breaks that invariant, so with one set each receiver also keeps an
arrival-ordered ``{sender: [power, corrupted]}`` inbox.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.mobility.store import PositionStore
from repro.phy.capture import CaptureModel
from repro.phy.channel import ChannelStats, RadioListener
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler
from repro.trace.recorder import frame_ident


#: Bulk deliveries to at least this many receivers log their receiver
#: arrays for the MACs' ``frames_received`` bumps, and this many logged
#: arrays are counted and folded in at once (a bound on the memory they
#: hold); fewer receivers are bumped one by one at once.
_LOG_FROM = 12
_FOLD_EVERY = 256

# One capture-inbox entry: [power, corrupted].
_RX_POWER = 0
_RX_CORRUPTED = 1


class _Transmission:
    __slots__ = (
        "sender_id", "frame", "end_time", "receiver_ids", "lost", "end_event",
    )

    def __init__(
        self,
        sender_id: int,
        frame: Any,
        end_time: float,
        receiver_ids: np.ndarray,
    ) -> None:
        self.sender_id = sender_id
        self.frame = frame
        self.end_time = end_time
        self.receiver_ids = receiver_ids
        #: Receivers that detached mid-frame (a crash): the frame's end
        #: skips them, also if they have re-attached since.
        self.lost: Set[int] = set()
        self.end_event: Any = None

    def heard_to_end(self) -> np.ndarray:
        """The receivers not lost to a detach."""
        ids = self.receiver_ids
        lost = self.lost
        if not lost:
            return ids
        return ids[np.isin(ids, list(lost), invert=True)]


class ReferenceChannel:
    """Unit-disk broadcast medium with receiver-side collisions, its
    per-host state in numpy arrays.

    Host ids are the rows ``0 .. store.size - 1`` of ``position_store``.
    """

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
        self._attached = np.zeros(n, dtype=bool)
        #: Per-host sensed carrier (above): busy between a
        #: busy edge and the next idle edge, and the instant of the last
        #: idle edge.
        self.sensed_busy = np.zeros(n, dtype=bool)
        self.idle_since = np.zeros(n, dtype=np.float64)
        #: Hosts whose listener gets ``on_medium_state`` calls.
        self.subscribed = np.zeros(n, dtype=bool)
        # Reception state (above): in-flight count + the id of
        # the at most one clean reception's sender (-1 none) per receiver.
        self._inflight = np.zeros(n, dtype=np.int32)
        self._clean_sender = np.full(n, -1, dtype=np.int32)
        self._transmitting = np.zeros(n, dtype=bool)
        #: Capture only: per-receiver arrival-ordered inbox.
        self._inboxes: Optional[List[Dict[int, list]]] = (
            [{} for _ in range(n)] if capture is not None else None
        )
        self._order = np.zeros(n, dtype=np.int64)
        # Whether attach order still equals id order; any detach (crash)
        # clears it and matched sets are re-sorted per scan from then on.
        self._sorted = True
        # Array-accumulated per-host tallies, folded into the dict/stats
        # form whenever ``stats`` is read.
        self._corrupted = np.zeros(n, dtype=np.int64)
        self._corrupted_flushed = np.zeros(n, dtype=np.int64)
        self._rx_air = np.zeros(n, dtype=np.float64)
        self._rx_seen = np.zeros(n, dtype=bool)
        self._rx_order: List[int] = []
        self._mac_stats: Dict[int, Any] = {}
        # Receiver arrays of the large frames the bulk-delivery hook
        # took, not yet counted into the MACs' ``frames_received``.
        self._bulk_received: List[np.ndarray] = []
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

        Per-host rx airtime and the MAC ``frames_corrupted`` bumps of
        listeners that swallow corruption upcalls accumulate in arrays on
        the hot path, and the ``frames_received`` bumps of large
        bulk-delivered frames as a list of receiver arrays; each read
        rebuilds the rx-airtime dict from them in first-touch order (which
        fixes its float summation order) and delta-flushes the MAC bumps.
        Idempotent and safe mid-run.
        """
        rx_vec = self._rx_air
        rx_air = self._stats.rx_airtime
        rx_air.clear()
        for host_id in self._rx_order:
            rx_air[host_id] = float(rx_vec[host_id])
        corrupted = self._corrupted
        flushed = self._corrupted_flushed
        pending = corrupted - flushed
        if pending.any():
            mac_stats = self._mac_stats
            for host_id in np.nonzero(pending)[0].tolist():
                stats_obj = mac_stats.get(host_id)
                if stats_obj is not None:
                    stats_obj.frames_corrupted += int(pending[host_id])
            flushed[:] = corrupted
        if self._bulk_received:
            self._fold_bulk_received()
        return self._stats

    def _fold_bulk_received(self) -> None:
        """Add the waiting bulk deliveries to the MACs' ``frames_received``.

        Only listeners in ``_mac_stats`` reach the bulk path (any other
        forces the per-reception loop), and an entry outlives a detach.
        """
        received = self._bulk_received
        counts = np.bincount(np.concatenate(received), minlength=self._size)
        received.clear()
        mac_stats = self._mac_stats
        for host_id, count in enumerate(counts.tolist()):
            if count:
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
        # Reception state is already clear: it starts zeroed, unattached
        # hosts are never scanned, and detach clears it.
        attached[host_id] = True
        self._order[host_id] = order
        self.sensed_busy[host_id] = False
        self.idle_since[host_id] = 0.0
        self.subscribed[host_id] = True
        stats_obj = getattr(listener, "stats", None)
        if (
            stats_obj is not None
            and getattr(listener, "_notify_corrupt", True) is False
        ):
            # MAC that swallows corruption upcalls: its counter can be
            # bumped in bulk from the corruption array at flush time.
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
        host simply vanish: the host joins each such frame's lost set.
        """
        if host_id in self._active:
            self.abort_transmission(host_id)
        self._listeners.pop(host_id, None)
        if 0 <= host_id < len(self._attached):
            self._attached[host_id] = False
            for tx in self._active.values():
                if host_id in tx.receiver_ids:
                    tx.lost.add(host_id)
            self._inflight[host_id] = 0
            self._clean_sender[host_id] = -1
            self.sensed_busy[host_id] = False
            self.idle_since[host_id] = 0.0
            self.subscribed[host_id] = False
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
        self._transmitting[sender_id] = False
        if not tx.receiver_ids.size:
            return True
        vids = tx.heard_to_end()
        inflight = self._inflight
        inflight[vids] -= 1
        self._stats.truncated_receptions += int(vids.size)
        self._rx_air[vids] -= remainder
        inboxes = self._inboxes
        if inboxes is None:
            clean_sender = self._clean_sender
            mine = vids[clean_sender[vids] == sender_id]
            if mine.size:
                clean_sender[mine] = -1
        else:
            for host_id in vids.tolist():
                del inboxes[host_id][sender_id]
        idle = vids[inflight[vids] == 0]
        if idle.size:
            self._idle_edge(idle)
        return True

    @property
    def attached_ids(self) -> List[int]:
        return list(self._listeners)

    def is_transmitting(self, host_id: int) -> bool:
        return host_id in self._active

    def carrier_busy(self, host_id: int) -> bool:
        """Whether ``host_id`` senses energy (incoming or its own TX)."""
        return bool(self._inflight[host_id]) or host_id in self._active

    def _scan(self, host_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """The attached hosts within radio range of ``host_id`` (itself
        excluded), in attach order, and every host's squared distance to
        it: one vectorized distance mask over the store's ``(2, n)``
        positions, which the caller has brought to now."""
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
        return ids, dsq

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

        # (deaf_misses / collisions accumulate in locals through the
        # receiver scan; slot stores are hoisted out.)
        deaf_misses = 0
        collisions = 0
        drop_predicate = self._drop_predicate
        inflight = self._inflight
        clean_sender = self._clean_sender
        transmitting = self._transmitting
        inboxes = self._inboxes
        # Half-duplex: anything the sender was receiving is now garbled.
        # Without capture at most one clean reception can exist (module
        # docstring), so the whole sweep is one slot check.
        if inboxes is None:
            if clean_sender[sender_id] >= 0:
                clean_sender[sender_id] = -1
                deaf_misses += 1
        else:
            for reception in inboxes[sender_id].values():
                if not reception[_RX_CORRUPTED]:
                    reception[_RX_CORRUPTED] = True
                    deaf_misses += 1
        ids, dsq = self._scan(sender_id)
        # No other frame on the air: every receiver is idle and none is
        # transmitting (above).
        quiet = not self._active
        tx = _Transmission(sender_id, frame, now + duration, ids)
        self._active[sender_id] = tx
        transmitting[sender_id] = True
        newly_busy = ids
        if ids.size:
            rx_order = self._rx_order
            if len(rx_order) < self._size:
                # Track first-touch order so the flushed rx_airtime dict
                # sums in the order receivers first heard anything.
                rx_seen = self._rx_seen
                new_first = ids[~rx_seen[ids]]
                if new_first.size:
                    rx_seen[new_first] = True
                    rx_order.extend(new_first.tolist())
            self._rx_air[ids] += duration
            if quiet and inboxes is None and drop_predicate is None:
                inflight[ids] = 1
                clean_sender[ids] = sender_id
            else:
                prev = inflight[ids]
                inflight[ids] = prev + 1
                fresh = prev == 0
                n_fresh = np.count_nonzero(fresh)
                if n_fresh < ids.size:
                    newly_busy = ids[fresh]
                # Arrivals corrupted from their start: deaf (the receiver
                # is transmitting) or dropped (the predicate is asked about
                # every other receiver, in attach order).
                corrupted = transmitting[ids]
                n_deaf = int(np.count_nonzero(corrupted))
                deaf_misses += n_deaf
                n_corrupted = n_deaf
                if drop_predicate is not None:
                    corrupted = np.array([
                        deaf or drop_predicate(sender_id, host_id)
                        for host_id, deaf in zip(
                            ids.tolist(), corrupted.tolist()
                        )
                    ], dtype=bool)
                    n_corrupted = int(np.count_nonzero(corrupted))
                    stats.injected_drops += n_corrupted - n_deaf
                if inboxes is not None:
                    collisions += self._arrive_capture(
                        sender_id, dsq[ids], ids, prev, corrupted
                    )
                else:
                    if n_fresh == ids.size:
                        new_clean = ids[~corrupted] if n_corrupted else ids
                    else:
                        # Overlap rule, batched: the (at most one) clean
                        # reception already at each overlapped receiver
                        # flips, and the new arrival lands corrupted --
                        # one collision each, unless it already was.
                        overlapped = ~fresh
                        overlap_ids = ids[overlapped]
                        old_clean = overlap_ids[
                            clean_sender[overlap_ids] >= 0
                        ]
                        if old_clean.size:
                            collisions += old_clean.size
                            clean_sender[old_clean] = -1
                        collisions += overlap_ids.size - int(
                            np.count_nonzero(corrupted[overlapped])
                        )
                        new_clean = (
                            ids[fresh & ~corrupted] if n_corrupted
                            else newly_busy
                        )
                    if new_clean.size:
                        clean_sender[new_clean] = sender_id

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
        if newly_busy.size:
            scheduler.schedule_at(now, self._notify_busy, newly_busy)
        tx.end_event = scheduler.schedule_at(
            now + duration, self._end_transmission, sender_id
        )

    def _arrive_capture(
        self,
        sender_id: int,
        dsq: np.ndarray,
        ids: np.ndarray,
        prev: np.ndarray,
        corrupted: np.ndarray,
    ) -> int:
        """Land one frame in each receiver's capture inbox, in attach
        order, and return the collisions it caused.  ``dsq`` holds the
        receivers' squared distances from the sender (the ones the scan
        compared against the radius), ``prev`` their in-flight counts
        before this frame and ``corrupted`` whether it arrives corrupted.

        Each still-clean frame in an overlap survives only if its power
        beats the summed power of the others by the capture threshold;
        once corrupted, a frame stays corrupted (receivers cannot resync
        mid-frame).
        """
        capture = self._capture
        power_of = capture.power
        survives = capture.survives
        inboxes = self._inboxes
        collisions = 0
        for host_id, dist_sq, garbled, count in zip(
            ids.tolist(), dsq.tolist(), corrupted.tolist(), prev.tolist(),
        ):
            inbox = inboxes[host_id]
            inbox[sender_id] = [power_of(dist_sq ** 0.5), garbled]
            if not count:
                continue
            total = sum(r[_RX_POWER] for r in inbox.values())
            for reception in inbox.values():
                if reception[_RX_CORRUPTED]:
                    continue
                power = reception[_RX_POWER]
                if not survives(power, total - power):
                    reception[_RX_CORRUPTED] = True
                    collisions += 1
        return collisions

    def _notify_busy(self, host_ids: np.ndarray) -> None:
        """The zero-delay busy edge of the hosts a frame found idle."""
        self.sensed_busy[host_ids] = True
        subscribed = host_ids[self.subscribed[host_ids]]
        if subscribed.size:
            listeners = self._listeners
            for host_id in subscribed.tolist():
                listeners[host_id].on_medium_state(True)

    def _idle_edge(self, host_ids: np.ndarray) -> None:
        """Idle edge of ``host_ids``, which now hear nothing."""
        self.sensed_busy[host_ids] = False
        self.idle_since[host_ids] = self._scheduler._now
        subscribed = host_ids[self.subscribed[host_ids]]
        if subscribed.size:
            listeners = self._listeners
            for host_id in subscribed.tolist():
                listeners[host_id].on_medium_state(False)

    def _end_transmission(self, sender_id: int) -> None:
        """Frame end: idle edges fire first in receiver order, then
        reception outcomes dispatch in receiver order.  Receivers in the
        frame's lost set (detached mid-frame) are skipped."""
        tx = self._active.pop(sender_id, None)
        if tx is None:  # aborted mid-frame (the end event should have been
            return      # cancelled; this guard makes the race harmless)
        self._transmitting[sender_id] = False
        vids = tx.heard_to_end()
        size = vids.size
        inboxes = self._inboxes
        if inboxes is None:
            clean_sender = self._clean_sender
            clean = clean_sender[vids] == sender_id
            n_clean = int(np.count_nonzero(clean))
            delivered = vids if n_clean == size else vids[clean]
            if n_clean:
                clean_sender[delivered] = -1
        else:
            clean = np.array(
                [
                    not inboxes[host_id].pop(sender_id)[_RX_CORRUPTED]
                    for host_id in vids.tolist()
                ],
                dtype=bool,
            )
            delivered = vids[clean]
            n_clean = delivered.size
        if size:
            inflight = self._inflight
            if self._active:
                inflight[vids] -= 1
                still = inflight[vids]
                idle = vids[still == 0] if np.count_nonzero(still) else vids
            else:
                # No frame left on the air: this one was all each
                # receiver heard.
                inflight[vids] = 0
                idle = vids
            if idle.size:
                self._idle_edge(idle)
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
            for host_id, is_clean in zip(vids.tolist(), clean.tolist()):
                listener = listeners_get(host_id)
                if listener is None:
                    continue
                if is_clean:
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
            if n_clean < size:
                # Every attached listener swallows corruption upcalls
                # (MAC stat bump only) -- accumulate the bumps in the
                # array; reading ``stats`` folds them into MacStats.
                self._corrupted[vids[~clean]] += 1
            deliveries = n_clean
            if deliveries:
                bulk = self.bulk_delivery
                if bulk is not None and bulk(frame, delivered):
                    # The MACs' ``frames_received`` bumps, one per
                    # receiver: at once for a few, else counted later in
                    # one numpy pass.
                    if n_clean < _LOG_FROM:
                        mac_stats = self._mac_stats
                        for host_id in delivered.tolist():
                            mac_stats[host_id].frames_received += 1
                    else:
                        received = self._bulk_received
                        received.append(delivered)
                        if len(received) >= _FOLD_EVERY:
                            self._fold_bulk_received()
                else:
                    listeners_get = self._listeners.get
                    for host_id in delivered.tolist():
                        listener = listeners_get(host_id)
                        if listener is not None:
                            listener.on_frame_received(frame, sender_id)
        if deliveries:
            self._stats.deliveries += deliveries
