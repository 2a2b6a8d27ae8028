"""Per-host CSMA/CA distributed coordination function, broadcast only.

Behaviour (DCF, IEEE Std 802.11-1997, the paper's regime):

- A frame arriving at an idle MAC whose medium has been idle for at least
  DIFS is transmitted immediately; if the idle period is shorter, the MAC
  must go through the random backoff procedure.
- A frame arriving while the medium is busy (or while a backoff is pending)
  is queued; access then always uses random backoff.
- The backoff counter is drawn uniformly from ``[0, CW]`` and counts down
  one slot at a time while the medium is idle after a DIFS; it freezes when
  the medium goes busy and resumes (not redraws) on the next idle DIFS.
- After **every** transmission the MAC performs a post-transmission backoff,
  even with an empty queue.
- Frames are never acknowledged or retransmitted, so the contention
  window stays at ``cw_min``.

The MAC puts the upper-layer packet itself on the air, since a broadcast
frame has no destination to add, and passes each clean reception up with
the channel's ``sender_id``.

Carrier sense is read from the channel's per-host state (the host's bit
of :attr:`~repro.phy.channel.Channel.sensed` and its
:attr:`~repro.phy.channel.Channel.idle_since`).  The channel hands each
medium edge to :meth:`CsmaCaMac.on_medium_edge`, which freezes (busy) or
resumes (idle) every subscribed MAC the edge reaches in one loop, in
the frame's receiver order.  A MAC with no pending access, no backoff
and no live queued frame ignores every medium edge, so it clears its bit
in :attr:`~repro.phy.channel.Channel.subscribed` when an edge (or a
resume) finds it so, and sets the bit again whenever it queues a frame
or draws a backoff.

The contention heap.  On a dense map an idle edge resumes dozens of MACs
and the next busy edge, one access later, freezes all the others, so
most accesses never fire.  Only the first access a resume schedules gets
a scheduler event of its own; each further one becomes a ``(fire_at,
seq, mac)`` entry in one heap that all the MACs on the channel share,
where ``seq`` is drawn from the scheduler's sequence counter as the event
it stands for would have been.  The earliest live entry always holds a
scheduler event, pushed under that ``seq``
(:meth:`~repro.sim.engine.Scheduler._push`), so accesses fire in the
order, and at the instants, that one event each would give.  Arming is
lazy: an earlier arrival is armed beside a later entry that already is.
A freeze only marks its MACs' entries dead (and cancels the events of
those that hold one); the head is re-armed when it fires or dies, and
the heap is emptied at once when no live entry is left.

The scheme layer interacts through :meth:`CsmaCaMac.send`, which returns a
:class:`MacFrameHandle`; the paper's scheme step S5 ("cancel the
transmission of P") maps to :meth:`MacFrameHandle.cancel`, legal any time
before the frame is on the air, and scheme step S3 ("packet P is on the
air") maps to the handle's ``on_transmit_start`` callback.
"""

from __future__ import annotations

import math
import random
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, Optional, Sequence

from repro.phy.channel import Channel, RadioListener
from repro.phy.params import PhyParams
from repro.sim.engine import Event, Scheduler
from repro.trace.recorder import frame_ident

__all__ = ["CsmaCaMac", "MacFrameHandle", "MacReceiver", "MacStats"]

#: ``CsmaCaMac._access_seq`` of an access with a scheduler event of its own
#: (the contention heap's entries have their ``seq``, which is >= 0).
_OWN_EVENT = -1


class MacReceiver:
    """Upper-layer interface a host implements to receive from its MAC."""

    def on_frame_received(self, frame: Any, sender_id: int) -> None:
        raise NotImplementedError

    def on_frame_corrupted(self, frame: Any, sender_id: int) -> None:
        """Optional: a frame was heard but garbled."""

    #: Set to ``False`` on receivers whose ``on_frame_corrupted`` is a
    #: no-op: the MAC then skips the upcall entirely (it fires once per
    #: garbled frame per receiver -- the hottest callback in a storm).
    #: MAC-level corruption counters are maintained either way.
    handles_corrupted_frames: bool = True


class MacStats:
    """Per-host MAC counters (a ``__slots__`` class; these are bumped on
    every frame event)."""

    __slots__ = (
        "frames_sent", "frames_cancelled", "frames_flushed",
        "frames_received", "frames_corrupted", "backoffs_started",
    )

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_cancelled = 0
        self.frames_flushed = 0  # queued frames discarded by a crash/shutdown
        self.frames_received = 0
        self.frames_corrupted = 0
        self.backoffs_started = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MacStats):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # mutable counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"MacStats({fields})"


class MacFrameHandle:
    """A queued frame; lets the sender cancel it before it is on the air."""

    __slots__ = (
        "frame", "size_bytes", "on_transmit_start", "cancelled", "transmitted",
    )

    def __init__(
        self,
        frame: Any,
        size_bytes: int,
        on_transmit_start: Optional[Callable[[], None]],
    ) -> None:
        self.frame = frame
        self.size_bytes = size_bytes
        self.on_transmit_start = on_transmit_start
        self.cancelled = False
        self.transmitted = False

    def cancel(self) -> bool:
        """Withdraw the frame.  Returns ``True`` if it had not yet started
        transmitting (i.e. the cancellation took effect)."""
        if self.transmitted:
            return False
        self.cancelled = True
        # The callback would never fire; dropping it frees whatever it
        # holds (a scheme's pending state holds this handle in turn).
        self.on_transmit_start = None
        return True


class CsmaCaMac(RadioListener):
    """One host's MAC entity."""

    __slots__ = (
        "host_id", "_scheduler", "_channel", "_params", "_rng", "_receiver",
        "stats", "_queue", "_transmitting", "_bit", "_idle_since",
        "_last_tx_end", "_cw_min", "_backoff_remaining", "_countdown_base",
        "_access_event", "_access_seq", "_contention", "_tx_done_event",
        "_dead", "_difs", "_slot_time", "_airtime_cache", "_notify_corrupt",
        "_trace",
    )

    def __init__(
        self,
        host_id: int,
        scheduler: Scheduler,
        channel: Channel,
        params: PhyParams,
        rng: random.Random,
        receiver: MacReceiver,
        trace: Optional[Any] = None,
    ) -> None:
        self.host_id = host_id
        self._scheduler = scheduler
        self._channel = channel
        self._params = params
        self._rng = rng
        self._receiver = receiver
        self._trace = trace
        self.stats = MacStats()

        # PhyParams is frozen: hoist the per-event timing constants and
        # precompute frame airtimes (the same few sizes recur all run).
        self._difs = params.difs
        self._slot_time = params.slot_time
        self._airtime_cache: Dict[int, float] = {}
        self._notify_corrupt = getattr(
            receiver, "handles_corrupted_frames", True
        )

        self._queue: Deque[MacFrameHandle] = deque()
        self._transmitting = False
        #: This host's bit in the channel's host bitsets.
        self._bit = 1 << host_id
        self._idle_since = channel.idle_since
        self._last_tx_end = 0.0
        #: The contention window, which never grows: no frame is ever
        #: retransmitted.
        self._cw_min = params.cw_min
        self._backoff_remaining: Optional[int] = None
        self._countdown_base: Optional[float] = None
        #: The pending access: ``_OWN_EVENT`` while it has a scheduler
        #: event of its own, its entry's ``seq`` while it waits in the
        #: contention heap, ``None`` when no access is pending.
        self._access_seq: Optional[int] = None
        #: The scheduler event that fires the pending access, if it has
        #: one: its own, or the armed event of its contention entry.
        self._access_event: Optional[Event] = None
        contention = channel.contention
        if contention is None:
            contention = channel.contention = _Contention()
        self._contention = contention
        self._tx_done_event: Optional[Event] = None
        self._dead = False

        channel.attach(host_id, self)

    # ------------------------------------------------------------------ API

    def send(
        self,
        frame: Any,
        size_bytes: int,
        on_transmit_start: Optional[Callable[[], None]] = None,
    ) -> MacFrameHandle:
        """Queue ``frame`` for broadcast transmission.

        ``on_transmit_start`` fires at the instant the frame goes on the air
        (the scheme's "transmission actually starts").  The returned handle
        supports :meth:`MacFrameHandle.cancel`.
        """
        if self._dead:
            raise RuntimeError(f"host {self.host_id}: MAC is shut down")
        handle = MacFrameHandle(frame, size_bytes, on_transmit_start)
        if self._trace is not None:
            kind, src, seq, _hops = frame_ident(frame)
            self._trace.records.append((
                self._scheduler._now, "mac-enqueue", self.host_id, kind,
                src, seq,
            ))
        self._queue.append(handle)
        channel = self._channel
        channel.subscribed |= self._bit
        if self._transmitting or self._access_seq is not None:
            return handle
        if channel.sensed & self._bit:
            # Deferred arrival: access must use the backoff procedure.
            if self._backoff_remaining is None:
                self._backoff_remaining = self._draw_backoff()
            return handle
        if self._backoff_remaining is None:
            idle_since = self._idle_since.item(self.host_id)
            last_end = self._last_tx_end
            idle_base = idle_since if idle_since >= last_end else last_end
            if self._scheduler._now - idle_base >= self._difs:
                # Medium already idle >= DIFS: immediate access.
                self._start_transmission()
                return handle
            # Idle but not yet for a full DIFS: per DCF the station must
            # go through the random backoff procedure.
            self._backoff_remaining = self._draw_backoff()
        self._maybe_resume()
        return handle

    @property
    def queue_length(self) -> int:
        """Frames waiting (cancelled husks excluded)."""
        return sum(1 for h in self._queue if not h.cancelled)

    @property
    def is_transmitting(self) -> bool:
        return self._transmitting

    @property
    def is_shut_down(self) -> bool:
        return self._dead

    # ------------------------------------------------- crash / recover

    def shutdown(self) -> None:
        """Power the radio off (host crash).

        Aborts any in-flight transmission at the channel, withdraws the
        pending access (its event or contention entry; no ``mac-freeze``
        record), cancels the tx-done event, flushes the queue and detaches
        from the channel.  Idempotent.
        """
        if self._dead:
            return
        self._dead = True
        if self._transmitting:
            self._channel.abort_transmission(self.host_id)
            self._transmitting = False
        withdrawn = self._access_seq
        self._access_seq = None
        for event in (self._access_event, self._tx_done_event):
            if event is not None:
                event.cancel()
        self._access_event = None
        self._tx_done_event = None
        if withdrawn is not None and withdrawn != _OWN_EVENT:
            _settle(self._contention, -1)
        self.stats.frames_flushed += sum(
            1 for handle in self._queue if not handle.cancelled
        )
        self._queue.clear()
        self._backoff_remaining = None
        self._countdown_base = None
        self._channel.detach(self.host_id)

    def restart(self) -> None:
        """Power the radio back on after :meth:`shutdown` (host recovery).

        Re-attaches to the channel with a clean slate: empty queue, fresh
        contention state, and the medium assumed idle as of now (frames
        already in flight froze their receiver sets at tx-start, so the
        re-attached radio hears nothing until the next frame begins --
        exactly like a station that just powered on mid-frame).
        """
        if not self._dead:
            raise RuntimeError(f"host {self.host_id}: MAC is not shut down")
        self._dead = False
        self._channel.attach(self.host_id, self)
        now = self._scheduler.now
        self._idle_since[self.host_id] = now
        self._last_tx_end = now

    def close(self) -> None:
        """Let go of the receiver, the queued frames (whose callbacks hold
        the host) and the channel's contention entries (which hold the
        MACs), at the end of a simulation; :attr:`stats` stays readable."""
        self._receiver = None
        self._queue.clear()
        self._contention.heap.clear()

    # --------------------------------------------------- channel callbacks

    def on_medium_state(self, busy: bool) -> None:
        # One MAC's share of an edge: the channel hands whole edges to
        # ``on_medium_edge`` if every listener attached so far is one.
        self.on_medium_edge((self,), busy)

    @staticmethod
    def on_medium_edge(macs: Sequence["CsmaCaMac"], busy: bool) -> None:
        """A medium edge for ``macs``, subscribed, in the frame's receiver
        order; the channel has already recorded it in its carrier-sense
        state."""
        if busy:
            _freeze(macs)
        else:
            _resume(macs, at_edge=True)

    def on_frame_received(self, frame: Any, sender_id: int) -> None:
        self.stats.frames_received += 1
        self._receiver.on_frame_received(frame, sender_id)

    def on_frame_corrupted(self, frame: Any, sender_id: int) -> None:
        self.stats.frames_corrupted += 1
        if self._notify_corrupt:
            self._receiver.on_frame_corrupted(frame, sender_id)

    # ------------------------------------------------------------ internals

    def _airtime(self, size_bytes: int) -> float:
        """Frame airtime, memoized per size (the same few sizes recur)."""
        cache = self._airtime_cache
        duration = cache.get(size_bytes)
        if duration is None:
            duration = cache[size_bytes] = self._params.airtime(size_bytes)
        return duration

    def _draw_backoff(self) -> int:
        self._channel.subscribed |= self._bit
        self.stats.backoffs_started += 1
        # ``randint(0, cw)`` reduces to exactly this draw.
        slots = self._rng._randbelow(self._cw_min + 1)
        if self._trace is not None:
            self._trace.records.append((
                self._scheduler._now, "mac-backoff", self.host_id, slots,
                self._cw_min,
            ))
        return slots

    def _maybe_resume(self) -> None:
        """Schedule the next access completion if the medium allows it."""
        _resume((self,), at_edge=False)

    def _access_fire(self) -> None:
        self._access_event = None
        self._access_seq = None
        self._backoff_remaining = None
        self._countdown_base = None
        self._start_transmission()

    def _start_transmission(self) -> None:
        while self._queue and self._queue[0].cancelled:
            self._queue.popleft()
            self.stats.frames_cancelled += 1
        if not self._queue:
            return
        handle = self._queue.popleft()
        handle.transmitted = True
        self._transmitting = True
        self.stats.frames_sent += 1
        duration = self._airtime(handle.size_bytes)
        on_transmit_start = handle.on_transmit_start
        if on_transmit_start is not None:
            # Dropped once fired, as by ``cancel``: whatever holds the
            # handle need not hold the callback too.
            handle.on_transmit_start = None
            on_transmit_start()
        self._channel.start_transmission(self.host_id, handle.frame, duration)
        self._tx_done_event = self._scheduler.schedule(duration, self._tx_done)

    def _tx_done(self) -> None:
        self._tx_done_event = None
        self._transmitting = False
        self._last_tx_end = self._scheduler._now
        self._backoff_remaining = self._draw_backoff()
        self._maybe_resume()


class _Contention:
    """The contention heap of the MACs on one channel (module docstring)."""

    __slots__ = ("heap", "live")

    def __init__(self) -> None:
        #: ``(fire_at, seq, mac)`` entries.  An entry is live while its
        #: MAC's ``_access_seq`` is its ``seq``; the head is live, or the
        #: heap is empty.
        self.heap: list = []
        #: How many entries are live.
        self.live = 0


def _settle(contention: _Contention, change: int) -> None:
    """``change`` entries became live (or, negative, died or fired): make
    the earliest live entry the head and arm it if it has no event, or
    empty the heap if no entry is live."""
    live = contention.live + change
    contention.live = live
    heap = contention.heap
    if not live:
        heap.clear()
        return
    head = heap[0]
    while head[2]._access_seq != head[1]:
        heappop(heap)
        head = heap[0]
    mac = head[2]
    if mac._access_event is None:
        mac._access_event = mac._scheduler._push(
            head[0], head[1], _fire_head, contention
        )


def _fire_head(contention: _Contention) -> None:
    """The head's event: the next live entry is armed, then the head's
    MAC accesses the medium."""
    mac = heappop(contention.heap)[2]
    _settle(contention, -1)
    mac._access_fire()


def _freeze(macs: Sequence[CsmaCaMac]) -> None:
    """The medium went busy for each of ``macs``: withdraw its pending
    access and bank the backoff slots that elapsed.  A MAC with nothing
    to contend for leaves the channel's edge subscription.

    Access events are marked cancelled in place, and contention entries
    dead; the scheduler and the contention heap hear how many once, at
    the end.
    """
    first = macs[0]
    scheduler = first._scheduler
    now = scheduler._now
    cancelled = 0
    withdrawn = 0
    quiet = 0
    for mac in macs:
        seq = mac._access_seq
        if seq is not None:
            mac._access_seq = None
            event = mac._access_event
            if event is not None:
                event.cancelled = True
                cancelled += 1
                mac._access_event = None
            if seq != _OWN_EVENT:
                withdrawn += 1
            remaining = mac._backoff_remaining
            base = mac._countdown_base
            if remaining is not None and base is not None:
                consumed = math.floor((now - base) / mac._slot_time)
                if consumed > 0:
                    remaining -= consumed
                    mac._backoff_remaining = remaining if remaining > 0 else 0
            mac._countdown_base = None
            if mac._trace is not None:
                mac._trace.records.append((
                    now, "mac-freeze", mac.host_id, mac._backoff_remaining,
                ))
        elif mac._backoff_remaining is None:
            for handle in mac._queue:
                if not handle.cancelled:
                    break
            else:
                # Nothing to contend for: no edge matters until the next
                # send or backoff.
                quiet |= mac._bit
    if quiet:
        first._channel.subscribed &= ~quiet
    if cancelled:
        scheduler._note_cancelled(cancelled)
    if withdrawn:
        _settle(first._contention, -withdrawn)


def _resume(macs: Sequence[CsmaCaMac], at_edge: bool) -> None:
    """Schedule each of ``macs``' next access completion, if its medium
    allows it: at the end of a DIFS and of the backoff left, counted from
    the later of the host's last idle edge and its last transmission end.
    The first access gets a scheduler event of its own, the rest
    contention entries (module docstring).

    ``at_edge``: the medium has just gone idle for all of them, so that
    base is now.  Otherwise a MAC that senses a carrier waits for its idle
    edge.  A MAC with no backoff and no live queued frame leaves the
    channel's edge subscription instead.
    """
    first = macs[0]
    scheduler = first._scheduler
    channel = first._channel
    contention = first._contention
    heap = contention.heap
    now = scheduler._now
    sensed = channel.sensed
    quiet = 0
    # The sequence number of the first entry, once the own event is out.
    entries_from = None
    for mac in macs:
        if mac._transmitting or mac._access_seq is not None:
            continue
        if at_edge:
            base = now
        elif sensed & mac._bit:
            continue
        else:
            idle_since = mac._idle_since.item(mac.host_id)
            last_end = mac._last_tx_end
            base = idle_since if idle_since >= last_end else last_end
        remaining = mac._backoff_remaining
        if remaining is None:
            # No pending backoff: only initial DIFS access for a queued
            # frame.  (A loop, not ``queue_length``: this is hot and the
            # queue is usually empty or tiny.)
            for handle in mac._queue:
                if not handle.cancelled:
                    break
            else:
                quiet |= mac._bit
                continue
            fire_at = base + mac._difs
        else:
            base += mac._difs
            mac._countdown_base = base
            fire_at = base + remaining * mac._slot_time
        if fire_at < now:
            fire_at = now
        if entries_from is None:
            mac._access_event = scheduler.schedule_at(fire_at, mac._access_fire)
            mac._access_seq = _OWN_EVENT
            entries_from = scheduler._seq
        else:
            seq = scheduler._seq
            scheduler._seq = seq + 1
            heappush(heap, (fire_at, seq, mac))
            mac._access_seq = seq
    if quiet:
        channel.subscribed &= ~quiet
    if entries_from is not None:
        entries = scheduler._seq - entries_from
        if entries:
            scheduler._unpushed += entries
            _settle(contention, entries)
