"""Heap-based discrete-event scheduler.

Time is a ``float`` in **seconds**.  All physical-layer constants in
:mod:`repro.phy` are expressed in seconds as well, so microsecond-scale MAC
timing and second-scale mobility coexist on one clock.

Determinism
-----------
Two events scheduled for the same instant are ordered by ``(time, priority,
sequence)``.  ``sequence`` is a monotonically increasing insertion counter, so
ties fall back to FIFO order.  Given the same seed (see
:class:`repro.sim.randomness.RandomStreams`), a simulation replays exactly.

A caller that keeps timers of its own may draw sequence numbers from
``_seq`` without pushing an event, and push one later under a number it
drew (:meth:`Scheduler._push`): the MACs' contention heap
(:mod:`repro.mac.csma`) does, so its timers fire where events scheduled
when they were drawn would have.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional

__all__ = ["Event", "Scheduler", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Scheduler.schedule` /
    :meth:`Scheduler.schedule_at`; user code holds on to the returned object
    only if it may need to :meth:`cancel` it.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_sched")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sched: Optional["Scheduler"] = None

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it.

        Cancelling an already-fired or already-cancelled event is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._sched is not None:
            self._sched._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        # Field-wise comparison: equivalent to comparing the
        # (time, priority, seq) tuples, without allocating them.  This runs
        # once per heap sift step, i.e. millions of times per simulation.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.9f} p={self.priority} {name} [{state}]>"


class Scheduler:
    """A minimal, fast discrete-event scheduler.

    Example::

        sched = Scheduler()
        sched.schedule(1.5, print, "fires at t=1.5")
        sched.run()
    """

    #: Heaps smaller than this are never compacted (compaction overhead
    #: would dominate; a few dozen husks are harmless).
    COMPACT_MIN_SIZE = 64

    #: Largest magnitude of a negative delay attributed to float round-off
    #: (e.g. ``deadline - now`` landing at ``-1e-18``) that :meth:`schedule`
    #: silently clamps to 0 instead of raising.
    NEGATIVE_DELAY_EPSILON = 1e-12

    __slots__ = (
        "_queue", "_seq", "_unpushed", "_now", "_running",
        "_events_processed", "_cancelled_in_queue", "_cancels",
        "_compactions",
    )

    def __init__(self) -> None:
        # Heap entries are ``(time, priority, seq, event)`` tuples rather
        # than bare events: heap sifts then compare in C (seq is unique, so
        # the comparison never reaches the event object).
        self._queue: List[tuple] = []
        self._seq = 0
        #: Sequence numbers drawn from ``_seq`` with no event pushed under
        #: them (yet); whoever draws one adds it here.
        self._unpushed = 0
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self._cancelled_in_queue = 0
        self._cancels = 0
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Number of events ever pushed on the heap (executed, pending or
        cancelled)."""
        return self._seq - self._unpushed

    @property
    def events_cancelled(self) -> int:
        """Number of queued events that were cancelled over the run."""
        return self._cancels

    @property
    def pending(self) -> int:
        """Number of queued events, including (not yet reclaimed) cancelled
        husks.  Husks are compacted away whenever they outnumber live
        events on a non-trivial heap, so this stays within 2x the live
        event count (plus :data:`COMPACT_MIN_SIZE`)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled husks currently sitting in the queue."""
        return self._cancelled_in_queue

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted (husk reclamation)."""
        return self._compactions

    def _note_cancelled(self, count: int = 1) -> None:
        """``count`` events still in the queue were cancelled; maybe
        compact.  A caller that cancels many events at once (a MAC edge
        marks its access events in place) reports them in one call.

        Compaction preserves ``(time, priority, seq)`` order exactly:
        dropping entries and re-heapifying cannot reorder the remaining
        events because ordering is a total order on those keys.
        """
        cancelled = self._cancelled_in_queue + count
        self._cancelled_in_queue = cancelled
        self._cancels += count
        size = len(self._queue)
        if size >= self.COMPACT_MIN_SIZE and cancelled * 2 > size:
            self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._queue if not entry[3].cancelled]
        heapq.heapify(live)
        # In-place so that the list object's identity is stable: the run()
        # hot loop holds a local alias to the heap across callbacks.
        self._queue[:] = live
        self._cancelled_in_queue = 0
        self._compactions += 1

    def _pop(self) -> Event:
        """Pop the heap top, keeping the husk accounting consistent."""
        event = heapq.heappop(self._queue)[3]
        event._sched = None
        if event.cancelled:
            self._cancelled_in_queue -= 1
        return event

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``.

        ``priority`` breaks ties among same-time events (lower fires first).
        Raises :class:`SimulationError` if ``time`` is in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, fn, args)
        event._sched = self
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def _push(
        self, time: float, seq: int, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Push ``fn(*args)`` at ``time`` (priority 0) under ``seq``, a
        sequence number drawn from ``_seq`` earlier and counted in
        ``_unpushed``: it fires where an event scheduled when ``seq`` was
        drawn would have."""
        self._unpushed -= 1
        event = Event(time, 0, seq, fn, args)
        event._sched = self
        heapq.heappush(self._queue, (time, 0, seq, event))
        return event

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds from now.

        Delays in ``[-NEGATIVE_DELAY_EPSILON, 0)`` -- float round-off from
        expressions like ``deadline - now`` -- are clamped to 0; anything
        more negative is a real bug and raises :class:`SimulationError`.
        """
        if delay < 0:
            if delay >= -self.NEGATIVE_DELAY_EPSILON:
                delay = 0.0
            else:
                raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or ``until`` is reached.

        Returns the final simulation time.  When ``until`` is given and the
        queue still holds later events, the clock is advanced exactly to
        ``until`` (events at ``t == until`` are executed).
        """
        if self._running:
            raise SimulationError("scheduler is already running (reentrant run())")
        self._running = True
        # Hot loop: the heap list is aliased locally (safe -- _compact
        # mutates it in place) and heappop is hoisted out of the loop.
        # Husk accounting from _pop() is inlined.
        queue = self._queue
        heappop = heapq.heappop
        bounded = until is not None
        if not bounded:
            until = math.inf
        try:
            while queue:
                if queue[0][0] > until:
                    break
                event = heappop(queue)[3]
                event._sched = None
                if event.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                self._now = event.time
                self._events_processed += 1
                event.fn(*event.args)
            if bounded and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        while self._queue:
            event = self._pop()
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            event.fn(*event.args)
            return True
        return False

    def clear(self) -> None:
        """Drop every pending event, and with it what the event would
        have called (an event still held elsewhere keeps no callback).

        For a finished simulation: queued callbacks hold the objects they
        act on, which hold the scheduler in turn.  The processed,
        scheduled and cancelled counts keep their values.
        """
        for entry in self._queue:
            event = entry[3]
            event.fn = event.args = event._sched = None
        self._queue.clear()
        self._cancelled_in_queue = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        while self._queue and self._queue[0][3].cancelled:
            self._pop()
        return self._queue[0][0] if self._queue else None
