"""Scheduler and Event behaviour."""

import pytest

from repro.sim.engine import Scheduler, SimulationError


def test_clock_starts_at_zero(scheduler):
    assert scheduler.now == 0.0


def test_events_run_in_time_order(scheduler):
    fired = []
    scheduler.schedule(2.0, fired.append, "b")
    scheduler.schedule(1.0, fired.append, "a")
    scheduler.schedule(3.0, fired.append, "c")
    scheduler.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time(scheduler):
    seen = []
    scheduler.schedule(1.5, lambda: seen.append(scheduler.now))
    scheduler.run()
    assert seen == [1.5]
    assert scheduler.now == 1.5


def test_same_time_events_fifo(scheduler):
    fired = []
    for i in range(10):
        scheduler.schedule(1.0, fired.append, i)
    scheduler.run()
    assert fired == list(range(10))


def test_priority_breaks_ties(scheduler):
    fired = []
    scheduler.schedule(1.0, fired.append, "low-priority", priority=5)
    scheduler.schedule(1.0, fired.append, "high-priority", priority=-5)
    scheduler.run()
    assert fired == ["high-priority", "low-priority"]


def test_schedule_at_absolute_time(scheduler):
    fired = []
    scheduler.schedule_at(4.0, fired.append, "x")
    scheduler.run()
    assert scheduler.now == 4.0
    assert fired == ["x"]


def test_scheduling_in_past_raises(scheduler):
    scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(SimulationError):
        scheduler.schedule_at(0.5, lambda: None)


def test_negative_delay_raises(scheduler):
    with pytest.raises(SimulationError):
        scheduler.schedule(-0.1, lambda: None)


def test_tiny_negative_delay_clamps_to_zero(scheduler):
    # Float round-off: deadline - now can land at -1e-18 even when the
    # deadline is logically "now".  Such delays must not crash the run.
    fired = []
    scheduler.schedule(1.0, lambda: scheduler.schedule(-1e-18, fired.append, "ok"))
    scheduler.run()
    assert fired == ["ok"]
    assert scheduler.now == 1.0


def test_tiny_negative_delay_boundary(scheduler):
    event = scheduler.schedule(-1e-12, lambda: None)
    assert event.time == 0.0
    with pytest.raises(SimulationError):
        scheduler.schedule(-1.0000001e-12, lambda: None)


def test_cancelled_event_does_not_fire(scheduler):
    fired = []
    event = scheduler.schedule(1.0, fired.append, "cancelled")
    scheduler.schedule(2.0, fired.append, "kept")
    event.cancel()
    scheduler.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent(scheduler):
    event = scheduler.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    scheduler.run()
    assert scheduler.events_processed == 0


def test_events_scheduled_during_run_execute(scheduler):
    fired = []

    def first():
        fired.append("first")
        scheduler.schedule(1.0, fired.append, "second")

    scheduler.schedule(1.0, first)
    scheduler.run()
    assert fired == ["first", "second"]
    assert scheduler.now == 2.0


def test_zero_delay_event_fires_at_current_time(scheduler):
    fired = []

    def outer():
        scheduler.schedule(0.0, fired.append, scheduler.now)

    scheduler.schedule(1.0, outer)
    scheduler.run()
    assert fired == [1.0]


def test_run_until_stops_before_later_events(scheduler):
    fired = []
    scheduler.schedule(1.0, fired.append, "early")
    scheduler.schedule(10.0, fired.append, "late")
    scheduler.run(until=5.0)
    assert fired == ["early"]
    assert scheduler.now == 5.0


def test_run_until_includes_events_at_boundary(scheduler):
    fired = []
    scheduler.schedule(5.0, fired.append, "boundary")
    scheduler.run(until=5.0)
    assert fired == ["boundary"]


def test_run_until_can_continue(scheduler):
    fired = []
    scheduler.schedule(10.0, fired.append, "late")
    scheduler.run(until=5.0)
    scheduler.run()
    assert fired == ["late"]


def test_events_processed_counter(scheduler):
    for i in range(5):
        scheduler.schedule(float(i + 1), lambda: None)
    scheduler.run()
    assert scheduler.events_processed == 5


def test_step_runs_single_event(scheduler):
    fired = []
    scheduler.schedule(1.0, fired.append, 1)
    scheduler.schedule(2.0, fired.append, 2)
    assert scheduler.step() is True
    assert fired == [1]
    assert scheduler.step() is True
    assert fired == [1, 2]
    assert scheduler.step() is False


def test_step_skips_cancelled(scheduler):
    event = scheduler.schedule(1.0, lambda: None)
    event.cancel()
    assert scheduler.step() is False


def test_peek_time(scheduler):
    assert scheduler.peek_time() is None
    event = scheduler.schedule(3.0, lambda: None)
    scheduler.schedule(7.0, lambda: None)
    assert scheduler.peek_time() == 3.0
    event.cancel()
    assert scheduler.peek_time() == 7.0


def test_event_args_passed_through(scheduler):
    seen = []
    scheduler.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "two")
    scheduler.run()
    assert seen == [(1, "two")]


def test_reentrant_run_rejected(scheduler):
    def nested():
        scheduler.run()

    scheduler.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        scheduler.run()


def test_run_until_advances_clock_with_empty_queue(scheduler):
    scheduler.run(until=42.0)
    assert scheduler.now == 42.0


# ---------------------------------------------------- husk compaction


def test_cancelled_husks_are_reclaimed(scheduler):
    """Heavy timer churn must not grow the heap unboundedly."""
    live = scheduler.schedule(1e9, lambda: None)
    high_water = 0
    for i in range(10_000):
        event = scheduler.schedule(1.0 + i * 1e-6, lambda: None)
        event.cancel()
        high_water = max(high_water, scheduler.pending)
    # The heap never held more than ~COMPACT_MIN_SIZE husks at once.
    assert high_water <= 2 * Scheduler.COMPACT_MIN_SIZE
    assert scheduler.pending <= 2 * Scheduler.COMPACT_MIN_SIZE
    assert scheduler.compactions > 0
    assert not live.cancelled


def test_compaction_preserves_event_order(scheduler):
    fired = []
    events = [
        scheduler.schedule(float(i % 7) + 1.0, fired.append, i)
        for i in range(400)
    ]
    for i, event in enumerate(events):
        if i % 5 != 0:
            event.cancel()  # 80% husks: forces at least one compaction
    assert scheduler.compactions > 0
    scheduler.run()
    # Survivors fire in (time, seq) order, i.e. by time then insertion.
    expected = [i for _, i in sorted((events[i].time, i) for i in range(0, 400, 5))]
    assert fired == expected
    assert scheduler.events_processed == len(expected)


def test_cancel_after_fire_does_not_corrupt_accounting(scheduler):
    event = scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    event.cancel()  # no-op: already fired and out of the queue
    assert scheduler.cancelled_pending == 0


def test_compaction_keeps_fifo_ties(scheduler):
    """Same-time events keep FIFO order across a forced compaction."""
    fired = []
    husks = [scheduler.schedule(0.5, lambda: None) for _ in range(200)]
    for i in range(10):
        scheduler.schedule(1.0, fired.append, i)
    for husk in husks:
        husk.cancel()  # triggers compaction mid-way
    assert scheduler.compactions > 0
    scheduler.run()
    assert fired == list(range(10))


# ------------------------------------------ drawn sequence numbers


def test_an_event_pushed_under_a_drawn_seq_fires_in_its_place(scheduler):
    """A sequence number drawn without a push keeps its place among
    same-time events, and counts as scheduled only once it is pushed."""
    fired = []
    drawn = scheduler._seq
    scheduler._seq = drawn + 1
    scheduler._unpushed += 1
    scheduler.schedule(1.0, fired.append, "scheduled after the draw")
    assert scheduler.events_scheduled == 1
    event = scheduler._push(1.0, drawn, fired.append, "drawn first")
    assert event.seq == drawn
    assert scheduler.events_scheduled == 2
    scheduler.run()
    assert fired == ["drawn first", "scheduled after the draw"]
    assert scheduler.events_processed == scheduler.events_scheduled


# ------------------------------------------------- ordering invariants


def test_event_lt_matches_tuple_order():
    """Event.__lt__ is field-wise but must agree exactly with comparing
    (time, priority, seq) tuples -- the heap stores those tuples, and the
    field-wise form is the documented public contract."""
    from itertools import product

    from repro.sim.engine import Event

    values = [0.0, 1.0, 2.5]
    combos = list(product(values, [-1, 0, 1], [0, 1, 2]))
    events = [Event(t, p, s, lambda: None, ()) for t, p, s in combos]
    for a, ka in zip(events, combos):
        for b, kb in zip(events, combos):
            assert (a < b) == (ka < kb), (ka, kb)


def test_execution_order_is_time_priority_seq(scheduler):
    """Stress the full ordering contract: randomized times with many
    exact ties, mixed priorities, and interleaved cancellations still
    execute in strict (time, priority, seq) order."""
    import random

    rng = random.Random(42)
    fired = []
    scheduled = []
    for i in range(500):
        time = rng.choice([1.0, 1.0, 2.0, 2.5, 3.0])  # force many ties
        priority = rng.choice([-1, 0, 0, 1])
        event = scheduler.schedule_at(time, fired.append, i, priority=priority)
        scheduled.append((time, priority, event.seq, i, event))
    cancelled = set()
    for time, priority, seq, i, event in scheduled:
        if i % 7 == 0:
            event.cancel()
            cancelled.add(i)
    scheduler.run()
    expected = [
        i
        for time, priority, seq, i, _ in sorted(
            s for s in scheduled if s[3] not in cancelled
        )
    ]
    assert fired == expected


def test_peek_time_skips_cancelled_head(scheduler):
    """peek_time sees through cancelled husks at the heap head without
    executing anything."""
    head = scheduler.schedule(1.0, lambda: None)
    scheduler.schedule(2.0, lambda: None)
    assert scheduler.peek_time() == 1.0
    head.cancel()
    assert scheduler.peek_time() == 2.0
    assert scheduler.events_processed == 0
