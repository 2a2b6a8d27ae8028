"""The channel's contention heap: MAC accesses past the first of a resume.

An idle edge that resumes several MACs gives the first access a
scheduler event of its own and the others ``(fire_at, seq, mac)``
entries in a heap shared by the channel, of which only the earliest live
one holds a scheduler event.  These tests pin that the entries fire
where one event each would have, and how freezes and crashes withdraw
them.

The layout: S (host 0) reaches A, B and C (hosts 1-3), which all hear
one another; J (host 4) reaches only B.  A, B and C queue a frame while
S's frame is on the air, so its end resumes all three at once, in that
order: A keeps its own event, B and C become entries.
"""

from __future__ import annotations

import pytest

from repro.mac.csma import CsmaCaMac
from repro.phy.channel import Channel
from repro.sim.engine import Scheduler

from tests.mac.test_csma import (
    AIRTIME_10B, DIFS, PARAMS, SLOT, FixedRandom, Upper,
)
from tests.phy.test_channel import static_store

S, A, B, C, J = range(5)
POSITIONS = [(0, 50), (-40, 0), (0, 0), (40, 0), (0, -95)]
#: S's frame: on the air from 1.0, so A, B and C resume at EDGE.
EDGE = 1.0 + AIRTIME_10B


class Records:
    """A trace sink for the MACs' records."""

    def __init__(self):
        self.records = []


def build(backoffs, trace=None):
    """(scheduler, channel, macs, started) with S's frame on the air at
    1.0 and A, B and C's frames queued behind it, drawing ``backoffs``
    (A's, B's, C's).  ``started[host]`` collects its transmission
    starts."""
    scheduler = Scheduler()
    channel = Channel(scheduler, PARAMS, static_store(POSITIONS))
    draws = [0, *backoffs, 0]
    macs = [
        CsmaCaMac(
            host, scheduler, channel, PARAMS, FixedRandom(draws[host]),
            Upper(scheduler), trace=trace,
        )
        for host in range(len(POSITIONS))
    ]
    started = {host: [] for host in range(len(POSITIONS))}
    scheduler.schedule_at(1.0, macs[S].send, "s", 10)
    for host in (A, B, C):
        scheduler.schedule_at(
            1.0001, macs[host].send, f"f{host}", 10,
            lambda host=host: started[host].append(scheduler.now),
        )
    return scheduler, channel, macs, started


def run_past_edge(scheduler):
    scheduler.run(until=EDGE + DIFS / 2)


def assert_disposition(scheduler):
    """Every pushed event is processed, cancelled or still queued."""
    assert scheduler.events_scheduled == (
        scheduler.events_processed
        + scheduler.events_cancelled
        + scheduler.pending - scheduler.cancelled_pending
    )


def test_one_edge_gives_the_first_access_an_event_and_the_rest_entries():
    scheduler, channel, macs, _ = build([9, 5, 2])
    run_past_edge(scheduler)
    heap = channel.contention.heap
    assert sorted(entry[2].host_id for entry in heap) == [B, C]
    assert macs[A]._access_event is not None
    # C's deadline is the earlier entry: only it holds an event.
    assert heap[0][2] is macs[C]
    assert macs[C]._access_event is not None
    assert macs[B]._access_event is None
    # The entries drew the sequence numbers right after A's event.
    assert macs[B]._access_seq == macs[A]._access_event.seq + 1
    assert macs[C]._access_seq == macs[A]._access_event.seq + 2
    assert_disposition(scheduler)


def test_equal_deadlines_all_fire_before_the_busy_edge():
    """A, B and C share a deadline.  A's own event fires first and
    schedules its frame's zero-delay busy edge; B's armed entry fires
    next and arms C's, which still sorts before that busy edge (its
    sequence number was drawn first), so all three collide as three
    events of their own would."""
    scheduler, channel, macs, started = build([3, 3, 3])
    scheduler.run()
    deadline = EDGE + DIFS + 3 * SLOT
    assert started[A] == [pytest.approx(deadline)]
    assert started[B] == started[C] == started[A]
    assert channel.stats.collisions > 0
    assert not channel.contention.heap
    assert channel.contention.live == 0
    assert_disposition(scheduler)


def test_freezing_the_armed_entry_arms_the_next_live_one():
    scheduler, channel, macs, started = build([9, 2, 5])
    run_past_edge(scheduler)
    assert macs[B]._access_event is not None
    assert macs[C]._access_event is None
    # J jams B alone, half a slot before B's deadline.
    jam_at = EDGE + DIFS + 1.5 * SLOT
    scheduler.schedule_at(jam_at, channel.start_transmission, J, "jam", 0.001)
    scheduler.run(until=jam_at)
    assert macs[B]._access_seq is None
    assert macs[B]._access_event is None
    assert macs[B]._backoff_remaining == 1
    head = channel.contention.heap[0]
    assert head[2] is macs[C]
    assert macs[C]._access_event is not None
    assert macs[C]._access_event.seq == head[1]
    scheduler.run()
    assert started[C] == [pytest.approx(EDGE + DIFS + 5 * SLOT)]
    assert started[A] and started[B]
    assert_disposition(scheduler)


@pytest.mark.parametrize(
    "order", [(B, C), (C, B)], ids=["armed-first", "unarmed-first"]
)
def test_shutdown_withdraws_entries_without_freeze_records(order):
    trace = Records()
    scheduler, channel, macs, started = build([9, 2, 5], trace=trace)
    run_past_edge(scheduler)
    for host in order:
        armed = macs[host]._access_event is not None
        cancelled = scheduler.events_cancelled
        macs[host].shutdown()
        assert macs[host]._access_seq is None
        # Only an armed entry has a scheduler event to cancel.
        assert scheduler.events_cancelled == cancelled + armed
        if channel.contention.live:
            # The entry left is the head, and armed.
            head = channel.contention.heap[0]
            assert head[2]._access_seq == head[1]
            assert head[2]._access_event is not None
        else:
            assert not channel.contention.heap
    scheduler.run()
    assert started[B] == started[C] == []
    assert started[A] == [pytest.approx(EDGE + DIFS + 9 * SLOT)]
    assert not any(record[1] == "mac-freeze" for record in trace.records)
    assert_disposition(scheduler)


def test_close_empties_the_heap():
    scheduler, channel, macs, _ = build([9, 5, 2])
    run_past_edge(scheduler)
    assert channel.contention.heap
    scheduler.clear()
    for mac in macs:
        mac.close()
    assert not channel.contention.heap
