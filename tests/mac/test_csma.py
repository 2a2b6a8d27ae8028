"""CSMA/CA DCF behaviour for broadcast frames."""

import random

import pytest

from repro.mac.csma import CsmaCaMac
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler

from tests.phy.test_channel import static_store

PARAMS = PhyParams(radio_radius=100.0)
DIFS = PARAMS.difs
SLOT = PARAMS.slot_time


class FixedRandom:
    """_randbelow() returns preset values (then repeats the last one)."""

    def __init__(self, *values):
        self._values = list(values)

    def _randbelow(self, n):
        value = self._values.pop(0) if len(self._values) > 1 else self._values[0]
        assert 0 <= value < n, f"fixed value {value} outside [0, {n})"
        return value


class Upper:
    """Records frames handed up by the MAC."""

    def __init__(self, scheduler):
        self._scheduler = scheduler
        self.received = []
        self.corrupted = []

    def on_frame_received(self, frame, sender_id):
        self.received.append((self._scheduler.now, frame, sender_id))

    def on_frame_corrupted(self, frame, sender_id):
        self.corrupted.append((self._scheduler.now, frame, sender_id))


def build(positions, backoffs=None):
    """(scheduler, channel, macs, uppers) with one MAC per position."""
    scheduler = Scheduler()
    channel = Channel(scheduler, PARAMS, static_store(positions))
    macs, uppers = [], []
    for host_id in range(len(positions)):
        upper = Upper(scheduler)
        rng = FixedRandom(*backoffs[host_id]) if backoffs else random.Random(host_id)
        mac = CsmaCaMac(host_id, scheduler, channel, PARAMS, rng, upper)
        macs.append(mac)
        uppers.append(upper)
    return scheduler, channel, macs, uppers


AIRTIME_10B = PARAMS.airtime(10)


def test_immediate_access_when_idle_longer_than_difs():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    scheduler.schedule(1.0, macs[0].send, "frame", 10)
    scheduler.run()
    # Transmission started exactly at t=1.0 (idle since t=0 >= DIFS).
    assert uppers[1].received[0][0] == pytest.approx(1.0 + AIRTIME_10B)


def test_send_at_time_zero_requires_backoff():
    """At t=0 the medium has been idle for 0 s < DIFS: backoff applies."""
    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0)], backoffs=[[5], [0]]
    )
    macs[0].send("frame", 10)
    scheduler.run()
    expected = DIFS + 5 * SLOT + AIRTIME_10B
    assert uppers[1].received[0][0] == pytest.approx(expected)


def test_on_transmit_start_callback_fires_at_tx_start():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    started = []
    scheduler.schedule(1.0, macs[0].send, "frame", 10, lambda: started.append(scheduler.now))
    scheduler.run()
    assert started == [1.0]


def test_busy_medium_defers_then_backs_off():
    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0)], backoffs=[[0], [3]]
    )
    # Host 0 transmits at t=1.0 for AIRTIME_10B (272 us).
    scheduler.schedule(1.0, macs[0].send, "a", 10)
    # Host 1 wants to send while the medium is busy (mid-frame).
    scheduler.schedule(1.0001, macs[1].send, "b", 10)
    scheduler.run()
    busy_end = 1.0 + AIRTIME_10B
    expected_b_start = busy_end + DIFS + 3 * SLOT
    assert uppers[0].received[0][0] == pytest.approx(expected_b_start + AIRTIME_10B)


def test_backoff_freezes_and_resumes():
    """Host 1's countdown pauses during a second busy period and resumes
    with the remaining slots (no redraw)."""
    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0), (30, 30)], backoffs=[[0, 0], [10], [0]]
    )
    scheduler.schedule(1.0, macs[0].send, "a", 10)          # busy until b1
    b1 = 1.0 + AIRTIME_10B
    scheduler.schedule(1.0001, macs[1].send, "b", 10)        # draws 10 slots
    # Host 2 grabs the medium 4.5 slots into host 1's countdown (the half
    # slot keeps the floor() robust against float noise).
    t2 = b1 + DIFS + 4.5 * SLOT
    scheduler.schedule(t2, channel.start_transmission, 2, "jam", 0.001)
    scheduler.run()
    # Host 1 consumed 4 slots, froze, then resumed the remaining 6.
    jam_end = t2 + 0.001
    expected_start = jam_end + DIFS + 6 * SLOT
    received_b = [r for r in uppers[0].received if r[1] == "b"]
    assert received_b[0][0] == pytest.approx(expected_start + AIRTIME_10B)


def test_post_transmission_backoff_separates_queued_frames():
    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0)], backoffs=[[7], [0]]
    )

    def send_two():
        macs[0].send("first", 10)
        macs[0].send("second", 10)

    scheduler.schedule(1.0, send_two)
    scheduler.run()
    t_first_end = 1.0 + AIRTIME_10B
    t_second_start = t_first_end + DIFS + 7 * SLOT
    times = [t for t, f, _ in uppers[1].received]
    assert times[0] == pytest.approx(t_first_end)
    assert times[1] == pytest.approx(t_second_start + AIRTIME_10B)


def test_cancel_queued_frame_before_transmission():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    handles = []
    scheduler.schedule(1.0, lambda: handles.append(macs[0].send("a", 10)))
    # While "a" is on the air (272 us), queue "b" then cancel it.
    scheduler.schedule(1.0001, lambda: handles.append(macs[0].send("b", 10)))
    scheduler.schedule(1.0002, lambda: handles[1].cancel())
    scheduler.run()
    assert [f for _, f, _ in uppers[1].received] == ["a"]
    assert macs[0].stats.frames_cancelled == 1


def test_shutdown_aborts_the_frame_on_the_air_and_flushes_the_queue():
    """A crash while "a" is on the air aborts it and flushes the live
    queued frame "b"; the cancelled "c" is no flush, and the dead MAC
    refuses new frames."""
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    handles = []
    scheduler.schedule(1.0, macs[0].send, "a", 10)
    scheduler.schedule(1.0001, macs[0].send, "b", 10)
    scheduler.schedule(1.0001, lambda: handles.append(macs[0].send("c", 10)))
    scheduler.schedule(1.00015, lambda: handles[0].cancel())
    scheduler.schedule(1.0002, macs[0].shutdown)  # "a" ends at 1.000272
    scheduler.run()
    assert macs[0].stats.frames_flushed == 1
    assert macs[0].queue_length == 0
    assert channel.stats.aborted_frames == 1
    assert uppers[1].received == []
    with pytest.raises(RuntimeError):
        macs[0].send("d", 10)


def test_cancel_after_transmission_started_returns_false():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    handles = []
    scheduler.schedule(1.0, lambda: handles.append(macs[0].send("a", 10)))
    outcome = []
    scheduler.schedule(1.0001, lambda: outcome.append(handles[0].cancel()))
    scheduler.run()
    assert outcome == [False]
    assert [f for _, f, _ in uppers[1].received] == ["a"]


def test_equal_backoffs_collide():
    """Two stations drawing the same counter transmit simultaneously."""
    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0), (25, 25)], backoffs=[[0, 2], [0, 2], [0]]
    )
    scheduler.schedule(1.0, channel.start_transmission, 2, "trigger", 0.001)
    # Both want to send during the trigger frame -> both back off 2 slots.
    scheduler.schedule(1.0005, macs[0].send, "a", 10)
    scheduler.schedule(1.0005, macs[1].send, "b", 10)
    scheduler.run()
    # Each hears the other's frame corrupted... actually they transmit
    # simultaneously, so each is deaf to the other (half-duplex).
    assert [f for _, f, _ in uppers[0].received if f != "trigger"] == []
    assert [f for _, f, _ in uppers[1].received if f != "trigger"] == []


def test_different_backoffs_serialize():
    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0), (25, 25)], backoffs=[[1, 31], [4, 31], [0]]
    )
    scheduler.schedule(1.0, channel.start_transmission, 2, "trigger", 0.001)
    scheduler.schedule(1.0005, macs[0].send, "a", 10)
    scheduler.schedule(1.0005, macs[1].send, "b", 10)
    scheduler.run()
    # Host 0 wins (1 slot < 4 slots); host 1 freezes and sends after.
    got_a = [t for t, f, _ in uppers[1].received if f == "a"]
    got_b = [t for t, f, _ in uppers[0].received if f == "b"]
    assert got_a and got_b and got_a[0] < got_b[0]


def test_queue_length_counts_pending_only():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])

    def fill():
        macs[0].send("a", 10)
        h = macs[0].send("b", 10)
        macs[0].send("c", 10)
        h.cancel()

    scheduler.schedule(1.0, fill)
    scheduler.schedule(1.0001, lambda: checks.append(macs[0].queue_length))
    checks = []
    scheduler.run()
    # "a" is transmitting, "b" cancelled, "c" pending.
    assert checks == [1]


def test_stats_frames_sent():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    scheduler.schedule(1.0, macs[0].send, "a", 10)
    scheduler.run()
    assert macs[0].stats.frames_sent == 1
    assert macs[1].stats.frames_received == 1


def test_is_transmitting_flag():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    scheduler.schedule(1.0, macs[0].send, "a", 10)
    seen = []
    scheduler.schedule(1.0001, lambda: seen.append(macs[0].is_transmitting))
    scheduler.run()
    assert seen == [True]
    assert not macs[0].is_transmitting


@pytest.mark.parametrize("k", [31, 63, 1023])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randbelow_draws_what_randint_draws(k, seed):
    """The backoff and S2 jitter draws call ``_randbelow(k + 1)``, the
    draw ``randint(0, k)`` reduces to: both forms give the same values and
    leave the stream in the same state."""
    by_randint = random.Random(seed)
    by_randbelow = random.Random(seed)
    for _ in range(500):
        assert by_randbelow._randbelow(k + 1) == by_randint.randint(0, k)
    assert by_randbelow.getstate() == by_randint.getstate()
