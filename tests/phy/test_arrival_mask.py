"""The arrival rule with a drop predicate, on a plain and a capture channel.

Host 1 is on the air when host 0 starts, so host 1 is deaf to host 0's
frame, and hosts 2 and 4 hear both frames.  The predicate drops host 0's
frame at hosts 3 and 4.  Hosts attach out of id order, so receivers are
iterated in attach order, not id order.
"""

from repro.phy.capture import CaptureModel
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler

from tests.phy.test_channel import StubRadio, static_store

POSITIONS = [
    (100.0, 100.0),  # 0: sends "a" while 1 is on the air
    (160.0, 100.0),  # 1: sends "b" first
    (110.0, 105.0),  # 2: hears both, far nearer to 0
    (50.0, 100.0),   # 3: hears only 0
    (130.0, 70.0),   # 4: hears both, as near to each
    (60.0, 60.0),    # 5: hears only 0
]
ATTACH_ORDER = [0, 1, 5, 4, 3, 2]
DROPPED = {(0, 3), (0, 4)}


def run_overlap(capture=None):
    scheduler = Scheduler()
    calls = []

    def predicate(sender_id, receiver_id):
        calls.append((sender_id, receiver_id))
        return (sender_id, receiver_id) in DROPPED

    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0), static_store(POSITIONS),
        predicate, capture=capture,
    )
    radios = {}
    for host_id in ATTACH_ORDER:
        radios[host_id] = StubRadio().bind(scheduler)
        channel.attach(host_id, radios[host_id])
    channel.start_transmission(1, "b", 0.002)
    scheduler.schedule_at(0.001, channel.start_transmission, 0, "a", 0.002)
    scheduler.run()
    delivered = {
        host_id: [frame for _, frame, _ in radio.received]
        for host_id, radio in radios.items() if radio.received
    }
    return channel.stats, calls, delivered


#: Once per receiver that is not transmitting, in attach order: host 1 is
#: never asked about "a", and "b" (sent on a quiet medium) asks too.
EXPECTED_CALLS = [(1, 0), (1, 4), (1, 2), (0, 5), (0, 4), (0, 3), (0, 2)]


def test_plain_channel_asks_every_hearing_receiver_once():
    stats, calls, delivered = run_overlap()
    assert calls == EXPECTED_CALLS
    # Deaf: host 0 loses "b" by transmitting, host 1 misses "a".  The
    # overlap flips "b" at 2 and 4, and "a" collides at 2 only: at 4 it
    # was already dropped.
    assert (stats.collisions, stats.deaf_misses, stats.injected_drops) == (
        3, 2, 2,
    )
    assert stats.deliveries == 1
    assert delivered == {5: ["a"]}


def test_capture_channel_reads_the_same_arrival_mask():
    stats, calls, delivered = run_overlap(CaptureModel())
    assert calls == EXPECTED_CALLS
    # Host 2 captures "a" over "b"; at host 4 the dropped "a" still
    # interferes and "b" dies; host 4's own copy of "a" was dropped.
    assert (stats.collisions, stats.deaf_misses, stats.injected_drops) == (
        2, 2, 2,
    )
    assert stats.deliveries == 2
    assert delivered == {5: ["a"], 2: ["a"]}
