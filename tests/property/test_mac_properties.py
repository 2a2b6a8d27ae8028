"""Property-based tests: MAC invariants under random traffic."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.csma import CsmaCaMac
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler

from tests.phy.test_channel import static_store

PARAMS = PhyParams(radio_radius=100.0)


class CountingUpper:
    def __init__(self):
        self.received = 0

    def on_frame_received(self, frame, sender_id):
        self.received += 1

    def on_frame_corrupted(self, frame, sender_id):
        pass


class InvariantChannel(Channel):
    """Channel that asserts no host ever double-transmits (the scheduler
    would raise anyway, but this phrases it as the invariant under test)."""

    def start_transmission(self, sender_id, frame, duration):
        assert not self.is_transmitting(sender_id)
        super().start_transmission(sender_id, frame, duration)


def build(num_hosts, seed):
    scheduler = Scheduler()
    positions = [(i * 40.0, 0.0) for i in range(num_hosts)]
    channel = InvariantChannel(scheduler, PARAMS, static_store(positions))
    macs, uppers = [], []
    for host_id in range(num_hosts):
        upper = CountingUpper()
        mac = CsmaCaMac(
            host_id, scheduler, channel, PARAMS,
            random.Random(seed * 1000 + host_id), upper,
        )
        macs.append(mac)
        uppers.append(upper)
    return scheduler, channel, macs, uppers


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sends=st.lists(
        st.tuples(
            st.integers(0, 3),            # sender
            st.floats(0.0, 0.05),         # time
            st.integers(10, 300),         # size
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_broadcast_traffic_invariants(seed, sends):
    """Arbitrary broadcast workloads: every frame eventually leaves the
    queue, no host double-transmits, and counters are consistent."""
    scheduler, channel, macs, uppers = build(4, seed)
    for sender, time, size in sends:
        scheduler.schedule_at(time, macs[sender].send, f"f{time}", size)
    scheduler.run()
    total_queued = sum(mac.queue_length for mac in macs)
    assert total_queued == 0
    sent = sum(mac.stats.frames_sent for mac in macs)
    assert sent == len(sends)
    assert channel.stats.transmissions == len(sends)
    # Nothing is left on the air.
    for mac in macs:
        assert not mac.is_transmitting


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sends=st.lists(
        st.tuples(st.floats(0.0, 0.05), st.integers(10, 200)),
        min_size=1,
        max_size=12,
    ),
    drop_rate=st.floats(0.0, 0.9),
)
def test_unicast_always_resolves(seed, sends, drop_rate):
    """Every unicast send terminates in exactly one completion callback,
    whatever the loss rate."""
    loss_rng = random.Random(seed)

    outcomes = []

    def lossy(s, r):
        return loss_rng.random() < drop_rate

    scheduler = Scheduler()
    positions = [(0.0, 0.0), (50.0, 0.0)]
    channel = Channel(scheduler, PARAMS, static_store(positions), lossy)
    upper0, upper1 = CountingUpper(), CountingUpper()
    mac0 = CsmaCaMac(0, scheduler, channel, PARAMS, random.Random(seed), upper0)
    CsmaCaMac(1, scheduler, channel, PARAMS, random.Random(seed + 1), upper1)

    for time, size in sends:
        scheduler.schedule_at(
            time, mac0.send_unicast, "payload", size, 1, outcomes.append
        )
    scheduler.run()
    assert len(outcomes) == len(sends)
    assert mac0.stats.unicast_delivered + mac0.stats.unicast_failed == len(sends)
    # Duplicate filtering: the upper layer saw at most one copy per send.
    assert upper1.received <= len(sends)
