"""The channel's edge subscription: which MACs get ``on_medium_state``.

The channel records every carrier edge in its ``sensed`` host bitset
and ``idle_since`` array and hands edges only to subscribed hosts.  A
MAC unsubscribes only while it would ignore every edge: no pending
access (an event of its own or a contention entry), no backoff and no
live queued frame.  These tests step whole networks one event at a time
and check that contract after every event, and pin the carrier-state
defaults the MAC reads from the channel.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.config import ScenarioConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mac.csma import CsmaCaMac
from repro.metrics.collector import MetricsCollector
from repro.mobility.map import RectMap
from repro.net.host import HelloConfig
from repro.net.network import Network
from repro.phy.channel import Channel
from repro.routing import attach_agents
from repro.schemes import make_scheme
from repro.sim.engine import Scheduler
from repro.sim.randomness import RandomStreams

from tests.mac.test_csma import (
    AIRTIME_10B, DIFS, PARAMS, SLOT, FixedRandom, Upper, build,
)
from tests.phy.test_channel import host_flags, static_store


def make_network(scheme, num_hosts, map_units, seed, hello=None):
    scheduler = Scheduler()
    streams = RandomStreams(seed)
    config = ScenarioConfig()  # PHY defaults
    network = Network(
        scheduler=scheduler,
        params=config.phy,
        world=RectMap.square_units(map_units),
        streams=streams,
        num_hosts=num_hosts,
        scheme_factory=lambda: make_scheme(scheme),
        metrics=MetricsCollector(),
        max_speed_kmh=10.0 * map_units,
        hello_config=hello if hello is not None else HelloConfig(),
    )
    return scheduler, streams, network


def schedule_broadcasts(scheduler, network, streams, count, start):
    rng = streams.stream("traffic")
    t = start
    for _ in range(count):
        t += rng.uniform(0.0, 1.0)
        source = rng.randrange(len(network.hosts))

        def initiate(source_id=source):
            if network.hosts[source_id].alive:
                network.initiate_broadcast(source_id)

        scheduler.schedule_at(t, initiate)
    return t


def quiescence_violations(network):
    """Unsubscribed MACs that still have something to contend for."""
    subscribed = host_flags(network.channel.subscribed, len(network.hosts))
    bad = []
    for host in network.hosts:
        mac = host.mac
        if subscribed[mac.host_id]:
            continue
        if (
            mac._access_seq is not None
            or mac._backoff_remaining is not None
            or any(not handle.cancelled for handle in mac._queue)
        ):
            bad.append(mac.host_id)
    return bad


def contention_violations(network):
    """Breaches of the contention heap's invariants: the live count is
    the number of MACs waiting in the heap, and the head is the earliest
    of their entries and holds a scheduler event at its instant and
    under its sequence number; with no entry live the heap is empty."""
    contention = network.channel.contention
    waiting = [
        host.mac for host in network.hosts
        if host.mac._access_seq is not None and host.mac._access_seq >= 0
    ]
    heap = contention.heap
    if contention.live != len(waiting):
        return [f"live {contention.live} != {len(waiting)} waiting MACs"]
    if not waiting:
        return [f"{len(heap)} dead entries kept"] if heap else []
    live = sorted(
        entry for entry in heap if entry[2]._access_seq == entry[1]
    )
    if len(live) != len(waiting):
        return [f"{len(live)} live entries for {len(waiting)} waiting MACs"]
    head = heap[0]
    event = head[2]._access_event
    if head is not live[0]:
        return [f"head {head[:2]} is not the earliest live {live[0][:2]}"]
    if event is None or (event.time, event.seq) != head[:2]:
        return [f"head {head[:2]} is not armed"]
    return []


def step_and_check(scheduler, network, until):
    """Run to ``until`` one event at a time, checking the contract and
    the contention heap after each; returns (events, host-events spent
    unsubscribed)."""
    events = 0
    unsubscribed = 0
    while True:
        t = scheduler.peek_time()
        if t is None or t > until:
            return events, unsubscribed
        scheduler.step()
        events += 1
        bad = quiescence_violations(network)
        assert not bad, (
            f"t={scheduler.now}: unsubscribed MACs {bad} have a pending "
            f"access, a backoff or a queued frame"
        )
        bad = contention_violations(network)
        assert not bad, f"t={scheduler.now}: {bad}"
        unsubscribed += host_flags(
            network.channel.subscribed, len(network.hosts)
        ).count(False)


def test_dense_flooding_keeps_the_contract():
    scheduler, streams, network = make_network("flooding", 100, 1, seed=3)
    network.start()
    end = schedule_broadcasts(scheduler, network, streams, 4, start=0.5)
    events, unsubscribed = step_and_check(scheduler, network, end + 1.0)
    assert events > 1000
    assert unsubscribed > 0


def test_adaptive_counter_with_hellos_keeps_the_contract():
    scheduler, streams, network = make_network(
        "adaptive-counter", 50, 3, seed=5, hello=HelloConfig(interval=1.0)
    )
    network.start()
    end = schedule_broadcasts(scheduler, network, streams, 4, start=3.0)
    events, unsubscribed = step_and_check(scheduler, network, end + 1.0)
    assert network.metrics.hello_packets_sent > 50
    assert unsubscribed > 0


def test_unicast_routing_traffic_keeps_the_contract():
    scheduler, streams, network = make_network("flooding", 30, 3, seed=11)
    agents = attach_agents(network)
    network.start()
    rng = random.Random(4)
    t = 1.0
    for _ in range(6):
        t += rng.uniform(0.3, 0.8)
        src = rng.randrange(30)
        dst = (src + 1 + rng.randrange(29)) % 30
        scheduler.schedule_at(t, agents[src].send_data, dst, "payload")
    step_and_check(scheduler, network, t + 3.0)
    macs = [host.mac for host in network.hosts]
    assert sum(mac.stats.acks_sent for mac in macs) > 0
    assert sum(mac.stats.unicast_delivered for mac in macs) > 0


def test_nc_dhi_under_crashes_keeps_the_contract():
    """Churn crashes and recoveries, plus one sender and one of its
    receivers crashed in the middle of the same frame."""
    scheduler, streams, network = make_network(
        "neighbor-coverage", 60, 3, seed=7, hello=HelloConfig(dynamic=True)
    )
    network.start()
    end = schedule_broadcasts(scheduler, network, streams, 6, start=4.0)
    FaultInjector(
        scheduler, network,
        FaultPlan.parse("churn:rate=0.02,downtime=3;loss:p=0.05"),
        streams.fork("faults"), horizon=end + 1.0,
    ).install()

    channel = network.channel
    start_transmission = channel.start_transmission
    armed = [True]

    def crash(host_id):
        if network.hosts[host_id].alive:
            network.crash_host(host_id)
            scheduler.schedule(2.0, recover, host_id)

    def recover(host_id):
        if not network.hosts[host_id].alive:
            network.recover_host(host_id)

    def spy(sender_id, frame, duration):
        start_transmission(sender_id, frame, duration)
        if armed[0] and scheduler.now >= 6.0:
            receivers = channel._active[sender_id].receiver_ids
            if receivers.size:
                armed[0] = False
                mid = duration / 2
                scheduler.schedule(mid, crash, int(receivers[0]))
                scheduler.schedule(mid, crash, sender_id)

    channel.start_transmission = spy
    step_and_check(scheduler, network, end + 1.0)
    assert not armed[0]
    assert channel.stats.aborted_frames >= 1


# --------------------------------------------------------------- unit tests


def test_quiescent_mac_defers_to_backoff_when_sending_on_a_busy_medium():
    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0)], backoffs=[[0], [3]]
    )
    scheduler.schedule(1.0, macs[0].send, "a", 10)
    scheduler.run(until=1.0001)
    # Host 1 heard the busy edge with nothing to do and unsubscribed, but
    # still senses the carrier through the channel.
    assert host_flags(channel.subscribed, 2) == [True, False]
    assert host_flags(channel.sensed, 2) == [False, True]
    macs[1].send("b", 10)
    assert host_flags(channel.subscribed, 2) == [True, True]
    scheduler.run()
    expected_start = 1.0 + AIRTIME_10B + DIFS + 3 * SLOT
    assert uppers[0].received[0][0] == pytest.approx(
        expected_start + AIRTIME_10B
    )


def test_mac_built_after_difs_transmits_at_once_on_an_idle_medium():
    scheduler = Scheduler()
    channel = Channel(scheduler, PARAMS, static_store([(0, 0), (50, 0)]))
    upper1 = Upper(scheduler)
    CsmaCaMac(1, scheduler, channel, PARAMS, random.Random(1), upper1)
    started = []

    def late_mac():
        mac = CsmaCaMac(
            0, scheduler, channel, PARAMS, FixedRandom(7), Upper(scheduler)
        )
        mac.send("late", 10, lambda: started.append(scheduler.now))

    scheduler.schedule_at(1.0, late_mac)
    scheduler.run()
    # The medium counts as idle since 0.0, so no backoff is needed.
    assert started == [1.0]
    assert upper1.received[0][0] == pytest.approx(1.0 + AIRTIME_10B)


def test_restart_counts_the_medium_idle_since_the_restart_instant():
    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0)], backoffs=[[4], [0]]
    )
    macs[0].shutdown()
    restart_at = 2.0
    scheduler.schedule_at(restart_at, macs[0].restart)
    scheduler.run()
    assert channel.idle_since[0] == restart_at
    assert not host_flags(channel.sensed, 2)[0]
    assert host_flags(channel.subscribed, 2)[0]
    # Half a DIFS after the restart the medium has not been idle for a
    # full DIFS, so the frame goes through backoff.
    scheduler.schedule_at(restart_at + DIFS / 2, macs[0].send, "x", 10)
    scheduler.run()
    expected_start = restart_at + DIFS + 4 * SLOT
    assert uppers[1].received[0][0] == pytest.approx(
        expected_start + AIRTIME_10B
    )
