"""MobileHost behaviour: dispatch, hello protocol, rebroadcast bookkeeping."""

import pytest

from repro.experiments.topologies import build_static_network, line_positions
from repro.net.host import HelloConfig
from repro.net.packets import HelloPacket
from repro.schemes import CounterScheme, FloodingScheme, NeighborCoverageScheme
from repro.sim.engine import Scheduler


def test_hello_disabled_for_flooding_by_default():
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(3, 400.0), FloodingScheme
    )
    network.start()
    scheduler.run(until=10.0)
    assert metrics.hello_packets_sent == 0


def test_hello_enabled_when_scheme_needs_it():
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(3, 400.0), NeighborCoverageScheme,
        hello_config=HelloConfig(interval=1.0),
    )
    network.start()
    scheduler.run(until=10.5)
    # Each host sends its first hello within [0, 1) then every 1 s:
    # at least 10 each over 10.5 s.
    assert metrics.hello_packets_sent >= 30
    for host_id in range(3):
        assert metrics.hello_counts_by_host[host_id] >= 10


def test_hello_can_be_force_enabled():
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(2, 400.0), FloodingScheme,
        hello_config=HelloConfig(enabled=True, interval=1.0),
    )
    network.start()
    scheduler.run(until=5.0)
    assert metrics.hello_packets_sent > 0


def test_neighbor_tables_populated_by_hellos():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(3, 400.0), NeighborCoverageScheme,
        hello_config=HelloConfig(interval=1.0),
    )
    network.start()
    scheduler.run(until=5.0)
    middle = network.hosts[1]
    assert middle.neighbor_table.neighbor_ids(now=5.0) == {0, 2}
    end = network.hosts[0]
    assert end.neighbor_table.neighbor_ids(now=5.0) == {1}


def test_two_hop_knowledge_piggybacked():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(3, 400.0), NeighborCoverageScheme,
        hello_config=HelloConfig(interval=1.0),
    )
    network.start()
    scheduler.run(until=5.0)
    # Host 0 knows N_{0,1} (what host 1 announced): {0, 2}.
    assert network.hosts[0].neighbor_table.two_hop_neighbors(1) == {0, 2}


def test_host_rebroadcasts_at_most_once():
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(3, 400.0), FloodingScheme
    )
    network.start()
    scheduler.schedule_at(1.0, network.initiate_broadcast, 0)
    scheduler.run(until=5.0)
    for host in network.hosts:
        assert host.mac.stats.frames_sent <= 1


def test_duplicate_receptions_do_not_recount():
    """Host 1 hears the packet from 0 and again from 2; r counts it once."""
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(3, 400.0), FloodingScheme
    )
    network.start()
    scheduler.schedule_at(1.0, network.initiate_broadcast, 0)
    scheduler.run(until=5.0)
    record = next(iter(metrics.records.values()))
    assert record.received_count == 2  # hosts 1 and 2, each once


def test_oracle_neighbor_count():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(3, 400.0), CounterScheme,
        oracle_neighbors=True,
    )
    assert network.hosts[0].neighbor_count() == 1
    assert network.hosts[1].neighbor_count() == 2


def test_hello_derived_neighbor_count_without_hellos_is_zero():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(3, 400.0), CounterScheme
    )
    assert network.hosts[1].neighbor_count() == 0


def test_dynamic_hello_interval_announced():
    """Host 1's HELLOs announce an interval in [hi_min, hi_max], and host 0
    keeps host 1 listed until twice that interval after the last HELLO it
    heard."""
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(2, 400.0), NeighborCoverageScheme,
        hello_config=HelloConfig(dynamic=True, hi_min=1.0, hi_max=10.0),
    )
    hellos = []  # (frame end, announced interval) of host 1's HELLOs
    start_transmission = network.channel.start_transmission

    def spy(sender_id, frame, duration):
        if sender_id == 1 and isinstance(frame.payload, HelloPacket):
            hellos.append(
                (scheduler.now + duration, frame.payload.hello_interval)
            )
        start_transmission(sender_id, frame, duration)

    network.channel.start_transmission = spy
    network.start()
    scheduler.run(until=15.0)
    heard = [hello for hello in hellos if hello[0] <= 15.0]
    assert len(heard) >= 2
    for _, interval in hellos:
        assert 1.0 <= interval <= 10.0
    last_heard, interval = heard[-1]
    deadline = last_heard + 2 * interval
    table = network.hosts[0].neighbor_table
    assert 1 in table.neighbor_ids(now=deadline)
    assert 1 not in table.neighbor_ids(now=deadline + 1e-6)


def test_static_hosts_send_few_dynamic_hellos():
    """A motionless pair has zero variation -> interval converges to
    hi_max, so far fewer hellos than the fixed 1 s interval would send."""
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(2, 400.0), NeighborCoverageScheme,
        hello_config=HelloConfig(dynamic=True, hi_min=1.0, hi_max=10.0),
    )
    network.start()
    scheduler.run(until=100.0)
    # Fixed 1 s would send ~200; converged DHI sends ~10 per host plus the
    # initial ramp while tables warm up.
    assert metrics.hello_packets_sent < 60
