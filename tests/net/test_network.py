"""Network construction, connectivity snapshots and broadcast initiation."""

import random

import networkx as nx
import pytest

from repro.experiments.topologies import (
    build_static_network,
    line_positions,
    two_clusters_positions,
)
from repro.metrics.collector import MetricsCollector
from repro.mobility.map import RectMap
from repro.net.network import Network
from repro.phy.params import PhyParams
from repro.schemes import FloodingScheme
from repro.sim.engine import Scheduler
from repro.sim.randomness import RandomStreams


def test_positions_snapshot():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(3, 400.0), FloodingScheme
    )
    positions = network.positions()
    assert set(positions) == {0, 1, 2}
    # Line spacing preserved (after the margin shift).
    assert positions[1][0] - positions[0][0] == pytest.approx(400.0)


def test_reachable_from_line():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(4, 400.0), FloodingScheme
    )
    assert network.reachable_from(0) == {1, 2, 3}
    assert network.reachable_from(2) == {0, 1, 3}


def test_reachable_from_partitioned():
    scheduler = Scheduler()
    positions = two_clusters_positions(3, 100.0, gap=5000.0)
    network, _ = build_static_network(scheduler, positions, FloodingScheme)
    assert network.reachable_from(0) == {1, 2}
    assert network.reachable_from(3) == {4, 5}


def test_initiate_records_reachable_count():
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(4, 400.0), FloodingScheme
    )
    network.start()
    scheduler.schedule_at(1.0, network.initiate_broadcast, 0)
    scheduler.run(until=3.0)
    record = next(iter(metrics.records.values()))
    assert record.reachable_count == 3
    assert record.source_id == 0
    assert record.origin_time == 1.0


def test_sequence_numbers_unique_across_sources():
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(3, 400.0), FloodingScheme
    )
    network.start()
    scheduler.schedule_at(1.0, network.initiate_broadcast, 0)
    scheduler.schedule_at(2.0, network.initiate_broadcast, 1)
    scheduler.schedule_at(3.0, network.initiate_broadcast, 0)
    scheduler.run(until=5.0)
    assert len(metrics.records) == 3
    assert len({key for key in metrics.records}) == 3


def test_invalid_source_rejected():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(2, 400.0), FloodingScheme
    )
    with pytest.raises(ValueError):
        network.initiate_broadcast(7)


def test_each_host_gets_its_own_scheme_instance():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(3, 400.0), FloodingScheme
    )
    schemes = [host.scheme for host in network.hosts]
    assert len({id(s) for s in schemes}) == 3


def test_zero_hosts_rejected():
    scheduler = Scheduler()
    with pytest.raises(ValueError):
        Network(
            scheduler=scheduler,
            params=PhyParams(),
            world=RectMap(100, 100),
            streams=RandomStreams(0),
            num_hosts=0,
            scheme_factory=FloodingScheme,
            metrics=MetricsCollector(),
            max_speed_kmh=0.0,
        )


def test_same_seed_reproduces_mobility():
    def build(seed):
        scheduler = Scheduler()
        network = Network(
            scheduler=scheduler,
            params=PhyParams(),
            world=RectMap(2000, 2000),
            streams=RandomStreams(seed),
            num_hosts=10,
            scheme_factory=FloodingScheme,
            metrics=MetricsCollector(),
            max_speed_kmh=30.0,
        )
        scheduler.run(until=100.0)
        return network.positions()

    assert build(5) == build(5)
    assert build(5) != build(6)


# --------------------------------------------- RE snapshot vs networkx


def alive_component(network, source_id):
    """The alive hosts reachable from ``source_id`` through alive relays
    (source excluded), from networkx on a unit-disk graph built pair by
    pair."""
    alive = network.alive_ids()
    positions = {
        host_id: point for host_id, point in network.positions().items()
        if host_id in alive
    }
    radius_sq = network.params.radio_radius ** 2
    graph = nx.Graph()
    graph.add_nodes_from(positions)
    ids = sorted(positions)
    for i, a in enumerate(ids):
        ax, ay = positions[a]
        for b in ids[i + 1:]:
            bx, by = positions[b]
            if (ax - bx) ** 2 + (ay - by) ** 2 <= radius_sq:
                graph.add_edge(a, b)
    return set(nx.node_connected_component(graph, source_id)) - {source_id}


def test_snapshot_links_hosts_exactly_r_apart_and_skips_crashed():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(6, 500.0), FloodingScheme
    )
    assert network.reachable_from(0) == {1, 2, 3, 4, 5}
    network.crash_host(3)
    for source_id in (0, 2, 4):
        assert network.reachable_from(source_id) == alive_component(
            network, source_id
        )
    assert network.reachable_from(0) == {1, 2}
    assert network.reachable_from(4) == {5}
    with pytest.raises(KeyError):
        network.reachable_from(3)


def test_snapshot_matches_networkx_on_lattice_layouts():
    """Hosts on a 100 m lattice, so many pairs are exactly 500 m apart
    (on an axis, or as a 300-400-500 diagonal), with a fifth crashed."""
    rng = random.Random(7)
    for _ in range(5):
        positions = [
            (100.0 * rng.randrange(16), 100.0 * rng.randrange(16))
            for _ in range(30)
        ]
        scheduler = Scheduler()
        network, _ = build_static_network(
            scheduler, positions, FloodingScheme
        )
        crashed = rng.sample(range(30), 6)
        for host_id in crashed:
            network.crash_host(host_id)
        for source_id in range(30):
            if source_id in crashed:
                with pytest.raises(KeyError):
                    network.reachable_from(source_id)
            else:
                assert network.reachable_from(source_id) == alive_component(
                    network, source_id
                ), source_id
