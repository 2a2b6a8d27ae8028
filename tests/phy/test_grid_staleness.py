"""Stale positions: the receiver scan must never miss a receiver.

The scan reads the position store's per-instant epoch cache, so a cache
left over from an earlier instant would silently miss (or invent)
receivers, and the faster the hosts the bigger the error.  This property
test drives 1000 fast hosts through many irregular query instants and
checks the scan against a brute-force distance filter at every one.
"""

import random

from repro.experiments.config import ScenarioConfig
from repro.geometry.points import distance
from repro.metrics.collector import MetricsCollector
from repro.mobility.map import RectMap
from repro.net.network import Network
from repro.phy.params import PhyParams
from repro.schemes import make_scheme
from repro.sim.engine import Scheduler
from repro.sim.randomness import RandomStreams

NUM_HOSTS = 1000
SPEED_KMH = 300.0  # far above the paper's speeds: stale positions drift far


def build_network():
    scheduler = Scheduler()
    network = Network(
        scheduler=scheduler,
        params=PhyParams(),
        world=RectMap.square_units(3),
        streams=RandomStreams(11),
        num_hosts=NUM_HOSTS,
        scheme_factory=lambda: make_scheme("flooding"),
        metrics=MetricsCollector(),
        max_speed_kmh=SPEED_KMH,
    )
    return scheduler, network


def brute_force_in_range(network, host_id):
    """In-range hosts from each host's own model, bypassing the store."""
    now = network.scheduler.now
    positions = {h.host_id: h.mobility.position(now) for h in network.hosts}
    center = positions[host_id]
    radius = network.params.radio_radius
    return sorted(
        other
        for other, pos in positions.items()
        if other != host_id and distance(center, pos) <= radius
    )


def check_scans_at_many_instants():
    scheduler, network = build_network()
    rng = random.Random(23)
    failures = []

    def check(host_id):
        observed = sorted(network.channel.neighbors_in_range(host_id))
        expected = brute_force_in_range(network, host_id)
        if observed != expected:
            failures.append((scheduler.now, host_id, observed, expected))

    # Irregular query times: some bunched within one frame time, some
    # seconds apart (segment rolls in between).
    t = 0.0
    for _ in range(120):
        t += rng.choice((0.001, 0.01, 0.4, 3.0)) * rng.random()
        scheduler.schedule_at(t, check, rng.randrange(NUM_HOSTS))
    scheduler.run(until=t + 1.0)

    assert not failures, (
        f"{len(failures)} stale scans; first: t={failures[0][0]} "
        f"host={failures[0][1]}"
    )
    return network


def test_vector_scan_never_misses_receivers_at_high_speed():
    network = check_scans_at_many_instants()
    assert network.channel.stats.batch_scans > 0
