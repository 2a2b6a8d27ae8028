"""Every scheme through one standard scenario: requirements honored.

A completeness net: each registry scheme runs end to end on the same small
mobile network, and the machinery its class flags request (HELLO beacons,
GPS stamping) demonstrably engages.
"""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation
from repro.schemes import SCHEME_REGISTRY, make_scheme

# store_reachable_sets keeps every broadcast's per-host record, which
# test_every_receiving_host_decided reads.
SCENARIO = dict(
    map_units=3, num_hosts=30, num_broadcasts=5, seed=13,
    store_reachable_sets=True,
)


@pytest.fixture(scope="module", params=sorted(SCHEME_REGISTRY))
def scheme_result(request):
    config = ScenarioConfig(scheme=request.param, **SCENARIO)
    return request.param, run_broadcast_simulation(config)


def test_completes_with_sane_metrics(scheme_result):
    name, result = scheme_result
    assert result.stats.broadcasts == 5
    assert 0.0 <= result.re <= 1.0
    assert 0.0 <= result.srb <= 1.0
    assert result.latency > 0.0
    assert result.channel_stats.transmissions > 0


def test_hello_machinery_matches_declared_needs(scheme_result):
    name, result = scheme_result
    scheme = make_scheme(name)
    if scheme.needs_hello:
        assert result.hellos > 0, name
    else:
        assert result.hellos == 0, name


def test_every_receiving_host_decided(scheme_result):
    """No stuck pending state: every receiver either rebroadcast or was
    inhibited by simulation end."""
    name, result = scheme_result
    for record in result.metrics.records.values():
        for host_id in record.received_times:
            assert host_id in record.decision_times, (name, host_id)


def test_position_stamping_matches_declared_needs():
    """needs_position schemes stamp GPS into relayed copies; others ship
    None (no free information)."""
    from repro.experiments.topologies import build_static_network, line_positions
    from repro.net.packets import BroadcastPacket
    from repro.sim.engine import Scheduler

    for name in sorted(SCHEME_REGISTRY):
        scheme_probe = make_scheme(name)
        scheduler = Scheduler()
        network, metrics = build_static_network(
            scheduler, line_positions(3, 400.0), lambda n=name: make_scheme(n)
        )
        relayed = []

        original = network.channel.start_transmission

        def spy(sender_id, frame, duration, _original=original):
            if isinstance(frame, BroadcastPacket) and frame.hops > 0:
                relayed.append(frame)
            return _original(sender_id, frame, duration)

        network.channel.start_transmission = spy
        network.start()
        scheduler.schedule_at(1.0, network.initiate_broadcast, 0)
        scheduler.run(until=4.0)
        assert relayed, name  # the line forces at least one relay
        for packet in relayed:
            if scheme_probe.needs_position:
                assert packet.tx_position is not None, name
            else:
                assert packet.tx_position is None, name
