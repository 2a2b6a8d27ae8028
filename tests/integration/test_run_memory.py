"""A run's memory: settled broadcasts against kept records, the live state
a long run holds, and the world freed when the run returns.

A run settles each broadcast once no copy of it can arrive
(:meth:`repro.metrics.collector.MetricsCollector.settle`) unless it keeps
the per-host records (``store_reachable_sets``); both must read the same
numbers.  And :meth:`repro.net.network.Network.close` must leave nothing
for the cycle collector: with it off, no world object may outlive the run.
"""

import gc
from dataclasses import replace

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation
from repro.faults.plan import FaultPlan
from repro.mac.csma import CsmaCaMac
from repro.metrics.collector import BroadcastRecord, SettledBroadcast
from repro.net.host import HelloConfig, MobileHost
from repro.net.neighbors import DEFAULT_NV_WINDOW, NeighborStore
from repro.net.network import Network
from repro.phy.capture import CaptureModel
from repro.phy.channel import Channel
from repro.sim.engine import Scheduler

from tests.integration.test_determinism import SCENARIOS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_settled_outcomes_match_kept_records(name):
    config = SCENARIOS[name]
    settled = run_broadcast_simulation(config)
    kept = run_broadcast_simulation(replace(config, store_reachable_sets=True))
    end = settled.end_time
    assert end == kept.end_time
    a, b = settled.metrics, kept.metrics
    assert a.summarize(end) == b.summarize(end)
    assert a.fault_window_summary(end) == b.fault_window_summary(end)
    assert list(a.records) == list(b.records)
    for key, outcome in a.records.items():
        record = b.records[key]
        assert isinstance(outcome, SettledBroadcast), key
        assert isinstance(record, BroadcastRecord), key
        assert outcome.reachability == record.reachability, key
        assert outcome.saved_rebroadcast == record.saved_rebroadcast, key
        assert outcome.latency(fallback_end=end) == record.latency(
            fallback_end=end
        ), key
        assert outcome.received_count == record.received_count, key
        assert outcome.rebroadcast_count == record.rebroadcast_count, key


def test_a_long_run_holds_only_the_broadcasts_in_flight():
    """Fault-free adaptive counter on 5x5, 300 broadcasts: few records
    open at any origination, the duplicate store nearly empty at the end,
    and each neighbor table's join/leave log within the variation window
    of its newest entry."""
    open_counts = []
    log_spans = []
    captured = {}

    def hook(network):
        captured["network"] = network
        originate = network.initiate_broadcast

        def counting(source_id):
            records = network.metrics.records.values()
            open_counts.append(
                sum(isinstance(r, BroadcastRecord) for r in records)
            )
            for host in network.hosts:
                log = host.neighbor_table._changes
                if log:
                    log_spans.append(log[-1][0] - log[0][0])
            return originate(source_id)

        network.initiate_broadcast = counting

    config = ScenarioConfig(
        scheme="adaptive-counter", map_units=5, num_broadcasts=300, seed=1
    )
    run_broadcast_simulation(config, network_hook=hook)
    assert len(open_counts) == 300
    assert max(open_counts) <= 3
    assert len(captured["network"].dup_store) <= 1
    assert log_spans and max(log_spans) <= DEFAULT_NV_WINDOW


WORLD_TYPES = (
    Network, MobileHost, CsmaCaMac, Channel, Scheduler, NeighborStore,
)

FREED_SCENARIOS = {
    "flooding-1x1": ScenarioConfig(scheme="flooding", map_units=1),
    "adaptive-counter-5x5": ScenarioConfig(scheme="adaptive-counter"),
    "adaptive-location-5x5": ScenarioConfig(scheme="adaptive-location"),
    "nc-dhi-9x9": ScenarioConfig(
        scheme="neighbor-coverage", map_units=9, max_speed_kmh=90.0,
        hello=HelloConfig(dynamic=True),
    ),
    "adaptive-counter-capture-faults": ScenarioConfig(
        scheme="adaptive-counter",
        capture=CaptureModel(),
        faults=FaultPlan.parse(
            "churn:rate=0.003,downtime=8;ge:p=0.03,r=0.4,bad=0.9"
        ),
    ),
}


def world_objects():
    return {id(o) for o in gc.get_objects() if isinstance(o, WORLD_TYPES)}


@pytest.mark.parametrize("name", sorted(FREED_SCENARIOS))
def test_the_world_is_freed_when_the_run_returns(name):
    config = replace(FREED_SCENARIOS[name], num_broadcasts=5, seed=1)
    gc.collect()
    before = world_objects()
    gc.disable()
    try:
        result = run_broadcast_simulation(config)
        left = world_objects() - before
    finally:
        gc.enable()
    assert result.stats.broadcasts > 0
    assert not left, f"{len(left)} world objects outlived the run"
