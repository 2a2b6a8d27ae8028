"""End-to-end runner behaviour."""

import math

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation


def small(scheme="flooding", **overrides):
    defaults = dict(
        scheme=scheme, map_units=3, num_hosts=30, num_broadcasts=5, seed=11
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_runs_requested_broadcast_count():
    result = run_broadcast_simulation(small())
    assert result.stats.broadcasts == 5
    assert len(result.metrics.records) == 5


def test_metrics_in_valid_ranges():
    result = run_broadcast_simulation(small())
    assert 0.0 <= result.re <= 1.0
    assert 0.0 <= result.srb < 1.0
    assert result.latency > 0.0


def test_deterministic_with_same_seed():
    a = run_broadcast_simulation(small(seed=3))
    b = run_broadcast_simulation(small(seed=3))
    assert a.re == b.re
    assert a.srb == b.srb
    assert a.latency == b.latency
    assert a.events_processed == b.events_processed


def test_different_seeds_differ():
    a = run_broadcast_simulation(small(seed=3, num_broadcasts=10))
    b = run_broadcast_simulation(small(seed=4, num_broadcasts=10))
    assert (a.re, a.latency) != (b.re, b.latency)


def test_zero_broadcasts_allowed():
    result = run_broadcast_simulation(small(num_broadcasts=0))
    assert result.stats.broadcasts == 0
    assert math.isnan(result.re)


def test_network_hook_runs_before_start():
    seen = {}

    def hook(network):
        seen["hosts"] = len(network.hosts)

    run_broadcast_simulation(small(), network_hook=hook)
    assert seen == {"hosts": 30}


def test_hello_counted_for_hello_schemes():
    result = run_broadcast_simulation(small(scheme="adaptive-counter"))
    assert result.hellos > 0


def test_no_hellos_for_flooding():
    result = run_broadcast_simulation(small())
    assert result.hellos == 0


def test_summary_line_format():
    line = run_broadcast_simulation(small()).summary()
    assert "RE=" in line and "SRB=" in line and "latency=" in line


def test_channel_stats_exposed():
    result = run_broadcast_simulation(small())
    assert result.channel_stats.transmissions > 0
    assert result.channel_stats.deliveries > 0
