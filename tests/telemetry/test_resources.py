"""Resource profiles: collection, serialization, aggregation."""

from __future__ import annotations

from repro.experiments.config import ScenarioConfig
import json

from repro.experiments.io import result_to_dict
from repro.experiments.runner import run_broadcast_simulation
from repro.telemetry.resources import (
    ResourceMonitor,
    ResourceProfile,
    peak_rss_bytes,
)

TINY = ScenarioConfig(
    scheme="flooding", map_units=1, num_hosts=12, num_broadcasts=3, seed=1
)


def test_peak_rss_is_positive_on_posix():
    assert peak_rss_bytes() > 1 << 20  # any Python process exceeds 1 MiB


def test_monitor_brackets_a_run():
    monitor = ResourceMonitor().start()
    junk = [list(range(100)) for _ in range(1000)]  # allocate something
    profile = monitor.finish(0.5)
    assert profile.peak_rss_bytes > 0
    assert profile.wall_time == 0.5
    assert profile.gc_collections >= 0
    del junk


def test_every_simulation_result_carries_resources():
    result = run_broadcast_simulation(TINY)
    profile = result.resources
    assert profile is not None
    assert profile.peak_rss_bytes > 0
    assert profile.wall_time == result.wall_time


def test_resources_round_trip_through_json():
    result = run_broadcast_simulation(TINY)
    data = json.loads(json.dumps(result_to_dict(result)))
    assert data["resources"]["peak_rss_bytes"] == result.resources.peak_rss_bytes
    assert data["resources"] == result.resources.as_dict()


def test_resources_excluded_from_equality():
    a = run_broadcast_simulation(TINY)
    b = run_broadcast_simulation(TINY)
    assert a.resources is not b.resources
    assert a == b  # compare=False on the noisy fields


def test_profile_merge_maxes_peaks_and_sums_counters():
    a = ResourceProfile(peak_rss_bytes=100, gc_collections=2, wall_time=1.0)
    b = ResourceProfile(peak_rss_bytes=300, gc_collections=1, wall_time=2.0)
    merged = a.merge(b)
    assert merged is a
    assert merged.peak_rss_bytes == 300
    assert merged.gc_collections == 3
    assert merged.wall_time == 3.0
