"""Property-based tests over whole simulations (small but real)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 1000),
    scheme=st.sampled_from(
        ["flooding", "counter", "adaptive-counter", "neighbor-coverage"]
    ),
    map_units=st.sampled_from([1, 3, 5]),
)
def test_metrics_always_in_range(seed, scheme, map_units):
    config = ScenarioConfig(
        scheme=scheme,
        scheme_params={"threshold": 3} if scheme == "counter" else {},
        map_units=map_units,
        num_hosts=25,
        num_broadcasts=3,
        seed=seed,
        store_reachable_sets=True,  # keeps the per-host records read below
    )
    result = run_broadcast_simulation(config)
    for record in result.metrics.records.values():
        re = record.reachability
        if re is not None:
            # Mobility between the snapshot and delivery can nudge a
            # borderline host into range, so allow a whisker above 1.  The
            # whisker must scale with the snapshot size: with a small
            # reachable set a single extra host is a large relative bump
            # (e.g. e=11, r=12 gives RE=1.09).
            whisker = 2.0 / record.reachable_count
            assert 0.0 <= re <= 1.0 + max(0.05, whisker)
        srb = record.saved_rebroadcast
        if srb is not None:
            assert 0.0 <= srb <= 1.0
        latency = record.latency(fallback_end=result.end_time)
        if latency is not None:
            assert latency >= 0.0
        # Rebroadcasters are a subset of receivers.
        assert record.rebroadcasters <= set(record.received_times)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 500))
def test_simulation_is_deterministic(seed):
    config = ScenarioConfig(
        scheme="counter",
        scheme_params={"threshold": 2},
        map_units=3,
        num_hosts=20,
        num_broadcasts=3,
        seed=seed,
    )
    a = run_broadcast_simulation(config)
    b = run_broadcast_simulation(config)
    assert a.events_processed == b.events_processed
    assert a.re == b.re
    assert a.srb == b.srb
    assert a.latency == b.latency
