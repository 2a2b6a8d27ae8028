"""Tracing must observe, never perturb.

A traced run (without the sampler) is **bit-identical** to an untraced
run: same metrics, same channel counters, same event count, same fault
trace.  With the sampler armed, its tick events shift the scheduler's
event count -- and only that.  And two traced runs of the same config
produce identical record streams (pure simulation-time determinism).
"""

import json

from repro.experiments.runner import run_broadcast_simulation
from repro.faults.plan import FaultPlan
from repro.net.host import HelloConfig
from repro.trace import TraceRecorder

from tests.trace.conftest import small_config, traced_run


def fingerprint(result) -> dict:
    """Every observable that must not move when tracing is switched on."""
    ch = result.channel_stats
    return json.loads(json.dumps({
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "re": result.re,
        "srb": result.srb,
        "latency": result.latency,
        "hellos": result.hellos,
        "broadcasts": result.stats.broadcasts,
        "backoffs_started": result.backoffs_started,
        "transmissions": ch.transmissions,
        "deliveries": ch.deliveries,
        "collisions": ch.collisions,
        "deaf_misses": ch.deaf_misses,
        "injected_drops": ch.injected_drops,
        "total_tx_airtime": ch.total_tx_airtime,
        "total_rx_airtime": ch.total_rx_airtime,
        "broadcasts_skipped": result.broadcasts_skipped,
        "fault_trace": [
            (ev.time, ev.kind, ev.host_id) for ev in result.fault_trace
        ],
        "hello_updates": result.perf.hello_updates,
        "neighbor_expirations": result.perf.neighbor_expirations,
        "frames_received": result.perf.frames_received,
    }))


def test_tracing_without_sampler_is_bit_identical(traced_scenario):
    name, traced_result, _ = traced_scenario
    config = traced_result.config
    # The fixture's run used the sampler; compare sampler-less tracing
    # against a plain run -- every field must match, event count included.
    plain = run_broadcast_simulation(config)
    trace = TraceRecorder()
    traced = run_broadcast_simulation(config, trace=trace)
    assert fingerprint(traced) == fingerprint(plain), name
    assert len(trace) > 0  # it did record


def test_tracing_under_faults_is_bit_identical():
    faults = FaultPlan.parse(
        "crash:host=3,at=6,recover=14;churn:rate=0.02,downtime=4;"
        "loss:p=0.05"
    )
    configs = {
        "flooding": small_config("flooding", seed=7, faults=faults),
        # Crashes replace neighbor tables mid-run while HELLOs flow.
        "nc-dhi": small_config(
            "neighbor-coverage", seed=7, faults=faults,
            hello=HelloConfig(dynamic=True),
        ),
    }
    for name, config in configs.items():
        plain = run_broadcast_simulation(config)
        traced = run_broadcast_simulation(config, trace=TraceRecorder())
        assert fingerprint(traced) == fingerprint(plain), name


def test_sampler_shifts_only_the_event_count(traced_scenario):
    name, sampled_result, _ = traced_scenario
    plain = run_broadcast_simulation(sampled_result.config)
    sampled_fp = fingerprint(sampled_result)
    plain_fp = fingerprint(plain)
    # The sampler's own ticks are scheduler events...
    assert sampled_fp.pop("events_processed") > plain_fp.pop(
        "events_processed"
    ), name
    # ...and nothing else moves.
    assert sampled_fp == plain_fp, name


def test_traced_twice_yields_identical_records(traced_scenario):
    name, result, trace = traced_scenario
    config = result.config
    scheme, seed = config.scheme, config.seed
    _, again = traced_run(scheme, seed, sample_dt=trace.sample_dt)
    assert again.records == trace.records, name
    assert again.categories() == trace.categories()
