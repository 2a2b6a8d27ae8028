"""Kernel perf layer: counters, aggregation, profiling helpers."""

import math

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.io import result_to_dict
from repro.experiments.runner import run_broadcast_simulation
from repro.faults.plan import CrashFault, FaultPlan
from repro.perf import KernelPerf, format_profile, profiled


def small_config(**overrides):
    base = dict(
        scheme="adaptive-counter",
        map_units=3,
        num_hosts=30,
        num_broadcasts=4,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def result():
    return run_broadcast_simulation(small_config())


def test_every_run_carries_kernel_counters(result):
    perf = result.perf
    assert isinstance(perf, KernelPerf)
    # Scheduler counters mirror the run itself.
    assert perf.events_processed == result.events_processed
    assert perf.events_scheduled >= perf.events_processed
    assert perf.events_cancelled >= 0
    # Channel counters mirror ChannelStats.
    ch = result.channel_stats
    assert perf.transmissions == ch.transmissions
    assert perf.deliveries == ch.deliveries
    assert perf.collisions == ch.collisions
    assert perf.deaf_misses == ch.deaf_misses
    # MAC counters are summed across hosts; the run clearly sent frames.
    assert perf.frames_sent > 0
    assert perf.frames_received > 0
    assert perf.backoffs_started == result.backoffs_started
    # HELLO-driven neighbor bookkeeping ran (adaptive-counter uses HELLOs).
    assert perf.hello_updates > 0


def test_position_memo_is_effective(result):
    """The position store's epoch cache must actually absorb repeat
    queries -- a dense delivery loop asks for the same host positions
    many times at one timestamp."""
    perf = result.perf
    assert perf.pos_misses > 0
    assert perf.pos_hits > 0
    assert 0.0 < perf.pos_hit_rate < 1.0
    assert perf.pos_hit_rate == perf.pos_hits / (perf.pos_hits + perf.pos_misses)


def dense_microbench_config():
    """The golden suite's ``flooding-dense`` scenario: flooding on one
    unit square, the densest position-query pattern."""
    return ScenarioConfig(
        scheme="flooding", map_units=1, num_hosts=100, num_broadcasts=12,
        seed=7,
    )


def test_vector_epoch_cache_rate_is_pinned_on_dense_microbench():
    """The PositionStore's epoch cache serves whole instants: one batched
    evaluation per position epoch, hits for everything after it.  A miss
    is an O(n) batch rather than one model call, so few queries ever
    reach Python."""
    perf = run_broadcast_simulation(dense_microbench_config()).perf
    assert (perf.pos_hits, perf.pos_misses) == (695, 418)
    assert perf.pos_hit_rate == pytest.approx(0.6244, abs=1e-3)
    assert perf.pos_batch_evals == 418
    # One vectorized receiver scan per transmission (1101 in the golden
    # fingerprint).
    assert perf.batch_scans == 1101
    assert perf.vector_candidates == 105322


def test_counters_are_deterministic(result):
    rerun = run_broadcast_simulation(small_config())
    assert rerun.perf == result.perf
    assert rerun.perf.as_dict() == result.perf.as_dict()


def test_fresh_perf_is_zeroed_and_hit_rate_defined():
    perf = KernelPerf()
    assert all(value == 0 for value in perf.as_dict().values())
    assert perf.pos_hit_rate == 0.0  # no division by zero


def test_merge_adds_counters(result):
    total = KernelPerf()
    total.merge(result.perf).merge(result.perf)
    for name, value in result.perf.as_dict().items():
        assert getattr(total, name) == 2 * value
    assert total != result.perf
    assert KernelPerf().merge(result.perf) == result.perf


def test_as_dict_covers_all_slots(result):
    exported = result.perf.as_dict()
    assert set(exported) == set(KernelPerf.__slots__)
    assert all(isinstance(v, int) for v in exported.values())


def test_eq_rejects_other_types(result):
    assert result.perf != 42
    assert (result.perf == "x") is False


def test_result_to_dict_includes_kernel_section(result):
    exported = result_to_dict(result)
    assert exported["perf"]["kernel"] == result.perf.as_dict()


def test_result_to_dict_tolerates_missing_perf(result):
    """Old cache entries predate the perf field; export must not choke."""
    result_sans_perf = run_broadcast_simulation(small_config())
    result_sans_perf.perf = None
    assert result_to_dict(result_sans_perf)["perf"]["kernel"] is None


# ---------------------------------------------- heap residue / disposition


def assert_disposition_invariant(perf):
    """Every scheduled event ends up in exactly one disposition bucket."""
    assert perf.events_pending_final >= perf.cancelled_pending_final >= 0
    assert perf.events_scheduled == (
        perf.events_processed
        + perf.events_cancelled
        + (perf.events_pending_final - perf.cancelled_pending_final)
    )


def test_heap_residue_closes_disposition_invariant(result):
    """An adaptive-counter run ends with HELLO timers still on the heap,
    so the residue counters are exercised with real pending events."""
    perf = result.perf
    assert perf.events_pending_final > 0
    assert_disposition_invariant(perf)


def test_early_quiescent_fault_run_still_reports_residue():
    """Crash every host early with no recovery: the heap drains of live
    work and the run quiesces long before the nominal end time.  collect()
    runs after Scheduler.run() returns regardless of why the heap drained,
    so the residue counters are present and the invariant still closes."""
    plan = FaultPlan(
        crashes=tuple(CrashFault(time=0.5, host_id=h) for h in range(10))
    )
    result = run_broadcast_simulation(
        small_config(
            scheme="flooding", num_hosts=10, num_broadcasts=3, faults=plan
        )
    )
    perf = result.perf
    # All broadcast requests drew dead sources.
    assert result.broadcasts_skipped == 3
    assert len(result.fault_trace) == 10
    assert_disposition_invariant(perf)


def test_dense_flooding_schedules_few_events_it_never_runs():
    """On the 1x1 map every edge reaches every contending MAC.  With one
    event per access, 4.6 events were scheduled per event run, most of
    them accesses a backoff freeze cancelled; the contention heap gives
    only the first access of an edge and the earliest waiting one an
    event."""
    result = run_broadcast_simulation(
        small_config(
            scheme="flooding", map_units=1, num_hosts=100, num_broadcasts=10,
            seed=1,
        )
    )
    perf = result.perf
    assert perf.events_processed == result.events_processed > 5000
    assert perf.events_scheduled <= 1.5 * perf.events_processed
    assert_disposition_invariant(perf)


def test_residue_counters_survive_as_dict_roundtrip(result):
    exported = result.perf.as_dict()
    assert "events_pending_final" in exported
    assert "cancelled_pending_final" in exported
    rebuilt = KernelPerf()
    for name, value in exported.items():
        setattr(rebuilt, name, value)
    assert rebuilt == result.perf


# ------------------------------------------------------------ profiling


def _busy_work():
    return sum(math.sqrt(i) for i in range(2000))


def test_profiled_captures_calls():
    with profiled() as prof:
        _busy_work()
    text = format_profile(prof)
    assert "_busy_work" in text
    assert "cumulative" in text and "tottime" in text


def test_format_profile_top_n_limits_rows():
    with profiled() as prof:
        _busy_work()
    short = format_profile(prof, top_n=1)
    long = format_profile(prof, top_n=50)
    assert len(short) < len(long)


def test_format_profile_rejects_bad_top_n():
    with profiled() as prof:
        pass
    with pytest.raises(ValueError):
        format_profile(prof, top_n=0)


def test_profiled_disables_on_exception():
    profile = None
    with pytest.raises(RuntimeError):
        with profiled() as profile:
            raise RuntimeError("boom")
    # The profiler was disabled on the way out: rendering works and a
    # fresh profiled() block can start cleanly afterwards.
    format_profile(profile, top_n=5)  # must not raise
    with profiled():
        _busy_work()
