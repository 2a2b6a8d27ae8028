"""Parallel execution layer: determinism, caching, perf accounting."""

import pickle

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    ParallelRunner,
    ResultCache,
    config_digest,
)
from repro.experiments.replication import aggregate
from repro.experiments.runner import run_broadcast_simulation
from repro.faults.plan import ChurnProcess, FaultPlan


def small_config(**overrides):
    base = dict(
        scheme="adaptive-counter",
        map_units=3,
        num_hosts=40,
        num_broadcasts=6,
        seed=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def fault_config(**overrides):
    return small_config(
        faults=FaultPlan(churn=ChurnProcess(rate=0.01, downtime=5.0)),
        **overrides,
    )


def assert_same_run(a, b):
    """Bit-identical metrics, counters and fault traces."""
    assert a.re == b.re
    assert a.srb == b.srb
    assert a.latency == b.latency
    assert a.hellos == b.hellos
    assert a.events_processed == b.events_processed
    assert a.end_time == b.end_time
    assert a.channel_stats.transmissions == b.channel_stats.transmissions
    assert a.channel_stats.collisions == b.channel_stats.collisions
    assert [(e.time, e.kind, e.host_id) for e in a.fault_trace] == [
        (e.time, e.kind, e.host_id) for e in b.fault_trace
    ]


# ------------------------------------------------------------ determinism


def test_replicate_matches_sequential():
    """Seed replications aggregate identically inline and pooled."""
    config = small_config()
    configs = [config.with_overrides(seed=seed) for seed in (1, 2, 3)]
    inline = aggregate(config, ParallelRunner(max_workers=1).run_many(configs))
    pooled = aggregate(config, ParallelRunner(max_workers=2).run_many(configs))
    assert pooled.re == inline.re
    assert pooled.srb == inline.srb
    assert pooled.latency == inline.latency
    for inline_run, pooled_run in zip(inline.results, pooled.results):
        assert_same_run(inline_run, pooled_run)


def test_pooled_batch_matches_inline_with_faults():
    configs = [fault_config(seed=s) for s in (1, 2, 3)]
    inline = ParallelRunner(max_workers=1).run_many(configs)
    pooled = ParallelRunner(max_workers=2).run_many(configs)
    assert [r.config.seed for r in pooled] == [1, 2, 3]  # submission order
    assert len(pooled) == len(inline)
    for inline_run, pooled_run in zip(inline, pooled):
        assert_same_run(inline_run, pooled_run)


# ---------------------------------------------------------- deduplication


def counting_simulations(monkeypatch):
    """Patch the inline simulation entry point to record each config."""
    import repro.experiments.parallel as parallel_mod

    simulated = []

    def wrapper(config):
        simulated.append(config)
        return run_broadcast_simulation(config)

    monkeypatch.setattr(parallel_mod, "run_broadcast_simulation", wrapper)
    return simulated


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_batch_simulates_each_digest_once(tmp_path, monkeypatch, cached):
    simulated = counting_simulations(monkeypatch)
    a, b = TINY, TINY.with_overrides(seed=2)
    runner = ParallelRunner(
        max_workers=1, cache_dir=tmp_path if cached else None
    )
    results = runner.run_many([a, b, a, a, b])
    assert simulated == [a, b]  # first appearance order, once each
    assert [r.config for r in results] == [a, b, a, a, b]
    assert results[0] is results[2] is results[3]
    assert results[1] is results[4]
    assert results[0] == run_broadcast_simulation(a)
    perf = runner.perf
    assert (perf.runs, perf.simulated, perf.cache_hits) == (5, 2, 0)
    if cached:
        warm = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        again = warm.run_many([b, a, b])
        assert [r.config for r in again] == [b, a, b]
        assert len(simulated) == 2  # nothing re-simulated
        perf = warm.perf
        assert (perf.runs, perf.simulated, perf.cache_hits) == (3, 0, 2)


def test_progress_fires_for_every_position_as_its_result_lands(tmp_path):
    a, b = small_config(seed=1), small_config(seed=2)
    ParallelRunner(max_workers=1, cache_dir=tmp_path).run_many([b])
    seen = []
    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    results = runner.run_many(
        [a, b, a], progress=lambda i, result: seen.append((i, result))
    )
    # The cache hit lands first, then the one simulation fills both of
    # its positions.
    assert [i for i, _ in seen] == [1, 0, 2]
    assert all(results[i] is result for i, result in seen)
    assert [result.from_cache for _, result in seen] == [True, False, False]


def test_interrupted_batch_fills_every_repeat_of_a_finished_config(
    tmp_path, monkeypatch
):
    from repro.experiments.parallel import ExecutionInterrupted

    a, b = small_config(seed=1), small_config(seed=2)
    interrupting_runner(monkeypatch, 1)
    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    with pytest.raises(ExecutionInterrupted) as excinfo:
        runner.run_many([a, b, a, b])
    exc = excinfo.value
    assert exc.completed == 2
    assert [r is not None for r in exc.results] == [True, False, True, False]
    assert exc.results[0] is exc.results[2]
    assert exc.results[0].config == a
    assert runner.perf.simulated == 1
    assert runner.perf.runs == 2


# ----------------------------------------------------------------- cache


def test_cache_round_trip_returns_equal_result(tmp_path):
    config = fault_config()
    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    fresh = runner.run_many([config])[0]
    assert not fresh.from_cache
    assert runner.perf.simulated == 1 and runner.perf.cache_hits == 0

    warm = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    cached = warm.run_many([config])[0]
    assert cached.from_cache
    assert warm.perf.simulated == 0 and warm.perf.cache_hits == 1
    assert warm.perf.cache_hit_rate == 1.0
    # Value equality with both the fresh run and a from-scratch rerun.
    assert cached == fresh
    assert cached == run_broadcast_simulation(config)
    assert_same_run(cached, fresh)


def test_digest_distinguishes_configs_and_is_stable():
    a, b = small_config(), small_config()
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(small_config(seed=2))
    assert config_digest(a) != config_digest(fault_config())


def test_digest_rejects_callables():
    for value in (lambda n: 2, object()):
        with pytest.raises(ValueError, match="stable cache key"):
            config_digest(small_config(scheme_params={"x": value}))


def test_cache_survives_corrupt_entry(tmp_path):
    config = small_config()
    digest = config_digest(config)
    cache = ResultCache(tmp_path)
    (tmp_path / f"{digest}.pkl").write_bytes(b"not a pickle")
    assert cache.get(digest) is None
    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    result = runner.run_many([config])[0]
    assert not result.from_cache
    # The corrupt entry was overwritten with a good one.
    assert cache.get(digest) is not None


def test_cache_truncated_entry_is_deleted_and_recomputed(tmp_path):
    """A torn write (valid pickle prefix, cut short) is a miss: the husk
    is unlinked so the recomputed result can take its slot."""
    config = small_config()
    digest = config_digest(config)
    cache = ResultCache(tmp_path)

    good = run_broadcast_simulation(config)
    payload = pickle.dumps(good, protocol=pickle.HIGHEST_PROTOCOL)
    entry = tmp_path / f"{digest}.pkl"
    entry.write_bytes(payload[: len(payload) // 2])

    assert cache.get(digest) is None
    assert not entry.exists()  # husk removed, not left to fail forever

    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    result = runner.run_many([config])[0]
    assert not result.from_cache
    assert runner.perf.simulated == 1 and runner.perf.cache_hits == 0
    # Recomputed result landed in the freed slot and round-trips.
    reloaded = cache.get(digest)
    assert reloaded is not None
    assert_same_run(reloaded, result)


def test_cache_wrong_type_entry_is_deleted(tmp_path):
    """A file that unpickles fine but is not a SimulationResult is
    treated exactly like corruption."""
    cache = ResultCache(tmp_path)
    digest = config_digest(small_config())
    entry = tmp_path / f"{digest}.pkl"
    entry.write_bytes(pickle.dumps({"not": "a result"}))
    assert cache.get(digest) is None
    assert not entry.exists()


def test_cache_missing_entry_is_plain_miss(tmp_path):
    """No file at all: miss without touching the directory."""
    cache = ResultCache(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cache.get("0" * 16) is None
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_cache_clear(tmp_path):
    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    configs = [small_config(seed=s) for s in (1, 2)]
    runner.run_many(configs)
    assert len(runner.cache) == 2
    assert all(config_digest(c) in runner.cache for c in configs)
    assert runner.cache.clear() == 2
    assert len(runner.cache) == 0
    assert not any(config_digest(c) in runner.cache for c in configs)


# ------------------------------------------------------------------ perf


def test_perf_counters_accumulate():
    runner = ParallelRunner(max_workers=1)
    runner.run_many([small_config()])
    runner.run_many([small_config(seed=2)])
    perf = runner.perf
    assert perf.runs == 2
    assert perf.simulated == 2
    assert perf.events > 0
    assert perf.wall_time > 0.0
    assert perf.sim_wall_time > 0.0
    assert perf.events_per_sec > 0.0
    assert perf.as_dict()["runs"] == 2


TINY = ScenarioConfig(
    scheme="flooding", map_units=1, num_hosts=12, num_broadcasts=3, seed=1
)


def test_runner_perf_events_per_sec_excludes_cached_runs(tmp_path):
    """Regression pin: cache hits must not count into events/sec.

    A cached result's wall_time is the *original* run's measurement; if
    a warm runner folded those into its throughput aggregate, events/sec
    would report simulation speed it never achieved.
    """
    cold = ParallelRunner(max_workers=1, cache_dir=tmp_path / "cache")
    cold.run_many([TINY])
    assert cold.perf.simulated == 1
    assert cold.perf.events > 0

    warm = ParallelRunner(max_workers=1, cache_dir=tmp_path / "cache")
    results = warm.run_many([TINY])
    assert results[0].from_cache
    assert warm.perf.cache_hits == 1
    assert warm.perf.simulated == 0
    assert warm.perf.events == 0
    assert warm.perf.sim_wall_time == 0.0
    assert warm.perf.events_per_sec == 0.0


def test_runner_perf_aggregates_kernel_counters(tmp_path):
    """Simulated runs fold their KernelPerf into the runner aggregate;
    cache hits do not double-count."""
    config = small_config()
    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    result = runner.run_many([config])[0]
    kernel = runner.perf.kernel
    assert kernel is not None
    assert kernel == result.perf
    assert kernel.events_processed == result.events_processed
    assert kernel.transmissions == result.channel_stats.transmissions

    warm = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    warm.run_many([config])
    assert warm.perf.cache_hits == 1
    assert warm.perf.kernel is None  # nothing simulated, nothing merged
    assert warm.perf.as_dict()["kernel"] is None

    exported = runner.perf.as_dict()["kernel"]
    assert exported == result.perf.as_dict()
    assert exported["events_processed"] == result.events_processed


def test_result_perf_fields_and_export():
    from repro.experiments.io import result_to_dict

    result = run_broadcast_simulation(small_config())
    assert result.wall_time > 0.0
    assert result.events_per_sec > 0.0
    assert not result.from_cache
    exported = result_to_dict(result)
    assert exported["perf"]["wall_time"] == result.wall_time
    assert exported["perf"]["from_cache"] is False


def test_max_workers_validation():
    with pytest.raises(ValueError):
        ParallelRunner(max_workers=0)


# ------------------------------------------------------- stats and prune


def fill_cache(tmp_path, n):
    cache = ResultCache(tmp_path)
    digests = []
    for seed in range(1, n + 1):
        config = small_config(seed=seed)
        digest = config_digest(config)
        cache.put(digest, run_broadcast_simulation(config))
        digests.append(digest)
    return cache, digests


def test_cache_stats_empty(tmp_path):
    stats = ResultCache(tmp_path).stats()
    assert stats.entries == 0
    assert stats.total_bytes == 0
    assert stats.oldest_age == stats.newest_age == 0.0


def test_cache_stats_counts_entries_and_bytes(tmp_path):
    cache, _ = fill_cache(tmp_path, 3)
    stats = cache.stats()
    assert stats.entries == 3
    assert stats.total_bytes == sum(
        p.stat().st_size for p in tmp_path.glob("*.pkl")
    )
    assert stats.oldest_age >= stats.newest_age >= 0.0
    assert stats.directory == tmp_path


def test_prune_without_bounds_is_noop(tmp_path):
    cache, _ = fill_cache(tmp_path, 2)
    report = cache.prune()
    assert report.removed == 0
    assert report.kept == 2
    assert cache.stats().entries == 2


def test_prune_max_age_drops_stale_entries(tmp_path):
    import os
    import time

    cache, digests = fill_cache(tmp_path, 2)
    old = tmp_path / f"{digests[0]}.pkl"
    stale = time.time() - 3600
    os.utime(old, (stale, stale))
    report = cache.prune(max_age=60)
    assert report.removed == 1
    assert report.kept == 1
    assert report.freed_bytes > 0
    assert cache.get(digests[0]) is None
    assert cache.get(digests[1]) is not None


def test_prune_max_bytes_evicts_least_recently_used(tmp_path):
    import os
    import time

    cache, digests = fill_cache(tmp_path, 3)
    # Spread the mtimes, then touch the oldest digest via a hit: LRU
    # order must follow use, not write time.
    now = time.time()
    for i, digest in enumerate(digests):
        ts = now - 300 * (len(digests) - i)
        os.utime(tmp_path / f"{digest}.pkl", (ts, ts))
    assert cache.get(digests[0]) is not None  # touch -> most recent

    keep_one = (tmp_path / f"{digests[0]}.pkl").stat().st_size
    report = cache.prune(max_bytes=keep_one)
    assert report.removed == 2
    assert report.kept == 1
    assert cache.get(digests[0]) is not None
    assert cache.get(digests[1]) is None
    assert cache.get(digests[2]) is None


def test_prune_max_bytes_zero_clears_everything(tmp_path):
    cache, _ = fill_cache(tmp_path, 2)
    report = cache.prune(max_bytes=0)
    assert report.removed == 2
    assert report.kept == 0
    assert report.kept_bytes == 0
    assert cache.stats().entries == 0


# ------------------------------------------------------------ interrupts


def interrupting_runner(monkeypatch, n):
    """Patch the simulation entry point to die after ``n`` completions."""
    import repro.experiments.parallel as parallel_mod

    calls = {"n": 0}

    def wrapper(config):
        if calls["n"] >= n:
            raise KeyboardInterrupt
        calls["n"] += 1
        return run_broadcast_simulation(config)

    monkeypatch.setattr(parallel_mod, "run_broadcast_simulation", wrapper)


def test_interrupt_raises_execution_interrupted(tmp_path, monkeypatch):
    from repro.experiments.parallel import ExecutionInterrupted

    configs = [small_config(seed=s) for s in (1, 2, 3)]
    interrupting_runner(monkeypatch, 2)
    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    with pytest.raises(ExecutionInterrupted) as excinfo:
        runner.run_many(configs)
    exc = excinfo.value
    assert isinstance(exc, KeyboardInterrupt)
    assert exc.completed == 2
    assert len(exc.results) == 3
    assert exc.results[2] is None
    assert exc.results[0] is not None
    assert runner.perf.simulated == 2


def test_interrupt_partial_results_are_cached(tmp_path, monkeypatch):
    import repro.experiments.parallel as parallel_mod

    from repro.experiments.parallel import ExecutionInterrupted

    configs = [small_config(seed=s) for s in (1, 2, 3)]
    interrupting_runner(monkeypatch, 1)
    runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    with pytest.raises(ExecutionInterrupted):
        runner.run_many(configs)

    monkeypatch.setattr(
        parallel_mod, "run_broadcast_simulation", run_broadcast_simulation
    )
    warm = ParallelRunner(max_workers=1, cache_dir=tmp_path)
    results = warm.run_many(configs)
    assert warm.perf.cache_hits == 1
    assert warm.perf.simulated == 2
    assert all(r is not None for r in results)
