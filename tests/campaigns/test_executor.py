"""Campaign executor: one batch per session, resume, interrupts, status
from the cache, manifest, payloads."""

import json

import pytest

import repro.campaigns.queue as queue_mod
import repro.experiments.parallel as parallel_mod
from repro.campaigns.planner import plan_campaign
from repro.campaigns.queue import (
    CampaignExecutor,
    CampaignMismatch,
    campaign_results_payload,
    campaign_status,
    load_manifest,
    write_manifest,
)
from repro.campaigns.spec import spec_from_dict
from repro.experiments.parallel import ParallelRunner, ResultCache
from repro.experiments.runner import run_broadcast_simulation


def tiny_spec(**overrides):
    base = {
        "name": "exec-test",
        "grid": {"scheme": ["flooding"], "seed": [1, 2, 3]},
        "scenario": {"map_units": 1, "num_hosts": 15, "num_broadcasts": 3},
    }
    base.update(overrides)
    return spec_from_dict(base)


def tiny_plan():
    return plan_campaign(
        tiny_spec(grid={"scheme": ["flooding"], "seed": [1, 2, 3, 4]})
    )


def make_executor(tmp_path, plan, **kwargs):
    kwargs.setdefault("max_workers", 1)
    return CampaignExecutor(plan, tmp_path / "camp", **kwargs)


def interrupt_after(monkeypatch, n):
    """Let n simulations finish, then raise KeyboardInterrupt."""
    calls = {"n": 0}

    def wrapper(config):
        if calls["n"] >= n:
            raise KeyboardInterrupt
        calls["n"] += 1
        return run_broadcast_simulation(config)

    monkeypatch.setattr(
        parallel_mod, "run_broadcast_simulation", wrapper
    )


# ------------------------------------------------------------- complete


def test_complete_campaign_writes_everything(tmp_path):
    plan = plan_campaign(tiny_spec())
    executor = make_executor(tmp_path, plan)
    outcome = executor.run()
    assert outcome.status == "complete"
    assert outcome.completed == plan.total == 3
    assert all(r is not None for r in outcome.results)

    directory = outcome.directory
    manifest = load_manifest(directory / "manifest.json")
    assert manifest["status"] == "complete"
    assert manifest["cache_dir"] == str((directory / "cache").resolve())
    assert [r["run_id"] for r in manifest["runs"]] == [
        r.run_id for r in plan.runs
    ]
    cache = ResultCache(manifest["cache_dir"])
    assert all(r.digest in cache for r in plan.runs)
    assert sorted(p.name for p in directory.iterdir()) == [
        "cache", "manifest.json", "results.json",
    ]
    payload = json.loads((directory / "results.json").read_text())
    assert payload["completed_runs"] == 3
    assert payload["missing"] == []


def test_progress_callback_fires_per_run(tmp_path):
    plan = plan_campaign(tiny_spec())
    seen = []
    make_executor(tmp_path, plan).run(
        progress=lambda planned, result: seen.append(planned.run_id)
    )
    assert seen == [r.run_id for r in plan.runs]


def test_rerun_is_all_cache_hits(tmp_path):
    plan = plan_campaign(tiny_spec())
    make_executor(tmp_path, plan).run()
    again = make_executor(tmp_path, plan)
    outcome = again.run()
    assert outcome.status == "complete"
    assert again.runner.perf.simulated == 0
    assert again.runner.perf.cache_hits == plan.total


def test_changed_spec_same_directory_rejected(tmp_path):
    plan = plan_campaign(tiny_spec())
    make_executor(tmp_path, plan).run()
    other = plan_campaign(tiny_spec(scenario={
        "map_units": 1, "num_hosts": 16, "num_broadcasts": 3,
    }))
    with pytest.raises(CampaignMismatch, match="spec changed"):
        make_executor(tmp_path, other).run()


def test_session_is_one_batch_of_every_planned_run(tmp_path, monkeypatch):
    batches = []
    run_many = ParallelRunner.run_many

    def recording(self, configs, *args, **kwargs):
        batches.append(list(configs))
        return run_many(self, configs, *args, **kwargs)

    monkeypatch.setattr(ParallelRunner, "run_many", recording)
    plan = plan_campaign(tiny_spec(grid={
        "scheme": ["flooding"], "seed": [1, 2, 3, 4, 5, 6],
    }))
    assert make_executor(tmp_path, plan).run().status == "complete"
    assert batches == [[r.config for r in plan.runs]]


def test_manifest_round_trip_and_atomicity(tmp_path):
    path = tmp_path / "manifest.json"
    assert load_manifest(path) is None
    write_manifest(path, {"campaign_id": "x", "status": "running"})
    write_manifest(path, {"campaign_id": "x", "status": "complete"})
    assert load_manifest(path)["status"] == "complete"
    # No temp droppings left behind by the atomic replace.
    assert list(tmp_path.iterdir()) == [path]


# ------------------------------------------------------------ interrupt


def test_interrupt_flushes_resumable_state(tmp_path, monkeypatch):
    plan = plan_campaign(tiny_spec())
    executor = make_executor(tmp_path, plan)
    interrupt_after(monkeypatch, 2)
    outcome = executor.run()
    assert outcome.status == "interrupted"
    assert outcome.resumable
    assert outcome.completed == 2

    directory = outcome.directory
    assert load_manifest(directory / "manifest.json")["status"] == "interrupted"
    cache = ResultCache(directory / "cache")
    assert [r.digest in cache for r in plan.runs] == [True, True, False]
    assert not (directory / "results.json").exists()
    status = campaign_status(directory)
    assert status["status"] == "interrupted"
    assert status["completed_runs"] == 2


def test_resume_after_interrupt_simulates_only_holes(tmp_path, monkeypatch):
    plan = plan_campaign(tiny_spec())
    interrupt_after(monkeypatch, 1)
    first = make_executor(tmp_path, plan)
    assert first.run().status == "interrupted"
    assert first.runner.perf.simulated == 1

    monkeypatch.setattr(
        parallel_mod, "run_broadcast_simulation", run_broadcast_simulation
    )
    second = make_executor(tmp_path, plan)
    outcome = second.run()
    assert outcome.status == "complete"
    # Zero duplicate executions: the finished run returns via cache.
    assert second.runner.perf.simulated == plan.total - 1
    assert second.runner.perf.cache_hits == 1
    assert load_manifest(
        outcome.directory / "manifest.json"
    )["status"] == "complete"


def test_interrupt_after_the_last_run_leaves_a_resumable_campaign(
    tmp_path, monkeypatch
):
    """A SIGTERM / Ctrl-C that lands once every run is in, while the
    payload is built, ends the session as interrupted; the rerun
    simulates nothing and writes results.json."""
    plan = plan_campaign(tiny_spec())
    build_payload = queue_mod.campaign_results_payload

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(queue_mod, "campaign_results_payload", interrupted)
    first = make_executor(tmp_path, plan)
    try:
        outcome = first.run()
    except KeyboardInterrupt:
        pytest.fail("an interrupt after the last run escaped run()")
    assert outcome.status == "interrupted"
    assert outcome.completed == plan.total
    directory = outcome.directory
    assert load_manifest(directory / "manifest.json")["status"] == "interrupted"
    assert sorted(p.name for p in directory.iterdir()) == [
        "cache", "manifest.json",
    ]

    monkeypatch.setattr(queue_mod, "campaign_results_payload", build_payload)
    second = make_executor(tmp_path, plan)
    assert second.run().status == "complete"
    assert second.runner.perf.simulated == 0
    payload = json.loads((directory / "results.json").read_text())
    assert payload["completed_runs"] == plan.total


# ---------------------------------------------------------------- status


def finished_then_cleared(tmp_path):
    """A finished campaign whose cache has since been cleared."""
    plan = plan_campaign(tiny_spec())
    make_executor(tmp_path, plan).run()
    directory = tmp_path / "camp"
    assert campaign_status(directory)["completed_runs"] == plan.total
    assert ResultCache(directory / "cache").clear() == plan.total
    return plan, directory


def test_status_follows_a_cleared_cache(tmp_path):
    plan, directory = finished_then_cleared(tmp_path)
    status = campaign_status(directory)
    assert status["completed_runs"] == 0
    assert status["progress"] == 0.0

    rerun = make_executor(tmp_path, plan)
    assert rerun.run().status == "complete"
    assert rerun.runner.perf.simulated == plan.total
    assert rerun.runner.perf.cache_hits == 0
    assert campaign_status(directory)["completed_runs"] == plan.total


def test_status_after_an_interrupt_counts_the_cached_runs(
    tmp_path, monkeypatch
):
    plan, directory = finished_then_cleared(tmp_path)
    interrupt_after(monkeypatch, 2)
    assert make_executor(tmp_path, plan).run().status == "interrupted"
    status = campaign_status(directory)
    assert status["status"] == "interrupted"
    assert status["completed_runs"] == 2


def test_status_reads_the_cache_without_creating_it(tmp_path):
    import shutil

    plan = plan_campaign(tiny_spec())
    make_executor(tmp_path, plan).run()
    directory = tmp_path / "camp"
    shutil.rmtree(directory / "cache")
    assert campaign_status(directory)["completed_runs"] == 0
    assert not (directory / "cache").exists()


# --------------------------------------------------------------- payload


def test_payload_is_deterministic_and_seedless_grouped(tmp_path):
    spec = tiny_spec(grid={"scheme": ["flooding", "counter"], "seed": [1, 2]})
    plan = plan_campaign(spec)
    outcome = make_executor(tmp_path, plan).run()
    payload = campaign_results_payload(plan, outcome.results)
    assert payload["total_runs"] == 4
    assert len(payload["summary"]) == 2  # one point per scheme
    for point in payload["summary"]:
        assert point["seeds"] == 2
        assert "seed" not in point["point"]
        assert point["re"] is not None
    # No wall-clock noise anywhere in the deterministic document.
    assert "wall_time" not in json.dumps(payload)


def test_payload_lists_missing_runs(tmp_path):
    plan = plan_campaign(tiny_spec())
    outcome = make_executor(tmp_path, plan).run()
    results = list(outcome.results)
    results[1] = None
    payload = campaign_results_payload(plan, results)
    assert payload["missing"] == ["run-00001"]
    assert payload["completed_runs"] == 2


def test_campaign_resources_block_is_opt_in(tmp_path):
    import json

    plan = tiny_plan()
    executor = CampaignExecutor(
        plan, tmp_path / "camp", max_workers=1, include_resources=True
    )
    executor.run()
    payload = json.loads((tmp_path / "camp" / "results.json").read_text())
    block = payload["resources"]
    assert block["runs_sampled"] == 4
    assert block["peak_rss_bytes"] > 0
    assert block["wall_time"] > 0

    # default (opt-out) payload stays free of host-machine noise
    executor2 = CampaignExecutor(plan, tmp_path / "camp2", max_workers=1)
    executor2.run()
    payload2 = json.loads((tmp_path / "camp2" / "results.json").read_text())
    assert "resources" not in payload2
