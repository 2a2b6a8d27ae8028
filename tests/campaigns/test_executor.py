"""Work-queue executor: checkpointing, resume, interrupts, payloads."""

import json

import pytest

import repro.experiments.parallel as parallel_mod
from repro.campaigns.checkpoint import load_manifest, load_records
from repro.campaigns.planner import plan_campaign
from repro.campaigns.queue import (
    CampaignExecutor,
    CampaignMismatch,
    campaign_results_payload,
    campaign_status,
)
from repro.campaigns.spec import spec_from_dict
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
    kwargs.setdefault("checkpoint_every", 2)
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
    assert manifest["completed_runs"] == 3
    assert [r["run_id"] for r in manifest["runs"]] == [
        r.run_id for r in plan.runs
    ]
    assert set(load_records(directory / "progress.jsonl")) == {
        r.run_id for r in plan.runs
    }
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


def test_executor_requires_a_cache(tmp_path):
    plan = plan_campaign(tiny_spec())
    runner = parallel_mod.ParallelRunner(max_workers=1)  # no cache
    with pytest.raises(ValueError, match="result cache"):
        CampaignExecutor(plan, tmp_path / "camp", runner=runner)


def test_checkpoint_every_validated(tmp_path):
    plan = plan_campaign(tiny_spec())
    with pytest.raises(ValueError, match="checkpoint_every"):
        make_executor(tmp_path, plan, checkpoint_every=0)


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
    records = load_records(directory / "progress.jsonl")
    assert set(records) == {"run-00000", "run-00001"}
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
    # Zero duplicate executions: the checkpointed run returns via cache.
    assert second.runner.perf.simulated == plan.total - 1
    assert second.runner.perf.cache_hits == 1
    assert load_manifest(
        outcome.directory / "manifest.json"
    )["status"] == "complete"


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
