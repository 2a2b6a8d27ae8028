"""Crash-resume bit-identity: a campaign interrupted at any checkpoint
boundary and resumed must produce results byte-identical to one that
never stopped, without re-running any completed simulation."""

from __future__ import annotations

import pytest

import repro.experiments.parallel as parallel_mod
from repro.campaigns.planner import plan_campaign
from repro.campaigns.queue import RESULTS_NAME, CampaignExecutor
from repro.campaigns.spec import spec_from_dict
from repro.experiments.runner import run_broadcast_simulation
from tests.integration.test_determinism import fingerprint


def make_plan():
    return plan_campaign(spec_from_dict({
        "name": "resume-identity",
        "grid": {
            "scheme": ["flooding", "counter"],
            "seed": [1, 2, 3],
        },
        "scenario": {
            "map_units": 1,
            "num_hosts": 15,
            "num_broadcasts": 3,
            "scheme_params": {},
        },
    }))


def reference_bytes(tmp_path, plan):
    """The results.json of an uninterrupted run in a pristine cache."""
    outcome = CampaignExecutor(
        plan, tmp_path / "reference", max_workers=1
    ).run()
    assert outcome.status == "complete"
    return (outcome.directory / RESULTS_NAME).read_bytes()


def interrupt_after(monkeypatch, n):
    calls = {"n": 0}

    def wrapper(config):
        if calls["n"] >= n:
            raise KeyboardInterrupt
        calls["n"] += 1
        return run_broadcast_simulation(config)

    monkeypatch.setattr(parallel_mod, "run_broadcast_simulation", wrapper)


@pytest.mark.parametrize("stop_after", [1, 3, 5])
def test_interrupt_resume_bit_identical(tmp_path, monkeypatch, stop_after):
    plan = make_plan()
    expected = reference_bytes(tmp_path, plan)

    interrupt_after(monkeypatch, stop_after)
    first = CampaignExecutor(
        plan, tmp_path / "campaign", max_workers=1
    )
    outcome = first.run()
    assert outcome.status == "interrupted"
    assert outcome.completed == stop_after
    assert first.runner.perf.simulated == stop_after

    monkeypatch.setattr(
        parallel_mod, "run_broadcast_simulation", run_broadcast_simulation
    )
    second = CampaignExecutor(
        plan, tmp_path / "campaign", max_workers=1
    )
    resumed = second.run()
    assert resumed.status == "complete"
    # Zero duplicate simulations: every pre-interrupt run came from cache.
    assert second.runner.perf.simulated == plan.total - stop_after
    assert second.runner.perf.cache_hits == stop_after

    observed = (resumed.directory / RESULTS_NAME).read_bytes()
    assert observed == expected


def test_double_interrupt_then_resume(tmp_path, monkeypatch):
    """Two successive crashes still converge to the identical document."""
    plan = make_plan()
    expected = reference_bytes(tmp_path, plan)

    for budget in (2, 2):
        interrupt_after(monkeypatch, budget)
        outcome = CampaignExecutor(
            plan, tmp_path / "campaign", max_workers=1
        ).run()
        assert outcome.status == "interrupted"

    monkeypatch.setattr(
        parallel_mod, "run_broadcast_simulation", run_broadcast_simulation
    )
    final = CampaignExecutor(
        plan, tmp_path / "campaign", max_workers=1
    )
    outcome = final.run()
    assert outcome.status == "complete"
    assert final.runner.perf.simulated == plan.total - 4
    assert final.runner.perf.cache_hits == 4
    assert (outcome.directory / RESULTS_NAME).read_bytes() == expected


def test_campaign_results_match_direct_simulation(tmp_path):
    """Campaign-run metrics equal a fresh direct run's fingerprint."""
    plan = make_plan()
    outcome = CampaignExecutor(
        plan, tmp_path / "campaign", max_workers=1
    ).run()
    for planned, result in zip(plan.runs, outcome.results):
        direct = fingerprint(run_broadcast_simulation(planned.config))
        observed = fingerprint(result)
        assert observed == direct, planned.run_id
