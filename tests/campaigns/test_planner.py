"""Planner: deterministic expansion, stable ids, config fidelity."""

import pytest

from repro.campaigns.planner import axis_order, plan_campaign
from repro.campaigns.spec import NO_FAULTS, SpecError, spec_from_dict
from repro.experiments.parallel import config_digest


def make_spec(**overrides):
    base = {
        "name": "plan-test",
        "grid": {
            "scheme": ["flooding", "counter"],
            "map_units": [1, 3],
            "seed": [1, 2],
        },
        "scenario": {"num_hosts": 20, "num_broadcasts": 5},
    }
    base.update(overrides)
    return spec_from_dict(base)


def test_axis_order_sorted_with_seed_innermost():
    assert axis_order(make_spec()) == ["map_units", "scheme", "seed"]


def test_expansion_count_and_stable_ids():
    plan = plan_campaign(make_spec())
    assert plan.total == 8
    assert [r.run_id for r in plan.runs] == [
        f"run-{i:05d}" for i in range(8)
    ]
    # seed is the innermost axis: consecutive runs share the grid point.
    assert plan.runs[0].point["seed"] == 1
    assert plan.runs[1].point["seed"] == 2
    assert plan.runs[0].point["scheme"] == plan.runs[1].point["scheme"]


def test_expansion_is_deterministic():
    a = plan_campaign(make_spec())
    b = plan_campaign(make_spec())
    assert a.campaign_id == b.campaign_id
    assert [(r.run_id, r.digest) for r in a.runs] == [
        (r.run_id, r.digest) for r in b.runs
    ]


def test_configs_carry_grid_and_scenario_values():
    plan = plan_campaign(make_spec())
    for run in plan.runs:
        assert run.config.scheme == run.point["scheme"]
        assert run.config.map_units == run.point["map_units"]
        assert run.config.seed == run.point["seed"]
        assert run.config.num_hosts == 20
        assert run.digest == config_digest(run.config)


def test_scheme_params_dotted_axis():
    plan = plan_campaign(make_spec(grid={
        "scheme": ["counter"],
        "scheme_params.threshold": [2, 3, 4],
    }))
    thresholds = [r.config.scheme_params["threshold"] for r in plan.runs]
    assert thresholds == [2, 3, 4]


def test_faults_axis_binds_named_plans():
    plan = plan_campaign(make_spec(
        grid={"scheme": ["flooding"], "faults": [NO_FAULTS, "churny"]},
        faults={"churny": "churn:rate=0.01,downtime=5"},
    ))
    none_run, churny_run = plan.runs
    assert none_run.config.faults is None
    assert churny_run.config.faults is not None
    assert churny_run.config.faults.churn.rate == 0.01
    assert none_run.digest != churny_run.digest


def test_invalid_grid_point_names_the_point():
    with pytest.raises(SpecError, match="not a valid scenario"):
        plan_campaign(make_spec(grid={"scheme": ["flooding"],
                                      "num_hosts": [0]}))



def test_campaign_id_tracks_spec_digest():
    a = plan_campaign(make_spec())
    b = plan_campaign(make_spec(scenario={"num_hosts": 21}))
    assert a.campaign_id != b.campaign_id
    assert a.campaign_id.startswith("plan-test-")


def test_zoo_variant_sweeps_end_to_end():
    """A zoo scheme is plannable and runnable straight from a spec."""
    spec = spec_from_dict({
        "name": "zoo",
        "grid": {"scheme": ["gossip"], "scheme_params.p": [0.4, 1.0]},
        "scenario": {"map_units": 1, "num_hosts": 15, "num_broadcasts": 3},
    })
    plan = plan_campaign(spec)
    assert [r.config.scheme_params["p"] for r in plan.runs] == [0.4, 1.0]


def test_zoo_campaign_executes(tmp_path):
    from repro.campaigns.queue import CampaignExecutor

    spec = spec_from_dict({
        "name": "zoo-exec",
        "grid": {
            "scheme": ["gossip", "counter-gossip"],
            "scheme_params.p": [0.5],
        },
        "scenario": {"map_units": 1, "num_hosts": 15, "num_broadcasts": 3},
    })
    plan = plan_campaign(spec)
    outcome = CampaignExecutor(plan, tmp_path / "c").run()
    assert not outcome.resumable
    assert outcome.completed == 2
