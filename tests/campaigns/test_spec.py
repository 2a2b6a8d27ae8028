"""Campaign spec: parsing, validation, identity digests."""

import json

import pytest

from repro.campaigns.spec import (
    NO_FAULTS,
    CampaignSpec,
    SpecError,
    load_spec,
    spec_from_dict,
)
from repro.faults.plan import FaultPlan


def minimal_dict(**overrides):
    base = {
        "name": "sweep",
        "grid": {"scheme": ["flooding"], "seed": [1, 2]},
        "scenario": {"num_hosts": 20, "num_broadcasts": 5},
    }
    base.update(overrides)
    return base


# -------------------------------------------------------------- parsing


def test_spec_from_dict_minimal():
    spec = spec_from_dict(minimal_dict())
    assert spec.name == "sweep"
    assert spec.grid["scheme"] == ("flooding",)
    assert spec.grid["seed"] == (1, 2)
    assert spec.total_runs == 2


def test_spec_named_fault_plans_as_string_and_table():
    spec = spec_from_dict(minimal_dict(
        grid={"scheme": ["flooding"], "faults": [NO_FAULTS, "churny", "lossy"]},
        faults={
            "churny": "churn:rate=0.01,downtime=5",
            "lossy": {"spec": "loss:p=0.1"},
        },
    ))
    assert spec.fault_plans["churny"].churn is not None
    assert spec.fault_plans["lossy"].loss is not None


def test_spec_fault_plan_as_plan_dict():
    plan = FaultPlan.parse("crash:host=3,at=5,recover=12")
    spec = spec_from_dict(minimal_dict(
        grid={"scheme": ["flooding"], "faults": ["crashy"]},
        faults={"crashy": plan.to_dict()},
    ))
    assert spec.fault_plans["crashy"] == plan


def test_load_spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(minimal_dict()))
    assert load_spec(path).name == "sweep"


def test_load_spec_toml(tmp_path):
    pytest.importorskip("tomllib")
    path = tmp_path / "spec.toml"
    path.write_text(
        'name = "sweep"\n'
        "[grid]\n"
        'scheme = ["flooding", "counter"]\n'
        "seed = [1, 2]\n"
        "[scenario]\n"
        "num_hosts = 20\n"
        "[faults.churny]\n"
        'spec = "churn:rate=0.01,downtime=5"\n'
    )
    spec = load_spec(path)
    assert spec.total_runs == 4
    assert "churny" in spec.fault_plans


def test_load_spec_bad_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    with pytest.raises(SpecError, match="invalid JSON"):
        load_spec(path)


# ----------------------------------------------------------- validation


@pytest.mark.parametrize("mutation, message", [
    ({"name": "bad name!"}, "campaign name"),
    ({"grid": {"scheme": ["flooding"], "warp_factor": [9]}}, "unknown grid axis"),
    ({"grid": {"scheme": []}}, "no values"),
    ({"grid": {"scheme": ["flooding", "flooding"]}}, "repeats"),
    ({"grid": {"scheme": ["antigravity"]}}, "unknown scheme"),
    ({"grid": {"scheme": ["flooding"], "faults": ["ghost"]}}, "undefined plan"),
    ({"scenario": {"num_hostz": 20}}, "invalid .scenario."),
    ({"extra_key": 1}, "unknown top-level"),
])
def test_spec_validation_errors(mutation, message):
    with pytest.raises(SpecError, match=message):
        spec_from_dict(minimal_dict(**mutation))


def test_reserved_none_plan_name_rejected():
    with pytest.raises(SpecError, match="reserved"):
        spec_from_dict(minimal_dict(faults={NO_FAULTS: "loss:p=0.1"}))


def test_grid_values_must_be_scalars():
    with pytest.raises(SpecError, match="not a scalar"):
        spec_from_dict(minimal_dict(grid={"scheme": [["flooding"]]}))


# ------------------------------------------------------------- identity


def test_digest_stable_across_formats(tmp_path):
    data = minimal_dict()
    from_json = spec_from_dict(json.loads(json.dumps(data)))
    direct = spec_from_dict(data)
    assert from_json.digest() == direct.digest()


def test_digest_changes_with_grid():
    a = spec_from_dict(minimal_dict())
    b = spec_from_dict(minimal_dict(
        grid={"scheme": ["flooding"], "seed": [1, 2, 3]}
    ))
    assert a.digest() != b.digest()


def test_to_dict_round_trip():
    spec = spec_from_dict(minimal_dict(
        grid={"scheme": ["flooding"], "faults": [NO_FAULTS, "churny"]},
        faults={"churny": "churn:rate=0.01,downtime=5"},
    ))
    again = spec_from_dict(spec.to_dict())
    assert again == spec
    assert again.digest() == spec.digest()


# ---------------------------------------- scheme_params schema validation


def test_scheme_params_axis_valid_for_swept_scheme():
    spec = spec_from_dict(minimal_dict(
        grid={"scheme": ["gossip"], "scheme_params.p": [0.4, 0.7, 1.0]},
    ))
    assert spec.grid["scheme_params.p"] == (0.4, 0.7, 1.0)


def test_scheme_params_axis_typo_fails_at_load():
    # The satellite bug: a typo'd param axis used to run the whole
    # campaign (and burn the cache) on defaults.
    with pytest.raises(SpecError, match=r"scheme_params\.treshold.*counter"):
        spec_from_dict(minimal_dict(
            grid={"scheme": ["counter"], "scheme_params.treshold": [3, 4]},
        ))


def test_scheme_params_axis_error_names_accepted_params():
    with pytest.raises(SpecError, match="threshold: int = 3"):
        spec_from_dict(minimal_dict(
            grid={"scheme": ["counter"], "scheme_params.nope": [1]},
        ))


def test_scheme_params_axis_must_fit_every_swept_scheme():
    # p is a gossip knob, not a counter knob: the cross product is invalid.
    with pytest.raises(SpecError, match="counter"):
        spec_from_dict(minimal_dict(
            grid={"scheme": ["gossip", "counter"], "scheme_params.p": [0.5]},
        ))


def test_scheme_params_axis_checked_against_base_scenario_scheme():
    with pytest.raises(SpecError, match="flooding"):
        spec_from_dict(minimal_dict(
            grid={"seed": [1], "scheme_params.p": [0.5]},
            scenario={"scheme": "flooding"},
        ))
    spec = spec_from_dict(minimal_dict(
        grid={"seed": [1], "scheme_params.p": [0.5]},
        scenario={"scheme": "gossip"},
    ))
    assert spec.grid["scheme_params.p"] == (0.5,)


def test_scheme_params_axis_values_schema_checked():
    with pytest.raises(SpecError, match="<= 1"):
        spec_from_dict(minimal_dict(
            grid={"scheme": ["gossip"], "scheme_params.p": [0.5, 1.5]},
        ))
    with pytest.raises(SpecError, match="must be an int"):
        spec_from_dict(minimal_dict(
            grid={"scheme": ["counter"], "scheme_params.threshold": [2.5]},
        ))


def test_scheme_params_sequence_axis_loads_and_is_type_checked():
    spec = spec_from_dict(minimal_dict(
        grid={
            "scheme": ["adaptive-counter"],
            "scheme_params.sequence": ["2-3-4-5", "2-2-3-3"],
        },
    ))
    assert spec.grid["scheme_params.sequence"] == ("2-3-4-5", "2-2-3-3")
    with pytest.raises(SpecError, match="must be a string"):
        spec_from_dict(minimal_dict(
            grid={
                "scheme": ["adaptive-counter"],
                "scheme_params.sequence": [2345],
            },
        ))


def test_base_scenario_scheme_params_keys_validated():
    with pytest.raises(SpecError, match=r"scheme_params\.treshold"):
        spec_from_dict(minimal_dict(
            scenario={"scheme": "counter", "scheme_params": {"treshold": 4}},
        ))


def test_base_scenario_unknown_scheme_fails_at_load():
    with pytest.raises(SpecError, match="unknown scheme"):
        spec_from_dict(minimal_dict(scenario={"scheme": "telepathy"}))


def test_scheme_params_malformed_sequence_fails_at_load():
    with pytest.raises(
        SpecError, match=r"scheme 'adaptive-counter'.*sequence='2-x'"
    ):
        spec_from_dict(minimal_dict(
            grid={
                "scheme": ["adaptive-counter"],
                "scheme_params.sequence": ["2-3", "2-x"],
            },
        ))


def test_scheme_params_axes_built_together_at_load():
    # Each n1 and n2 value passes its schema alone; the pair n1=6, n2=5
    # is what the constructor rejects.
    with pytest.raises(
        SpecError, match=r"scheme 'adaptive-counter'.*n1=6, n2=5"
    ):
        spec_from_dict(minimal_dict(
            grid={
                "scheme": ["adaptive-counter"],
                "scheme_params.n1": [2, 6],
                "scheme_params.n2": [5, 9],
            },
        ))
    spec = spec_from_dict(minimal_dict(
        grid={
            "scheme": ["adaptive-counter"],
            "scheme_params.n1": [2, 4],
            "scheme_params.n2": [5, 9],
        },
    ))
    assert spec.total_runs == 4


def test_base_scenario_scheme_params_built_with_the_axes():
    with pytest.raises(SpecError, match=r"n1=7, n2=6"):
        spec_from_dict(minimal_dict(
            grid={"scheme": ["adaptive-counter"], "scheme_params.n1": [3, 7]},
            scenario={"scheme_params": {"n2": 6}},
        ))
