"""Result persistence."""

import json

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import FigureResult, SeriesPoint
from repro.experiments.io import (
    figure_result_to_csv,
    result_to_dict,
    save_json,
    scenario_from_dict,
    scenario_to_dict,
    write_figure_csv,
)
from repro.experiments.parallel import ResultCache, config_digest
from repro.experiments.runner import run_broadcast_simulation


@pytest.fixture
def small_result():
    return run_broadcast_simulation(
        ScenarioConfig(scheme="flooding", map_units=3, num_hosts=15,
                       num_broadcasts=2, seed=9)
    )


@pytest.fixture
def figure():
    result = FigureResult("Fig. X", "map")
    result.add("a", SeriesPoint(x=1, re=0.95, srb=0.4, latency=0.02, hellos=7))
    result.add("a", SeriesPoint(x=5, re=0.9, srb=0.3, latency=0.03))
    result.add("b", SeriesPoint(x=1, re=0.8, srb=0.0, latency=0.05))
    return result


def test_result_to_dict_roundtrips_through_json(small_result):
    data = result_to_dict(small_result)
    encoded = json.dumps(data)
    decoded = json.loads(encoded)
    assert decoded["config"]["scheme"] == "flooding"
    assert decoded["metrics"]["broadcasts"] == 2
    assert decoded["channel"]["transmissions"] > 0


def test_result_cache_preserves_perf_metadata(tmp_path, small_result):
    """A cache round-trip keeps wall_time and the kernel counters, and
    marks the copy as cache-served."""
    cache = ResultCache(tmp_path)
    digest = config_digest(small_result.config)
    assert cache.get(digest) is None
    cache.put(digest, small_result)
    cached = cache.get(digest)
    assert cached is not None
    assert cached.from_cache is True
    assert small_result.from_cache is False  # original untouched
    assert cached.wall_time == small_result.wall_time
    assert cached.perf == small_result.perf
    assert cached.stats == small_result.stats
    assert result_to_dict(cached)["perf"]["from_cache"] is True


def test_save_and_load_json(tmp_path):
    path = tmp_path / "doc.json"
    data = {"runs": [1, 2], "name": "x"}
    save_json(data, path)
    text = path.read_text()
    assert text.startswith('{\n  "name"')  # indented, keys sorted
    assert json.loads(text) == data


def test_csv_has_one_row_per_point(figure):
    text = figure_result_to_csv([figure])
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 3  # header + 3 points
    assert lines[0].startswith("figure,series,map")
    assert "Fig. X,a,1,0.95" in lines[1]


def test_csv_holds_every_panel_under_one_header(figure):
    other = FigureResult("Fig. Y", "map")
    other.add("c", SeriesPoint(x=9, re=0.5, srb=0.1, latency=0.04))
    lines = figure_result_to_csv([figure, other]).strip().splitlines()
    assert len(lines) == 1 + 3 + 1
    assert lines[0].startswith("figure,series,map")
    assert lines[-1].startswith("Fig. Y,c,9,0.5")


def test_write_figure_csv(tmp_path, figure):
    path = tmp_path / "figure.csv"
    write_figure_csv([figure], path)
    assert path.read_text().count("\n") >= 4


# ------------------------------------------------- scenario round trips


def full_scenario():
    from repro.faults.plan import FaultPlan
    from repro.net.host import HelloConfig

    return ScenarioConfig(
        scheme="counter",
        map_units=3,
        num_hosts=25,
        num_broadcasts=4,
        max_speed_kmh=30.0,
        seed=11,
        scheme_params={"threshold": 4},
        hello=HelloConfig(interval=0.7),
        faults=FaultPlan.parse("churn:rate=0.01,downtime=5"),
    )


def test_scenario_round_trip_preserves_digest():
    for config in (
        ScenarioConfig(scheme="flooding", map_units=1, num_hosts=10,
                       num_broadcasts=2, seed=3),
        full_scenario(),
    ):
        data = json.loads(json.dumps(scenario_to_dict(config)))
        again = scenario_from_dict(data)
        assert again == config
        assert config_digest(again) == config_digest(config)


def test_scenario_dict_omits_defaults():
    config = ScenarioConfig(scheme="flooding", map_units=1, num_hosts=10,
                            num_broadcasts=2, seed=3)
    data = scenario_to_dict(config)
    assert "hello" not in data
    assert "faults" not in data
    assert "scheme_params" not in data


def test_scenario_from_dict_accepts_fault_spec_string():
    config = scenario_from_dict({
        "scheme": "flooding", "map_units": 1, "num_hosts": 10,
        "num_broadcasts": 2, "seed": 3,
        "faults": "loss:p=0.1",
    })
    assert config.faults.loss is not None


def test_scenario_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scenario field"):
        scenario_from_dict({"scheme": "flooding", "num_hostz": 10})


def test_scenario_to_dict_rejects_non_json_configs():
    from repro.phy.capture import CaptureModel

    with pytest.raises(ValueError, match="capture"):
        scenario_to_dict(ScenarioConfig(
            scheme="flooding", map_units=1, num_hosts=10, num_broadcasts=2,
            seed=3, capture=CaptureModel(),
        ))
    with pytest.raises(ValueError, match="not a JSON scalar"):
        scenario_to_dict(ScenarioConfig(
            scheme="counter", map_units=1, num_hosts=10, num_broadcasts=2,
            seed=3, scheme_params={"threshold_fn": lambda n: 3},
        ))
