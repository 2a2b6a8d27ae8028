"""Result persistence."""

import json
import math

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import FigureResult, SeriesPoint
from repro.experiments.io import (
    figure_result_from_dict,
    figure_result_to_csv,
    figure_result_to_dict,
    load_json,
    result_from_dict,
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


def test_result_from_dict_is_a_fixed_point(small_result):
    """to_dict(from_dict(to_dict(r))) == to_dict(r): the rebuilt result
    carries everything the export format does."""
    data = result_to_dict(small_result)
    rebuilt = result_from_dict(json.loads(json.dumps(data)))
    assert result_to_dict(rebuilt) == data


def test_result_from_dict_rebuilds_headline_metrics(small_result):
    rebuilt = result_from_dict(result_to_dict(small_result))
    assert rebuilt.config.scheme == "flooding"
    assert rebuilt.config.seed == small_result.config.seed
    assert rebuilt.re == small_result.re
    assert rebuilt.srb == small_result.srb
    assert rebuilt.latency == small_result.latency
    assert rebuilt.stats.reachability == small_result.stats.reachability
    # Airtime totals survive under the sentinel host id.
    ch = rebuilt.channel_stats
    assert ch.total_tx_airtime == small_result.channel_stats.total_tx_airtime
    assert ch.total_rx_airtime == small_result.channel_stats.total_rx_airtime
    assert ch.transmissions == small_result.channel_stats.transmissions
    # Perf metadata survives too.
    assert rebuilt.perf == small_result.perf
    assert rebuilt.wall_time == small_result.wall_time
    assert rebuilt.events_per_sec == pytest.approx(
        small_result.events_per_sec
    )


def test_result_from_dict_accepts_legacy_means_only_dict():
    """Dicts written before the stats block existed load with the means
    as degenerate SummaryStats and NaN metrics dropped."""
    legacy = {
        "config": {
            "scheme": "flooding", "map_units": 1, "num_hosts": 5,
            "num_broadcasts": 4, "seed": 2,
        },
        "metrics": {
            "re": 0.9, "srb": math.nan, "latency": 0.01,
            "hellos": 3, "broadcasts": 4,
        },
        "end_time": 10.0,
        "events_processed": 123,
    }
    rebuilt = result_from_dict(legacy)
    assert rebuilt.re == 0.9
    assert rebuilt.stats.reachability.std == 0.0
    assert rebuilt.stats.reachability.count == 4
    assert math.isnan(rebuilt.srb)  # NaN mean -> stat dropped
    assert rebuilt.latency == 0.01
    # Fields the legacy dict predates come back at their defaults.
    assert rebuilt.backoffs_started == 0
    assert rebuilt.fault_trace == []
    assert rebuilt.broadcasts_skipped == 0
    assert rebuilt.perf is None
    assert rebuilt.from_cache is False


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


def test_figure_result_json_roundtrip(figure):
    data = figure_result_to_dict(figure)
    rebuilt = figure_result_from_dict(json.loads(json.dumps(data)))
    assert rebuilt.figure == figure.figure
    assert rebuilt.series.keys() == figure.series.keys()
    assert rebuilt.value_at("a", 5, "srb") == 0.3
    assert rebuilt.series["a"][0].hellos == 7


def test_save_and_load_json(tmp_path, figure):
    path = tmp_path / "figure.json"
    save_json(figure_result_to_dict(figure), path)
    data = load_json(path)
    assert figure_result_from_dict(data).value_at("b", 1, "re") == 0.8


def test_csv_has_one_row_per_point(figure):
    text = figure_result_to_csv(figure)
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 3  # header + 3 points
    assert lines[0].startswith("figure,series,map")
    assert "Fig. X,a,1,0.95" in lines[1]


def test_write_figure_csv(tmp_path, figure):
    path = tmp_path / "figure.csv"
    write_figure_csv(figure, path)
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
