"""Scenario configuration."""

import pytest

from repro.experiments.config import ScenarioConfig, default_max_speed_kmh
from repro.net.host import HelloConfig


def test_paper_default_speeds():
    """10 km/h on 1x1, 30 on 3x3, 50 on 5x5, ..."""
    assert default_max_speed_kmh(1) == 10.0
    assert default_max_speed_kmh(3) == 30.0
    assert default_max_speed_kmh(5) == 50.0
    assert default_max_speed_kmh(11) == 110.0


def test_resolved_speed_uses_map_default():
    assert ScenarioConfig(map_units=7).resolved_max_speed_kmh == 70.0
    assert ScenarioConfig(map_units=7, max_speed_kmh=20.0).resolved_max_speed_kmh == 20.0


def test_defaults_match_paper_setup():
    config = ScenarioConfig()
    assert config.num_hosts == 100
    assert config.unit_length == 500.0
    assert config.interarrival_max == 2.0
    assert config.phy.broadcast_payload_bytes == 280


def test_warmup_derivation():
    config = ScenarioConfig(hello=HelloConfig(interval=5.0))
    assert config.resolved_warmup(hello_enabled=True) == pytest.approx(11.0)
    assert config.resolved_warmup(hello_enabled=False) == pytest.approx(0.5)


def test_warmup_dynamic_uses_hi_max():
    config = ScenarioConfig(hello=HelloConfig(dynamic=True, hi_max=10.0))
    assert config.resolved_warmup(hello_enabled=True) == pytest.approx(21.0)


def test_warmup_override():
    config = ScenarioConfig(warmup=3.0)
    assert config.resolved_warmup(hello_enabled=True) == 3.0


def test_with_overrides():
    config = ScenarioConfig(map_units=5)
    changed = config.with_overrides(map_units=9, seed=7)
    assert changed.map_units == 9
    assert changed.seed == 7
    assert config.map_units == 5  # original untouched


def test_label_contains_identity():
    label = ScenarioConfig(scheme="counter", map_units=9, seed=3).label()
    assert "counter" in label and "9x9" in label and "seed3" in label


def test_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(map_units=0)
    with pytest.raises(ValueError):
        ScenarioConfig(num_hosts=0)
    with pytest.raises(ValueError):
        ScenarioConfig(num_broadcasts=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(interarrival_max=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(drain=-1.0)


def test_hello_config_validation():
    with pytest.raises(ValueError):
        HelloConfig(interval=0.0)
    with pytest.raises(ValueError):
        HelloConfig(dynamic=True, hi_min=5.0, hi_max=1.0)
    with pytest.raises(ValueError, match="nv_max"):
        HelloConfig(dynamic=True, nv_max=0.0)
