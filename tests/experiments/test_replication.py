"""Multi-seed replication and confidence intervals."""

import math

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import ParallelRunner
from repro.experiments.replication import (
    MetricEstimate,
    aggregate,
    check_seeds,
)


class TestMetricEstimate:
    def test_single_sample_zero_width(self):
        estimate = MetricEstimate.of([0.5])
        assert estimate.mean == 0.5
        assert estimate.half_width == 0.0
        assert estimate.samples == 1

    def test_mean_and_interval(self):
        estimate = MetricEstimate.of([0.8, 0.9, 1.0])
        assert estimate.mean == pytest.approx(0.9)
        assert estimate.half_width > 0.0
        assert estimate.low < 0.9 < estimate.high

    def test_wider_confidence_wider_interval(self):
        values = [0.7, 0.8, 0.9, 1.0]
        narrow = MetricEstimate.of(values, confidence=0.90)
        wide = MetricEstimate.of(values, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_nan_values_skipped(self):
        estimate = MetricEstimate.of([0.5, math.nan, 0.7])
        assert estimate.samples == 2
        assert estimate.mean == pytest.approx(0.6)

    def test_all_nan_is_none(self):
        assert MetricEstimate.of([math.nan, math.nan]) is None
        assert MetricEstimate.of([]) is None

    def test_infinite_values_skipped(self):
        # Regression: one infinite latency sample (a replication where no
        # broadcast completed) used to poison the mean and CI.
        estimate = MetricEstimate.of([0.5, math.inf, 0.7, -math.inf])
        assert estimate.samples == 2
        assert estimate.mean == pytest.approx(0.6)
        assert math.isfinite(estimate.half_width)

    def test_all_infinite_is_none(self):
        assert MetricEstimate.of([math.inf, -math.inf]) is None

    def test_str_format(self):
        assert "+/-" in str(MetricEstimate.of([0.5, 0.6]))


def _replicate(config, seeds):
    """One batch of seed replications, aggregated."""
    check_seeds(seeds)
    return aggregate(
        config,
        ParallelRunner(max_workers=1).run_many(
            [config.with_overrides(seed=seed) for seed in seeds]
        ),
    )


class TestReplicate:
    def _config(self):
        return ScenarioConfig(
            scheme="flooding", map_units=3, num_hosts=20, num_broadcasts=3
        )

    def test_runs_one_per_seed(self):
        result = _replicate(self._config(), seeds=[1, 2, 3])
        assert len(result.results) == 3
        assert result.re.samples == 3
        seeds = [r.config.seed for r in result.results]
        assert seeds == [1, 2, 3]

    def test_interval_contains_individual_means_center(self):
        result = _replicate(self._config(), seeds=[1, 2, 3])
        values = [r.re for r in result.results]
        assert result.re.mean == pytest.approx(sum(values) / 3)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            check_seeds([])
        with pytest.raises(ValueError):
            check_seeds([1, 1])

    def test_summary_string(self):
        result = _replicate(self._config(), seeds=[1, 2])
        assert "flooding@3x3" in result.summary()
