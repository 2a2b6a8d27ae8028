"""Multi-seed replication with confidence intervals.

The paper reports single numbers from very long runs (10,000 broadcasts);
on reduced workloads the honest equivalent is several independent
replications and a confidence interval.  The same scenario runs under
different master seeds (each seed changes mobility, MAC backoff, scheme
jitter and traffic together), in one
:meth:`~repro.experiments.parallel.ParallelRunner.run_many` batch, and
:func:`aggregate` folds the per-seed results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import SimulationResult

__all__ = [
    "MetricEstimate",
    "ReplicatedResult",
    "aggregate",
    "check_seeds",
]


@dataclass(frozen=True)
class MetricEstimate:
    """Mean with a Student-t confidence interval over replications."""

    mean: float
    half_width: float
    confidence: float
    samples: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.3f} +/- {self.half_width:.3f}"

    @classmethod
    def of(
        cls, values: Sequence[float], confidence: float = 0.95
    ) -> Optional["MetricEstimate"]:
        # isfinite, not just not-isnan: one +/-inf sample (e.g. latency of a
        # replication where no broadcast completed) would otherwise poison
        # the mean and CI of every finite replication.
        clean = [v for v in values if math.isfinite(v)]
        if not clean:
            return None
        n = len(clean)
        mean = sum(clean) / n
        if n == 1:
            return cls(mean=mean, half_width=0.0, confidence=confidence, samples=1)
        var = sum((v - mean) ** 2 for v in clean) / (n - 1)
        sem = math.sqrt(var / n)
        # scipy is imported on first use: it is the largest import in the
        # package, and a process that only simulates never needs it.
        from scipy import stats

        t = stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)
        return cls(
            mean=mean, half_width=t * sem, confidence=confidence, samples=n
        )


@dataclass
class ReplicatedResult:
    """Aggregate of one scenario run under several seeds."""

    config: ScenarioConfig
    results: List[SimulationResult]
    re: Optional[MetricEstimate]
    srb: Optional[MetricEstimate]
    latency: Optional[MetricEstimate]

    def summary(self) -> str:
        return (
            f"{self.config.scheme}@{self.config.map_units}x"
            f"{self.config.map_units} x{len(self.results)} seeds: "
            f"RE={self.re} SRB={self.srb}"
        )


def aggregate(
    config: ScenarioConfig,
    results: List[SimulationResult],
    confidence: float = 0.95,
) -> ReplicatedResult:
    """Fold per-seed results into a :class:`ReplicatedResult`.

    The estimates depend only on the order-independent multiset of sample
    values, but ``results`` is kept in caller order so a parallel runner
    that preserves seed order reproduces the sequential output exactly.
    """
    return ReplicatedResult(
        config=config,
        results=results,
        re=MetricEstimate.of([r.re for r in results], confidence),
        srb=MetricEstimate.of([r.srb for r in results], confidence),
        latency=MetricEstimate.of([r.latency for r in results], confidence),
    )


def check_seeds(seeds: Sequence[int]) -> None:
    """Shared validation for replication seed lists."""
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds}")
