"""Shared result containers and sweep helpers for the figure drivers.

Execution layer
---------------
Figure drivers declare *what* to simulate -- ``(series, x, config)``
entries -- and :func:`run_series_points` decides *how*: through the
session's default executor (a
:class:`~repro.experiments.parallel.ParallelRunner` installed via
:func:`set_default_executor`, giving process-pool fan-out and result
caching) or sequentially when none is installed.  Points land in the
:class:`FigureResult` in declaration order either way, so tables and CSVs
are identical no matter how the runs were scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import SimulationResult, run_broadcast_simulation

__all__ = [
    "SeriesPoint",
    "FigureResult",
    "PAPER_MAPS",
    "run_series_point",
    "run_series_points",
    "set_default_executor",
    "get_default_executor",
]

#: The paper's map-size sweep (side length in 500 m units).
PAPER_MAPS = (1, 3, 5, 7, 9, 11)


@dataclass
class SeriesPoint:
    """One (x, metrics) point of a figure series."""

    x: Any
    re: float
    srb: float
    latency: float
    hellos: int = 0

    def metric(self, name: str) -> float:
        value = getattr(self, name)
        return float(value)


@dataclass
class FigureResult:
    """All series of one reproduced figure."""

    figure: str
    x_label: str
    series: Dict[str, List[SeriesPoint]] = field(default_factory=dict)

    def add(self, series_name: str, point: SeriesPoint) -> None:
        self.series.setdefault(series_name, []).append(point)

    def xs(self, series_name: str) -> List[Any]:
        return [p.x for p in self.series[series_name]]

    def values(self, series_name: str, metric: str = "re") -> List[float]:
        return [p.metric(metric) for p in self.series[series_name]]

    def value_at(self, series_name: str, x: Any, metric: str = "re") -> float:
        for point in self.series[series_name]:
            if point.x == x:
                return point.metric(metric)
        raise KeyError(f"{self.figure}: no x={x!r} in series {series_name!r}")

    def table(self, metrics: Sequence[str] = ("re", "srb")) -> str:
        """Formatted text table, one row per (series, x)."""
        lines = [f"== {self.figure} =="]
        header = f"{'series':<28} {self.x_label:>10} " + " ".join(
            f"{m:>9}" for m in metrics
        )
        lines.append(header)
        for name, points in self.series.items():
            for p in points:
                cells = " ".join(
                    f"{p.metric(m):>9.3f}"
                    if not math.isnan(p.metric(m))
                    else f"{'nan':>9}"
                    for m in metrics
                )
                lines.append(f"{name:<28} {p.x!s:>10} {cells}")
        return "\n".join(lines)


#: The installed execution backend (duck-typed: anything with
#: ``run_many(configs) -> List[SimulationResult]``), or None = sequential.
_default_executor: Optional[Any] = None


def set_default_executor(executor: Optional[Any]) -> Optional[Any]:
    """Install the executor figure drivers route their runs through.

    Pass a :class:`~repro.experiments.parallel.ParallelRunner` (or any
    object with ``run_many``); ``None`` restores plain sequential
    execution.  Returns the previous executor so callers can restore it.
    """
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous


def get_default_executor() -> Optional[Any]:
    return _default_executor


def _execute(configs: List[ScenarioConfig]) -> List[SimulationResult]:
    if _default_executor is not None:
        return _default_executor.run_many(configs)
    return [run_broadcast_simulation(config) for config in configs]


def _point(result: SimulationResult, x: Any) -> SeriesPoint:
    return SeriesPoint(
        x=x,
        re=result.re,
        srb=result.srb,
        latency=result.latency,
        hellos=result.hellos,
    )


def run_series_point(config: ScenarioConfig, x: Any) -> SeriesPoint:
    """Run one scenario and wrap its summary as a series point."""
    return _point(_execute([config])[0], x)


def run_series_points(
    figure: FigureResult,
    entries: Sequence[Tuple[str, Any, ScenarioConfig]],
) -> FigureResult:
    """Run a whole figure's ``(series, x, config)`` entries as one batch.

    The batch goes to the default executor in one call -- the unit of
    parallelism -- and the points are added to ``figure`` in declaration
    order, keeping output identical to the sequential path.
    """
    results = _execute([config for _, _, config in entries])
    for (series_name, x, _), result in zip(entries, results):
        figure.add(series_name, _point(result, x))
    return figure
