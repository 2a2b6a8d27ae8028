"""Figure declarations, result containers and the one batch that runs them.

A figure module declares *what* to simulate: a :class:`Figure` holds the
report's section title, the paper finding it quotes and the table
metrics, and its ``declare`` function returns one :class:`Panel` per
table, each listing ``(series, x, config)`` entries.  :func:`run_panels`
runs any list of panels -- one figure's or the whole report's -- as a
single batch through the installed executor (:func:`set_default_executor`:
a :class:`~repro.experiments.parallel.ParallelRunner` with a pool and a
cache), or through an inline ``ParallelRunner(max_workers=1)`` when none
is installed.  The runner simulates each distinct config once, so
figures that share scenarios share their runs, and the points land in
each :class:`FigureResult` in declaration order: tables and CSVs are
identical however the runs were scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import SimulationResult

__all__ = [
    "SeriesPoint",
    "FigureResult",
    "Panel",
    "Figure",
    "PAPER_MAPS",
    "run_panels",
    "set_default_executor",
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


@dataclass(frozen=True)
class Panel:
    """One table of a figure: its title, x label and runs."""

    title: str
    x_label: str
    #: ``(series, x, config)``, in the order the table lists them.
    entries: List[Tuple[str, Any, ScenarioConfig]]


@dataclass(frozen=True)
class Figure:
    """One entry of the figure table that the report and the CLI share.

    A simulated figure has ``declare(maps=..., num_broadcasts=...,
    seed=..., **grid) -> List[Panel]``; an analytic one (Figs. 1 and 2)
    has ``compute(seed=..., **grid) -> str``, its table text, instead.
    """

    #: The report's section title; empty for a panel that continues the
    #: section above it.
    title: str
    #: The paper's finding, quoted under the title.
    paper: str = ""
    #: The table's metric columns.
    metrics: Tuple[str, ...] = ("re", "srb")
    declare: Optional[Callable[..., List[Panel]]] = None
    compute: Optional[Callable[..., str]] = None
    #: The paper's map grid for this figure; the report keeps the maps it
    #: shares with it.
    maps: Tuple[int, ...] = PAPER_MAPS
    #: The report's cuts of the figure's other grids, as keyword arguments.
    report_grid: Dict[str, Any] = field(default_factory=dict)


#: The installed execution backend (duck-typed: anything with
#: ``run_many(configs) -> List[SimulationResult]``), or None = an inline
#: single-worker runner per batch.
_default_executor: Optional[Any] = None


def set_default_executor(executor: Optional[Any]) -> Optional[Any]:
    """Install the executor figure drivers route their runs through.

    Pass a :class:`~repro.experiments.parallel.ParallelRunner` (or any
    object with ``run_many``); ``None`` restores inline execution.
    Returns the previous executor so callers can restore it.
    """
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous


def _execute(configs: List[ScenarioConfig]) -> List[SimulationResult]:
    executor = _default_executor
    if executor is None:
        # Imported here: the runner's module loads multiprocessing, which
        # a process that installs its own executor never needs.
        from repro.experiments.parallel import ParallelRunner

        executor = ParallelRunner(max_workers=1)
    return executor.run_many(configs)


def run_panels(panels: Sequence[Panel]) -> List[FigureResult]:
    """Run every entry of ``panels`` as one batch.

    The whole batch goes to the executor in one ``run_many`` call, in
    declaration order; one :class:`FigureResult` per panel comes back,
    in the same order.
    """
    configs = [config for panel in panels for _, _, config in panel.entries]
    results = iter(_execute(configs))
    figures = []
    for panel in panels:
        figure = FigureResult(panel.title, panel.x_label)
        for (series_name, x, _), result in zip(panel.entries, results):
            figure.add(
                series_name,
                SeriesPoint(
                    x=x,
                    re=result.re,
                    srb=result.srb,
                    latency=result.latency,
                    hellos=result.hellos,
                ),
            )
        figures.append(figure)
    return figures
