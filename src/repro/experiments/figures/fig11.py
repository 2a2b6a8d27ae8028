"""Fig. 11: neighbor-coverage RE versus hello interval and host speed.

Four panels (maps 5x5, 7x7, 9x9, 11x11); series = hello interval in
{1, 5, 10, 20, 30} seconds; x = max host speed in {20, 40, 60, 80} km/h.

Expected: long hello intervals significantly degrade RE on sparse maps,
worse at higher speed; on the small map mobility matters little.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import (
    Figure,
    FigureResult,
    Panel,
    run_panels,
)
from repro.net.host import HelloConfig

__all__ = [
    "run", "declare", "FIGURE", "PAPER_HELLO_INTERVALS", "PAPER_SPEEDS",
    "PAPER_FIG11_MAPS",
]

PAPER_HELLO_INTERVALS = (1.0, 5.0, 10.0, 20.0, 30.0)
PAPER_SPEEDS = (20.0, 40.0, 60.0, 80.0)
PAPER_FIG11_MAPS = (5, 7, 9, 11)


def declare(
    maps: Sequence[int] = PAPER_FIG11_MAPS,
    speeds: Sequence[float] = PAPER_SPEEDS,
    hello_intervals: Sequence[float] = PAPER_HELLO_INTERVALS,
    num_broadcasts: int = 50,
    seed: int = 1,
) -> List[Panel]:
    """One panel per map; series keyed by interval."""
    return [
        Panel(
            f"Fig. 11 ({units}x{units}): NC vs hello interval",
            "km/h",
            [
                (
                    f"hello={interval:g}s",
                    speed,
                    ScenarioConfig(
                        scheme="neighbor-coverage",
                        map_units=units,
                        max_speed_kmh=speed,
                        hello=HelloConfig(interval=interval),
                        num_broadcasts=num_broadcasts,
                        seed=seed,
                    ),
                )
                for interval in hello_intervals
                for speed in speeds
            ],
        )
        for units in maps
    ]


def run(
    maps: Sequence[int] = PAPER_FIG11_MAPS,
    speeds: Sequence[float] = PAPER_SPEEDS,
    hello_intervals: Sequence[float] = PAPER_HELLO_INTERVALS,
    num_broadcasts: int = 50,
    seed: int = 1,
) -> Dict[int, FigureResult]:
    """One :class:`FigureResult` per map panel, keyed by map."""
    panels = declare(maps, speeds, hello_intervals, num_broadcasts, seed)
    return dict(zip(maps, run_panels(panels)))


#: The report covers the sparse maps, two speeds and three intervals.
FIGURE = Figure(
    "Fig. 11 — Neighbor coverage vs hello interval and speed",
    "long hello intervals significantly degrade RE on sparse maps, worse "
    "at higher speed; small maps barely affected.",
    declare=declare,
    maps=PAPER_FIG11_MAPS,
    report_grid={"speeds": (20.0, 80.0), "hello_intervals": (1.0, 10.0, 30.0)},
)
