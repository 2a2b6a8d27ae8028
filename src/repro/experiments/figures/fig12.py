"""Fig. 12: neighbor coverage with dynamic hello interval (NC-DHI).

Panel (a): RE and SRB across host speeds per map -- RE should stay high
independent of speed and density.  Panel (b): the number of HELLO packets
sent -- near the ``hi_min`` rate on sparse maps (high neighborhood
variation), near the ``hi_max`` rate on the 1x1 map (no variation).

Paper DHI parameters: ``nv_max = 0.02``, ``hi_min = 1 s``, ``hi_max = 10 s``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import (
    Figure,
    FigureResult,
    Panel,
    run_panels,
)
from repro.net.host import HelloConfig

__all__ = [
    "run", "declare", "FIGURE", "PAPER_SPEEDS", "PAPER_FIG12_MAPS",
    "DHI_CONFIG",
]

PAPER_SPEEDS = (20.0, 40.0, 60.0, 80.0)
PAPER_FIG12_MAPS = (1, 3, 5, 7, 9, 11)

DHI_CONFIG = HelloConfig(dynamic=True, nv_max=0.02, hi_min=1.0, hi_max=10.0)


def declare(
    maps: Sequence[int] = PAPER_FIG12_MAPS,
    speeds: Sequence[float] = PAPER_SPEEDS,
    num_broadcasts: int = 50,
    seed: int = 1,
) -> List[Panel]:
    """Series per map; x = speed; ``hellos`` carries panel (b)'s count."""
    entries = [
        (
            f"{units}x{units}",
            speed,
            ScenarioConfig(
                scheme="neighbor-coverage",
                map_units=units,
                max_speed_kmh=speed,
                hello=DHI_CONFIG,
                num_broadcasts=num_broadcasts,
                seed=seed,
            ),
        )
        for units in maps
        for speed in speeds
    ]
    return [Panel("Fig. 12: NC-DHI vs speed", "km/h", entries)]


def run(
    maps: Sequence[int] = PAPER_FIG12_MAPS,
    speeds: Sequence[float] = PAPER_SPEEDS,
    num_broadcasts: int = 50,
    seed: int = 1,
) -> FigureResult:
    return run_panels(declare(maps, speeds, num_broadcasts, seed))[0]


#: The report runs two of the paper's four speeds.
FIGURE = Figure(
    "Fig. 12 — NC with dynamic hello interval",
    "RE high independent of speed/density with significant SRB; hello "
    "count near the hi_min rate on sparse maps and near the hi_max rate on "
    "the 1x1 map.",
    ("re", "srb", "hellos"),
    declare,
    report_grid={"speeds": (20.0, 80.0)},
)
