"""Fig. 10: adaptive location (AL) versus fixed location thresholds.

Fixed thresholds from [15]: A = 0.1871, 0.0469, 0.0134 (fractions of
``pi r^2``).  Expected: fixed thresholds lose RE on sparse maps (the larger
A, the worse); AL keeps RE high without sacrificing SRB; AL latency lowest
on dense maps, slightly above A = 0.1871 on sparse maps.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import (
    PAPER_MAPS,
    Figure,
    FigureResult,
    Panel,
    run_panels,
)

__all__ = ["run", "declare", "FIGURE", "FIXED_THRESHOLDS"]

FIXED_THRESHOLDS = (0.1871, 0.0469, 0.0134)


def declare(
    maps: Sequence[int] = PAPER_MAPS,
    num_broadcasts: int = 50,
    seed: int = 1,
    fixed_thresholds: Sequence[float] = FIXED_THRESHOLDS,
) -> List[Panel]:
    entries = [
        (
            f"A={threshold}",
            units,
            ScenarioConfig(
                scheme="location",
                scheme_params={"threshold": threshold},
                map_units=units,
                num_broadcasts=num_broadcasts,
                seed=seed,
            ),
        )
        for threshold in fixed_thresholds
        for units in maps
    ] + [
        (
            "AL",
            units,
            ScenarioConfig(
                scheme="adaptive-location",
                map_units=units,
                num_broadcasts=num_broadcasts,
                seed=seed,
            ),
        )
        for units in maps
    ]
    return [Panel("Fig. 10: AL vs fixed location", "map", entries)]


def run(
    maps: Sequence[int] = PAPER_MAPS,
    num_broadcasts: int = 50,
    seed: int = 1,
    fixed_thresholds: Sequence[float] = FIXED_THRESHOLDS,
) -> FigureResult:
    return run_panels(declare(maps, num_broadcasts, seed, fixed_thresholds))[0]


FIGURE = Figure(
    "Fig. 10 — Adaptive location vs fixed location",
    "fixed thresholds lose RE on sparse maps (worse for larger A); AL keeps "
    "RE and SRB; AL latency lowest on dense maps.",
    ("re", "srb", "latency"),
    declare,
)
