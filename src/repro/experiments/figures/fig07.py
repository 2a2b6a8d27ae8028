"""Fig. 7: adaptive counter (AC) versus fixed-threshold counter (C = 2, 4, 6).

Expected shapes (paper Section 4.1): C = 2 has high SRB but RE collapses on
sparse maps; C = 6 keeps RE but loses SRB everywhere; AC holds RE high on
every map while keeping SRB comparable to C = 2 on dense maps.  Latency
(7b): AC smallest on 1x1/3x3, slightly above C = 2 on sparse maps.
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

FIXED_THRESHOLDS = (2, 4, 6)


def declare(
    maps: Sequence[int] = PAPER_MAPS,
    num_broadcasts: int = 50,
    seed: int = 1,
    fixed_thresholds: Sequence[int] = FIXED_THRESHOLDS,
) -> List[Panel]:
    entries = [
        (
            f"C={threshold}",
            units,
            ScenarioConfig(
                scheme="counter",
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
            "AC",
            units,
            ScenarioConfig(
                scheme="adaptive-counter",
                map_units=units,
                num_broadcasts=num_broadcasts,
                seed=seed,
            ),
        )
        for units in maps
    ]
    return [Panel("Fig. 7: AC vs fixed counter", "map", entries)]


def run(
    maps: Sequence[int] = PAPER_MAPS,
    num_broadcasts: int = 50,
    seed: int = 1,
    fixed_thresholds: Sequence[int] = FIXED_THRESHOLDS,
) -> FigureResult:
    return run_panels(declare(maps, num_broadcasts, seed, fixed_thresholds))[0]


FIGURE = Figure(
    "Fig. 7 — Adaptive counter vs fixed counter",
    "C = 2 collapses on sparse maps, C = 6 wastes SRB everywhere, AC keeps "
    "RE high with C = 2-like saving on dense maps; AC latency smallest on "
    "dense maps.",
    ("re", "srb", "latency"),
    declare,
)
