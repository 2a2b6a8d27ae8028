"""Fig. 9: comparing adaptive-location threshold functions ``A(n)``.

The candidates are the ``(n1, n2)`` pairs of Fig. 8.  The paper finds
``(6, 12)``, ``(8, 12)`` and ``(8, 10)`` all give satisfactory RE and picks
``(6, 12)`` for its better SRB on sparse maps.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import (
    PAPER_MAPS,
    Figure,
    FigureResult,
    Panel,
    run_panels,
)

__all__ = ["run", "declare", "FIGURE", "CANDIDATE_PAIRS"]

CANDIDATE_PAIRS: Tuple[Tuple[int, int], ...] = (
    (2, 8),
    (4, 8),
    (6, 10),
    (6, 12),
    (8, 10),
    (8, 12),
)


def declare(
    maps: Sequence[int] = PAPER_MAPS,
    pairs: Sequence[Tuple[int, int]] = CANDIDATE_PAIRS,
    num_broadcasts: int = 50,
    seed: int = 1,
) -> List[Panel]:
    entries = []
    for n1, n2 in pairs:
        for units in maps:
            config = ScenarioConfig(
                scheme="adaptive-location",
                scheme_params={"n1": n1, "n2": n2},
                map_units=units,
                num_broadcasts=num_broadcasts,
                seed=seed,
            )
            entries.append((f"({n1},{n2})", units, config))
    return [Panel("Fig. 9: A(n) candidates", "map", entries)]


def run(
    maps: Sequence[int] = PAPER_MAPS,
    pairs: Sequence[Tuple[int, int]] = CANDIDATE_PAIRS,
    num_broadcasts: int = 50,
    seed: int = 1,
) -> FigureResult:
    return run_panels(declare(maps, pairs, num_broadcasts, seed))[0]


FIGURE = Figure(
    "Fig. 9 — A(n) candidates for the adaptive location scheme",
    "(6,12), (8,12), (8,10) all satisfactory; (6,12) chosen.",
    declare=declare,
)
