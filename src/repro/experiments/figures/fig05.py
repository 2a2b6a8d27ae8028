"""Fig. 5: tuning the adaptive-counter threshold function ``C(n)``.

Four panels, reproducing the paper's tuning methodology (Section 4.1):

- **5a** slope of the rising part (1/3, 1/2, 1) -- slope 1 wins RE on
  sparse maps.
- **5b** cap ``n1`` (2..5) -- 4 and 5 give satisfactory RE; 4 saves more.
- **5c** floor point ``n2`` (8, 12, 16) with linear decrease -- 12 is best
  on sparse maps.
- **5d** the mid-curve shape between n1 and n2 (Fig. 6 candidates).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import (
    PAPER_MAPS,
    FigureResult,
    run_series_points,
)
from repro.schemes.thresholds import (
    FIG5A_SEQUENCES,
    FIG5B_SEQUENCES,
    MIDCURVE_SHAPES,
)

__all__ = ["run_5a", "run_5b", "run_5c", "run_5d"]


def _ac_config(
    params: Dict[str, Any], map_units: int, num_broadcasts: int, seed: int
) -> ScenarioConfig:
    return ScenarioConfig(
        scheme="adaptive-counter",
        scheme_params=params,
        map_units=map_units,
        num_broadcasts=num_broadcasts,
        seed=seed,
    )


def run_5a(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> FigureResult:
    """Slope candidates (Fig. 5a)."""
    entries = []
    for name, seq in FIG5A_SEQUENCES.items():
        params = {"sequence": "-".join(map(str, seq))}
        for units in maps:
            config = _ac_config(params, units, num_broadcasts, seed)
            entries.append((name, units, config))
    return run_series_points(
        FigureResult("Fig. 5a: C(n) slope before n1", "map"), entries
    )


def run_5b(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> FigureResult:
    """Cap point n1 candidates (Fig. 5b)."""
    entries = []
    for n1, seq in FIG5B_SEQUENCES.items():
        params = {"sequence": "-".join(map(str, seq))}
        for units in maps:
            config = _ac_config(params, units, num_broadcasts, seed)
            entries.append((f"n1={n1}", units, config))
    return run_series_points(
        FigureResult("Fig. 5b: C(n) cap point n1", "map"), entries
    )


def run_5c(
    maps: Sequence[int] = PAPER_MAPS,
    n2_values: Sequence[int] = (8, 12, 16),
    num_broadcasts: int = 50,
    seed: int = 1,
) -> FigureResult:
    """Floor point n2 candidates with linear decrease, n1 fixed at 4 (Fig. 5c)."""
    entries = []
    for n2 in n2_values:
        params = {"n1": 4, "n2": n2, "shape": "linear"}
        for units in maps:
            config = _ac_config(params, units, num_broadcasts, seed)
            entries.append((f"n2={n2}", units, config))
    return run_series_points(
        FigureResult("Fig. 5c: C(n) floor point n2", "map"), entries
    )


def run_5d(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> FigureResult:
    """Mid-curve shapes between n1=4 and n2=12 (Fig. 5d / Fig. 6)."""
    entries = []
    for shape in MIDCURVE_SHAPES:
        params = {"n1": 4, "n2": 12, "shape": shape}
        for units in maps:
            config = _ac_config(params, units, num_broadcasts, seed)
            entries.append((shape, units, config))
    return run_series_points(
        FigureResult("Fig. 5d: C(n) mid-curve shape", "map"), entries
    )
