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

from typing import Any, Dict, List, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import (
    PAPER_MAPS,
    Figure,
    FigureResult,
    Panel,
    run_panels,
)
from repro.schemes.thresholds import (
    FIG5A_SEQUENCES,
    FIG5B_SEQUENCES,
    MIDCURVE_SHAPES,
)

__all__ = ["run_5a", "run_5b", "run_5c", "run_5d", "FIGURES"]


def _panel(
    title: str,
    candidates: Dict[str, Dict[str, Any]],
    maps: Sequence[int],
    num_broadcasts: int,
    seed: int,
) -> List[Panel]:
    """Adaptive counter under each ``{series: params}`` candidate, per map."""
    entries = [
        (
            series,
            units,
            ScenarioConfig(
                scheme="adaptive-counter",
                scheme_params=params,
                map_units=units,
                num_broadcasts=num_broadcasts,
                seed=seed,
            ),
        )
        for series, params in candidates.items()
        for units in maps
    ]
    return [Panel(title, "map", entries)]


def _sequence(seq: Sequence[int]) -> Dict[str, str]:
    return {"sequence": "-".join(map(str, seq))}


def declare_5a(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> List[Panel]:
    """Slope candidates (Fig. 5a)."""
    candidates = {
        name: _sequence(seq) for name, seq in FIG5A_SEQUENCES.items()
    }
    return _panel(
        "Fig. 5a: C(n) slope before n1", candidates, maps, num_broadcasts, seed
    )


def declare_5b(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> List[Panel]:
    """Cap point n1 candidates (Fig. 5b)."""
    candidates = {
        f"n1={n1}": _sequence(seq) for n1, seq in FIG5B_SEQUENCES.items()
    }
    return _panel(
        "Fig. 5b: C(n) cap point n1", candidates, maps, num_broadcasts, seed
    )


def declare_5c(
    maps: Sequence[int] = PAPER_MAPS,
    n2_values: Sequence[int] = (8, 12, 16),
    num_broadcasts: int = 50,
    seed: int = 1,
) -> List[Panel]:
    """Floor point n2 candidates with linear decrease, n1 fixed at 4 (Fig. 5c)."""
    candidates = {
        f"n2={n2}": {"n1": 4, "n2": n2, "shape": "linear"} for n2 in n2_values
    }
    return _panel(
        "Fig. 5c: C(n) floor point n2", candidates, maps, num_broadcasts, seed
    )


def declare_5d(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> List[Panel]:
    """Mid-curve shapes between n1=4 and n2=12 (Fig. 5d / Fig. 6)."""
    candidates = {
        shape: {"n1": 4, "n2": 12, "shape": shape} for shape in MIDCURVE_SHAPES
    }
    return _panel(
        "Fig. 5d: C(n) mid-curve shape", candidates, maps, num_broadcasts, seed
    )


def run_5a(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> FigureResult:
    return run_panels(declare_5a(maps, num_broadcasts, seed))[0]


def run_5b(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> FigureResult:
    return run_panels(declare_5b(maps, num_broadcasts, seed))[0]


def run_5c(
    maps: Sequence[int] = PAPER_MAPS,
    n2_values: Sequence[int] = (8, 12, 16),
    num_broadcasts: int = 50,
    seed: int = 1,
) -> FigureResult:
    return run_panels(declare_5c(maps, n2_values, num_broadcasts, seed))[0]


def run_5d(
    maps: Sequence[int] = PAPER_MAPS, num_broadcasts: int = 50, seed: int = 1
) -> FigureResult:
    return run_panels(declare_5d(maps, num_broadcasts, seed))[0]


#: The four panels; the report quotes the paper once, above 5a.
FIGURES = {
    "fig05a": Figure(
        "Fig. 5 — Tuning C(n) for the adaptive counter scheme",
        "slope 1 (C(n) = n + 1) best on sparse maps; n1 = 4 satisfies RE "
        "with the best saving; n2 = 12 best sparse-map RE; mid-curves "
        "trade SRB at similar RE.",
        declare=declare_5a,
    ),
    "fig05b": Figure("", declare=declare_5b),
    "fig05c": Figure("", declare=declare_5c),
    "fig05d": Figure("", declare=declare_5d),
}
