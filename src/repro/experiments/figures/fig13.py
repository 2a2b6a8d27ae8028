"""Fig. 13: overall comparison (RE vs SRB scatter per map).

Schemes compared, each at its best setting (paper Section 4.4): counter
C = 2 and C = 6, adaptive counter (AC), location A = 0.1871 and A = 0.0134,
adaptive location (AL), neighbor coverage with dynamic hello interval
(NC-DHI), and flooding.  Max speed follows the paper's map-scaled default
(10 km/h per map unit).

Expected: flooding has SRB = 0 and suboptimal RE on dense maps; the
adaptive schemes sit toward the upper-right; their RE stays ~>= 95 %; NC is
strongest on dense maps, AC/AL on sparse maps.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures.common import (
    PAPER_MAPS,
    Figure,
    FigureResult,
    Panel,
    run_panels,
)
from repro.net.host import HelloConfig

__all__ = ["run", "declare", "FIGURE", "SCHEME_LINEUP"]


def _dhi() -> HelloConfig:
    return HelloConfig(dynamic=True, nv_max=0.02, hi_min=1.0, hi_max=10.0)


#: label -> (scheme name, scheme params, hello config or None)
SCHEME_LINEUP: Dict[str, Tuple[str, dict, HelloConfig]] = {
    "C=2": ("counter", {"threshold": 2}, HelloConfig()),
    "C=6": ("counter", {"threshold": 6}, HelloConfig()),
    "AC": ("adaptive-counter", {}, HelloConfig()),
    "A=0.1871": ("location", {"threshold": 0.1871}, HelloConfig()),
    "A=0.0134": ("location", {"threshold": 0.0134}, HelloConfig()),
    "AL": ("adaptive-location", {}, HelloConfig()),
    "NC-DHI": ("neighbor-coverage", {}, _dhi()),
    "flooding": ("flooding", {}, HelloConfig()),
}


def declare(
    maps: Sequence[int] = PAPER_MAPS,
    num_broadcasts: int = 50,
    seed: int = 1,
    lineup: Dict[str, Tuple[str, dict, HelloConfig]] = None,
) -> List[Panel]:
    """Series per scheme; x = map size.  Each (series, x) is one scatter
    point of the corresponding panel."""
    lineup = lineup or SCHEME_LINEUP
    entries = [
        (
            label,
            units,
            ScenarioConfig(
                scheme=scheme,
                scheme_params=params,
                map_units=units,
                hello=hello,
                num_broadcasts=num_broadcasts,
                seed=seed,
            ),
        )
        for label, (scheme, params, hello) in lineup.items()
        for units in maps
    ]
    return [Panel("Fig. 13: overall comparison", "map", entries)]


def run(
    maps: Sequence[int] = PAPER_MAPS,
    num_broadcasts: int = 50,
    seed: int = 1,
    lineup: Dict[str, Tuple[str, dict, HelloConfig]] = None,
) -> FigureResult:
    return run_panels(declare(maps, num_broadcasts, seed, lineup))[0]


FIGURE = Figure(
    "Fig. 13 — Overall comparison",
    "flooding SRB = 0 with suboptimal dense-map RE; adaptive schemes "
    "upper-right; NC best dense, AC/AL best sparse.",
    declare=declare,
)
