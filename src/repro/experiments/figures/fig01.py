"""Fig. 1: expected additional coverage ``EAC(k)`` after k receptions.

Paper reference values (read off the figure / text): ``EAC(1) ~= 0.41``,
monotonically decreasing, below 0.05 for ``k >= 4``.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.coverage import eac_table
from repro.experiments.figures.common import Figure

__all__ = ["run", "FIGURE", "PAPER_EAC1", "PAPER_TAIL_BOUND", "PAPER_TAIL_K"]

PAPER_EAC1 = 0.41
PAPER_TAIL_BOUND = 0.05
PAPER_TAIL_K = 4


def run(max_k: int = 10, trials: int = 2000, seed: int = 0) -> Dict[int, float]:
    """The Fig. 1 series: ``{k: EAC(k) / pi r^2}``."""
    return eac_table(max_k=max_k, trials=trials, seed=seed)


def format_table(series: Dict[int, float]) -> str:
    lines = ["== Fig. 1: EAC(k) / (pi r^2) ==", f"{'k':>3} {'EAC(k)':>8}"]
    for k, v in sorted(series.items()):
        lines.append(f"{k:>3} {v:>8.4f}")
    return "\n".join(lines)


FIGURE = Figure(
    "Fig. 1 — Expected additional coverage EAC(k)",
    "EAC(1) ~ 0.41, decreasing, below 0.05 from k = 4.",
    compute=lambda **grid: format_table(run(**grid)),
)
