"""Fig. 2: contention-free probabilities ``cf(n, k)``.

Paper reference shapes: ``cf(n, 0)`` exceeds 0.8 for ``n >= 6``; ``cf(n, 1)``
drops sharply with ``n``; ``cf(n, k)`` is tiny for ``k >= 2``; and
``cf(n, n-1) = 0`` exactly.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.contention import contention_free_probabilities
from repro.experiments.figures.common import Figure

__all__ = ["run", "format_table", "FIGURE"]


def run(
    max_n: int = 10, trials: int = 10000, seed: int = 0
) -> Dict[int, Dict[int, float]]:
    """``{n: {k: cf(n, k)}}`` for ``n = 1 .. max_n``."""
    import random

    rng = random.Random(seed)
    return {
        n: contention_free_probabilities(n, trials=trials, rng=rng)
        for n in range(1, max_n + 1)
    }


def format_table(series: Dict[int, Dict[int, float]]) -> str:
    lines = ["== Fig. 2: cf(n, k) ==", f"{'n':>3} " + " ".join(f"k={k:<2}" for k in range(5))]
    for n, cf in sorted(series.items()):
        row = " ".join(f"{cf.get(k, 0.0):.3f}" for k in range(5))
        lines.append(f"{n:>3} {row}")
    return "\n".join(lines)


#: The report runs 5,000 trials per n.
FIGURE = Figure(
    "Fig. 2 — Contention-free probabilities cf(n, k)",
    "cf(n, 0) > 0.8 for n >= 6; cf(n, 1) drops sharply; cf(n, n-1) = 0.",
    compute=lambda **grid: format_table(run(**grid)),
    report_grid={"trials": 5000},
)
