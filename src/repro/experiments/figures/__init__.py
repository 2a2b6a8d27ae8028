"""Per-figure reproduction drivers and the figure table.

Each module regenerates the data behind one figure of the paper's
evaluation; the pytest-benchmark files in ``benchmarks/`` call their
``run`` functions and assert the qualitative shapes.  A simulated
figure's module declares its panels (``declare``) and runs them through
:func:`~repro.experiments.figures.common.run_panels`; all drivers accept
``num_broadcasts`` / ``seed`` / grid-reduction arguments so the same code
scales from a quick CI run to a full paper-scale reproduction.

:data:`FIGURES` is the table the report and the CLI ``figure`` command
share: figure name -> :class:`~repro.experiments.figures.common.Figure`,
in report order.
"""

from repro.experiments.figures.common import Figure, FigureResult, SeriesPoint
from repro.experiments.figures import (
    fig01,
    fig02,
    fig05,
    fig07,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
)

FIGURES = {
    "fig01": fig01.FIGURE,
    "fig02": fig02.FIGURE,
    **fig05.FIGURES,
    "fig07": fig07.FIGURE,
    "fig09": fig09.FIGURE,
    "fig10": fig10.FIGURE,
    "fig11": fig11.FIGURE,
    "fig12": fig12.FIGURE,
    "fig13": fig13.FIGURE,
}

__all__ = [
    "FIGURES",
    "Figure",
    "FigureResult",
    "SeriesPoint",
    "fig01",
    "fig02",
    "fig05",
    "fig07",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
]
