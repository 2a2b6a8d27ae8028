"""Importing the simulator, its drivers and the CLI does not load scipy,
and importing the figure drivers does not load multiprocessing.

scipy is imported only inside the two Fig. 1 quadratures and the
replication t quantile, so a process that only simulates, a figure
driver or a campaign included, never pays for it.  The figure drivers
import the process-pool runner only when no executor is installed, so a
process that installs its own (the benchmark) never loads the pool.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (
    "repro",
    "repro.cli",
    "repro.experiments.figures",
    "repro.experiments.parallel",
    "repro.experiments.report",
    "repro.campaigns",
)


def loaded_after(modules, package):
    """The ``package`` modules a fresh interpreter holds after importing
    ``modules``."""
    code = "".join(f"import {module}\n" for module in modules) + (
        "import sys\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


def test_importing_the_package_does_not_load_scipy():
    assert loaded_after(MODULES, "scipy") == "[]"


def test_importing_the_figures_does_not_load_multiprocessing():
    assert loaded_after(["repro.experiments.figures"], "multiprocessing") == "[]"
