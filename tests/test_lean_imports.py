"""Importing the simulator, its drivers and the CLI does not load scipy.

scipy is imported only inside the two Fig. 1 quadratures and the
replication t quantile, so a process that only simulates, a figure
driver or a campaign included, never pays for it.
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


def test_importing_the_package_does_not_load_scipy():
    code = "".join(f"import {module}\n" for module in MODULES) + (
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
