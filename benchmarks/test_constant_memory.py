"""A run's peak memory does not grow with its broadcast count.

Adaptive counter on the 5x5 map, seed 1, runs at 100 and at 1,600
broadcasts, each in a fresh interpreter.  The larger run's peak resident
set (``VmHWM``) must be within 10% of the smaller one's: a broadcast
settles to a few counts once no copy of it can arrive, and its keys
leave the duplicate caches, so a run holds only the broadcasts in flight.

Linux only (``/proc/self/status``); skipped elsewhere.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
#: Allowed growth of the larger run's peak over the smaller run's.
MAX_GROWTH = 0.10
SMALL, LARGE = 100, 1600

PROBE = """
import sys
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation

run_broadcast_simulation(ScenarioConfig(
    scheme="adaptive-counter", map_units=5,
    num_broadcasts=int(sys.argv[1]), seed=1,
))
for line in open("/proc/self/status"):
    if line.startswith("VmHWM:"):
        print(int(line.split()[1]))
"""


def peak_kib(broadcasts: int) -> int:
    """VmHWM, in KiB, of a fresh interpreter that ran one simulation."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])
    ))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(broadcasts)],
        check=True, capture_output=True, text=True, env=env,
    )
    return int(out.stdout.split()[-1])


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(),
    reason="reads VmHWM from /proc/self/status",
)
def test_peak_memory_is_flat_in_the_broadcast_count():
    small, large = peak_kib(SMALL), peak_kib(LARGE)
    growth = large / small - 1.0
    print(
        f"\nVmHWM: {SMALL} broadcasts {small / 1024:.1f} MiB, "
        f"{LARGE} broadcasts {large / 1024:.1f} MiB ({growth:+.1%})"
    )
    assert growth <= MAX_GROWTH
