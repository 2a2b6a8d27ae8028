"""Shared settings for the figure-reproduction benchmarks.

Every benchmark runs a reduced-but-faithful version of a paper figure:
fixed seeds, a subset of the map/speed grid and fewer broadcast requests
than the paper's 10,000 (RE/SRB/latency are per-broadcast means and
stabilize quickly).  Set ``REPRO_BENCH_FULL=1`` to run the paper's full
grids (slow).

Each test prints the regenerated series (run pytest with ``-s`` to see
them) and asserts the *qualitative* shape the paper reports -- who wins,
where the crossovers are -- not the absolute numbers, which depended on the
authors' C++ simulator internals.
"""

import os

import pytest

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: broadcasts per scenario in reduced mode
N_BROADCASTS = 120 if FULL else 30
SEED = 1


@pytest.fixture
def bench_grid():
    """(maps, n_broadcasts) honoring REPRO_BENCH_FULL."""
    maps = (1, 3, 5, 7, 9, 11) if FULL else (1, 5, 9)
    return maps, N_BROADCASTS


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
