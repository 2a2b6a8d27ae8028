"""Experiment harness: scenario configs, the runner, and per-figure builders.

Each figure of the paper's evaluation has a matching module
(:mod:`repro.experiments.figures`) that yields the scenario grid and the
series the figure plots; the pytest-benchmark files under ``benchmarks/``
drive them and assert the qualitative shapes.
"""

from repro.experiments.config import ScenarioConfig, default_max_speed_kmh
from repro.experiments.runner import SimulationResult, run_broadcast_simulation

__all__ = [
    "ScenarioConfig",
    "default_max_speed_kmh",
    "SimulationResult",
    "run_broadcast_simulation",
]
