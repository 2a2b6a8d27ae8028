"""Operational telemetry: per-run resource profiles and the bench gate.

The third observability layer, alongside :mod:`repro.perf` (per-run
kernel counters) and :mod:`repro.trace` (per-decision provenance):

- :mod:`repro.telemetry.resources` -- per-run resource profiles (peak
  RSS, GC collections, wall time) attached to every
  :class:`~repro.experiments.runner.SimulationResult`.
- :mod:`repro.telemetry.bench` -- benchmark trajectory tracking:
  ``repro-manet bench record`` appends a ``BENCH_*.json`` document to a
  history file, ``bench check`` gates on regressions vs a rolling
  baseline.

Neither touches the simulation kernel, whose hot path stays
telemetry-free by design.  The package re-exports nothing: import the
submodule you need, so a process that only runs simulations never loads
the bench-history code.
"""
