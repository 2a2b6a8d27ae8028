"""Discrete-event simulation engine.

The paper's evaluation used a custom C++ engine built around "processes
communicating through signals".  This package provides the equivalent in
Python, with plain callbacks in place of processes:

- :class:`~repro.sim.engine.Scheduler` -- a heap-based event scheduler with
  deterministic total ordering of simultaneous events.
- :class:`~repro.sim.engine.Event` -- a cancellable scheduled callback.
- :class:`~repro.sim.randomness.RandomStreams` -- named, independently
  seeded random substreams so that component randomness is reproducible
  and decoupled.
"""

from repro.sim.engine import Event, Scheduler, SimulationError
from repro.sim.randomness import RandomStreams

__all__ = [
    "Event",
    "Scheduler",
    "SimulationError",
    "RandomStreams",
]
