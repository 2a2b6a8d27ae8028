"""Reproduction of Tseng, Ni & Shih, "Adaptive Approaches to Relieving
Broadcast Storms in a Wireless Multihop Mobile Ad Hoc Network"
(ICDCS 2001 / IEEE Transactions on Computers, May 2003).

The package is organized bottom-up:

- :mod:`repro.sim` -- discrete-event simulation engine.
- :mod:`repro.geometry` -- circle-coverage mathematics.
- :mod:`repro.analysis` -- the paper's Section 2.2 analytical models
  (expected additional coverage, contention-free probabilities).
- :mod:`repro.mobility` -- the random-direction roaming model and friends.
- :mod:`repro.phy` -- DSSS physical-layer timing and the radio channel
  with receiver-side collision modelling.
- :mod:`repro.mac` -- IEEE 802.11-like CSMA/CA DCF for broadcast frames.
- :mod:`repro.net` -- packets, mobile hosts, neighbor discovery (HELLO),
  dynamic hello intervals and network-wide connectivity snapshots.
- :mod:`repro.schemes` -- the broadcast-scheme plugin registry and the
  schemes themselves: flooding, fixed counter/distance/location
  thresholds, the paper's contributions (adaptive counter, adaptive
  location, neighbor coverage) and a literature zoo (gossip, adaptive
  gossip, counter+gossip hybrid, self-pruning).
- :mod:`repro.metrics` -- RE / SRB / latency collection.
- :mod:`repro.faults` -- fault injection: host crash/recover churn,
  bursty (Gilbert-Elliott) link loss, HELLO suppression, and the
  graceful-degradation metrics that go with them.
- :mod:`repro.experiments` -- scenario builders and runners for every
  figure in the paper's evaluation.

Quickstart::

    from repro import run_broadcast_simulation, ScenarioConfig

    config = ScenarioConfig(map_units=5, scheme="adaptive-counter",
                            num_broadcasts=50, seed=7)
    result = run_broadcast_simulation(config)
    print(result.summary())
"""

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import SimulationResult, run_broadcast_simulation
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.collector import BroadcastRecord, MetricsCollector
from repro.schemes import (
    SCHEME_REGISTRY,
    ParamSpec,
    SchemeSpec,
    get_spec,
    make_scheme,
    register_scheme,
)

__version__ = "1.0.0"

__all__ = [
    "ScenarioConfig",
    "SimulationResult",
    "run_broadcast_simulation",
    "BroadcastRecord",
    "MetricsCollector",
    "FaultPlan",
    "FaultInjector",
    "SCHEME_REGISTRY",
    "SchemeSpec",
    "ParamSpec",
    "register_scheme",
    "get_spec",
    "make_scheme",
    "__version__",
]
