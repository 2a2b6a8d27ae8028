"""Performance metrics (paper Section 4).

- **RE** (reachability): ``r / e`` -- hosts that received the broadcast over
  hosts reachable (directly or indirectly) from the source at the moment of
  initiation, so network partitioning does not count against a scheme.
- **SRB** (saved rebroadcast): ``(r - t) / r`` -- the fraction of receiving
  hosts whose rebroadcast was saved.
- **Average latency**: initiation to the time the last host finishes its
  rebroadcast or decides not to rebroadcast.

Both r and t count non-source hosts; the source's initial transmission is a
broadcast, not a *re*-broadcast.  Once a broadcast can no longer change,
a run keeps only these numbers (:class:`SettledBroadcast`), not the
per-host record.
"""

from repro.metrics.collector import (
    BroadcastRecord,
    MetricsCollector,
    SettledBroadcast,
    SimulationSummary,
    SummaryStat,
)
from repro.metrics.connectivity import connected_components, reachable_set

__all__ = [
    "BroadcastRecord",
    "MetricsCollector",
    "SettledBroadcast",
    "SimulationSummary",
    "SummaryStat",
    "reachable_set",
    "connected_components",
]
