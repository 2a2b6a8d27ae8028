"""Per-run resource accounting: peak RSS, GC collections, wall time.

Complements :class:`repro.perf.KernelPerf` (what the kernel *did*) with
what the run *cost the process*, as measured: peak resident set size,
how many garbage collections ran, and the run's wall time.  The SLP
toolchain ships the same layer around its simulators (per-job resource
accounting next to the result payload); here it rides on every
:class:`~repro.experiments.runner.SimulationResult` as the ``resources``
block and flows through :func:`repro.experiments.io.result_to_dict` into
run JSON.

``peak_rss_bytes`` is the **process-lifetime** peak at the end of the
run (``ru_maxrss`` never decreases), not a per-run delta -- a batch's
later runs inherit the peak of earlier ones.  Where the time went, per
layer, is measured by the paper-workload benchmark's traced pass
(``python3 bench/run.py --workload W --trace 1``), not estimated here.

Everything is stdlib; on platforms without the ``resource`` module
(Windows) RSS reports 0 rather than failing.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["ResourceProfile", "ResourceMonitor", "peak_rss_bytes"]


def peak_rss_bytes() -> int:
    """The process's peak resident set size in bytes (0 if unknowable).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS (the BSD
    heritage); normalized here so callers never see the difference.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024


def _gc_collections() -> int:
    """Total collections across all generations so far."""
    return sum(stat.get("collections", 0) for stat in gc.get_stats())


@dataclass
class ResourceProfile:
    """What one simulation run cost the process."""

    #: Process-lifetime peak RSS observed at the end of the run (bytes).
    peak_rss_bytes: int = 0
    #: Garbage collections that ran during the run (all generations).
    gc_collections: int = 0
    #: The run's measured wall time (same value as
    #: ``SimulationResult.wall_time``).
    wall_time: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "peak_rss_bytes": self.peak_rss_bytes,
            "gc_collections": self.gc_collections,
            "wall_time": self.wall_time,
        }

    def merge(self, other: "ResourceProfile") -> "ResourceProfile":
        """Aggregate across runs: peaks max, counters sum; ``self``."""
        self.peak_rss_bytes = max(self.peak_rss_bytes, other.peak_rss_bytes)
        self.gc_collections += other.gc_collections
        self.wall_time += other.wall_time
        return self


class ResourceMonitor:
    """Bracketing helper: ``start()`` before the run, ``finish()`` after.

    Costs two ``gc.get_stats()`` walks and one ``getrusage`` call per
    run -- microseconds, which is why every run collects it
    unconditionally (no arming needed, unlike the metrics registry).
    """

    __slots__ = ("_gc_collections",)

    def start(self) -> "ResourceMonitor":
        self._gc_collections = _gc_collections()
        return self

    def finish(self, wall_time: float) -> ResourceProfile:
        return ResourceProfile(
            peak_rss_bytes=peak_rss_bytes(),
            gc_collections=_gc_collections() - self._gc_collections,
            wall_time=wall_time,
        )
