"""Campaign executor: one cached batch per session, resumed from the cache.

A session hands every run of a :class:`~repro.campaigns.planner.CampaignPlan`
to one :meth:`~repro.experiments.parallel.ParallelRunner.run_many` call.
Each run's result lands in the SHA-256
:class:`~repro.experiments.parallel.ResultCache` the instant it finishes,
so the cache is the campaign's only record of progress and resume is
exact:

1. re-expand the spec (deterministic ids and digests),
2. run the plan again -- completed digests come back as cache hits
   (zero re-simulation), holes actually execute.

``manifest.json`` holds the campaign's identity, its run table, the
absolute path of its cache and the session's status; it is replaced
atomically, so readers never see a torn document.  ``campaign status``
counts the run table's digests that the cache holds; after a cache
prune or clear it reports fewer, and the next session simulates them
again.

Interrupts (Ctrl-C, SIGTERM via the CLI handler) surface as
:class:`~repro.experiments.parallel.ExecutionInterrupted` while the batch
runs, and as a plain ``KeyboardInterrupt`` once it has returned and the
payload is being built or written; either way the executor writes an
``interrupted`` manifest and returns the results it has instead of
tearing down mid-write.

The completed campaign's deterministic payload (per-run metrics and the
per-grid-point aggregate; no wall-clock noise) is written to
``results.json`` -- an interrupted-then-resumed campaign produces a
byte-identical file to an uninterrupted one.  Both files are replaced
atomically.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.campaigns.planner import CampaignPlan, PlannedRun
from repro.experiments.parallel import (
    ExecutionInterrupted,
    ParallelRunner,
    ResultCache,
    RunnerPerf,
)
from repro.experiments.replication import MetricEstimate, aggregate
from repro.experiments.runner import SimulationResult
from repro.telemetry.resources import ResourceProfile

__all__ = [
    "CampaignExecutor",
    "CampaignMismatch",
    "CampaignOutcome",
    "campaign_results_payload",
    "campaign_status",
    "load_manifest",
    "write_manifest",
]

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.json"


def _replace_json(path: Union[str, Path], data: Dict[str, Any]) -> None:
    """Atomically replace ``path`` with ``data`` as JSON: written to a
    temporary file beside it, fsynced, then renamed over it, so readers
    never see a torn file and an interrupt leaves the old one."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> None:
    """Atomically replace the manifest (readers never see a torn file)."""
    _replace_json(path, manifest)


def load_manifest(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The manifest dict, or ``None`` when the file does not exist."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return json.loads(text)


class CampaignMismatch(RuntimeError):
    """The directory belongs to a different campaign (changed spec)."""


@dataclass
class CampaignOutcome:
    """What one ``CampaignExecutor.run()`` session produced."""

    plan: CampaignPlan
    directory: Path
    status: str  # "complete" | "interrupted"
    #: Aligned with ``plan.runs``; ``None`` where a run never finished
    #: this session (only possible when interrupted).
    results: List[Optional[SimulationResult]]
    perf: RunnerPerf

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r is not None)

    @property
    def resumable(self) -> bool:
        return self.status == "interrupted"


def _estimate_to_dict(est: Optional[MetricEstimate]) -> Optional[Dict[str, Any]]:
    if est is None:
        return None
    return {
        "mean": est.mean,
        "half_width": est.half_width,
        "confidence": est.confidence,
        "samples": est.samples,
    }


def campaign_results_payload(
    plan: CampaignPlan,
    results: List[Optional[SimulationResult]],
    include_resources: bool = False,
) -> Dict[str, Any]:
    """The campaign's deterministic result document.

    Contains only seed-deterministic quantities (metrics, counters,
    fault traces, aggregates) -- no wall times, no cache provenance --
    so an interrupted+resumed campaign serializes byte-identically to an
    uninterrupted one.  Runs that never finished are listed under
    ``"missing"`` rather than silently dropped.

    ``include_resources=True`` (the ``campaign run --resources`` flag)
    adds an aggregate ``"resources"`` block (peak RSS across runs, summed
    GC collections and wall time).  It is **opt-in precisely because** those
    quantities are wall-clock noise: enabling it forfeits the
    byte-identity guarantee above, which the resume tests pin.
    """
    runs = []
    missing = []
    by_point: Dict[Tuple, Tuple[PlannedRun, List[SimulationResult]]] = {}
    for planned, result in zip(plan.runs, results):
        if result is None:
            missing.append(planned.run_id)
            continue
        ch = result.channel_stats
        runs.append({
            "run_id": planned.run_id,
            "digest": planned.digest,
            "point": dict(sorted(planned.point.items())),
            "metrics": {
                "re": result.re,
                "srb": result.srb,
                "latency": result.latency,
                "hellos": result.hellos,
                "broadcasts": result.stats.broadcasts,
            },
            "events_processed": result.events_processed,
            "end_time": result.end_time,
            "channel": {
                "transmissions": ch.transmissions,
                "deliveries": ch.deliveries,
                "collisions": ch.collisions,
            },
            "broadcasts_skipped": result.broadcasts_skipped,
            "fault_trace": [
                [e.time, e.kind, e.host_id] for e in result.fault_trace
            ],
        })
        key = tuple(sorted(
            (k, v) for k, v in planned.point.items() if k != "seed"
        ))
        by_point.setdefault(key, (planned, []))[1].append(result)

    summary = []
    # repr-keyed sort: point values can mix types across axes (None
    # speeds, str fault names), which plain tuple comparison rejects.
    for key in sorted(by_point, key=repr):
        planned, point_results = by_point[key]
        agg = aggregate(planned.config, point_results)
        summary.append({
            "point": dict(key),
            "seeds": len(point_results),
            "re": _estimate_to_dict(agg.re),
            "srb": _estimate_to_dict(agg.srb),
            "latency": _estimate_to_dict(agg.latency),
        })

    payload: Dict[str, Any] = {
        "campaign_id": plan.campaign_id,
        "name": plan.spec.name,
        "spec_digest": plan.spec.digest(),
        "total_runs": plan.total,
        "completed_runs": len(runs),
        "missing": missing,
        "runs": runs,
        "summary": summary,
    }
    if include_resources:
        total = ResourceProfile()
        sampled = 0
        for result in results:
            # getattr: results unpickled from a pre-resources cache lack
            # the field entirely.
            profile = getattr(result, "resources", None) if result else None
            if profile is not None:
                total.merge(profile)
                sampled += 1
        payload["resources"] = dict(total.as_dict(), runs_sampled=sampled)
    return payload


def campaign_status(directory: Union[str, Path]) -> Dict[str, Any]:
    """The manifest's state and how many of its runs the cache holds.

    Used by ``repro-manet campaign status``; raises ``FileNotFoundError``
    when the directory holds no manifest.  Reads the cache without
    creating it.
    """
    directory = Path(directory)
    manifest = load_manifest(directory / MANIFEST_NAME)
    if manifest is None:
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    cache = ResultCache(manifest["cache_dir"])
    done = sum(1 for run in manifest["runs"] if run["digest"] in cache)
    total = len(manifest["runs"])
    return {
        "campaign_id": manifest.get("campaign_id"),
        "name": manifest.get("name"),
        "status": manifest.get("status"),
        "total_runs": total,
        "completed_runs": done,
        "progress": (done / total) if total else 0.0,
        "results_available": (directory / RESULTS_NAME).exists(),
    }


class CampaignExecutor:
    """Execute (or resume) one campaign inside its directory."""

    def __init__(
        self,
        plan: CampaignPlan,
        directory: Union[str, Path],
        max_workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        include_resources: bool = False,
    ) -> None:
        self.plan = plan
        self.directory = Path(directory)
        self.include_resources = include_resources
        # Resolved, so the manifest names the same cache whatever the
        # working directory of a later ``campaign status``.
        self.runner = ParallelRunner(
            max_workers=max_workers,
            cache_dir=Path(cache_dir or self.directory / "cache").resolve(),
        )

    def _manifest(self, status: str) -> Dict[str, Any]:
        plan = self.plan
        return {
            "manifest_version": 2,
            "campaign_id": plan.campaign_id,
            "name": plan.spec.name,
            "spec": plan.spec.to_dict(),
            "spec_digest": plan.spec.digest(),
            "status": status,
            "total_runs": plan.total,
            "cache_dir": str(self.runner.cache.directory),
            "runs": [
                {
                    "run_id": r.run_id,
                    "digest": r.digest,
                    "point": dict(sorted(r.point.items())),
                }
                for r in plan.runs
            ],
        }

    def run(
        self,
        progress: Optional[Callable[[PlannedRun, SimulationResult], None]] = None,
    ) -> CampaignOutcome:
        """Run every planned run as one batch; resume-safe.

        ``progress`` fires once per run as its result lands (both for
        fresh simulations and cache hits).  Returns an outcome whose
        ``status`` is ``"interrupted"`` when a ``KeyboardInterrupt`` /
        ``SIGTERM`` stopped the session early -- rerunning ``run()``
        later simulates only the runs the cache does not hold.
        """
        plan = self.plan
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / MANIFEST_NAME
        existing = load_manifest(manifest_path)
        if existing is not None:
            if existing.get("campaign_id") != plan.campaign_id:
                raise CampaignMismatch(
                    f"{self.directory} belongs to campaign "
                    f"{existing.get('campaign_id')!r}, not {plan.campaign_id!r}"
                    " -- the spec changed; use a fresh directory"
                )
        write_manifest(manifest_path, self._manifest("running"))

        landed = None
        if progress is not None:
            landed = lambda i, result: progress(plan.runs[i], result)
        results: List[Optional[SimulationResult]] = [None] * plan.total
        try:
            results = self.runner.run_many(
                [r.config for r in plan.runs], progress=landed
            )
            _replace_json(
                self.directory / RESULTS_NAME,
                campaign_results_payload(
                    plan, results, include_resources=self.include_resources
                ),
            )
            status = "complete"
        except ExecutionInterrupted as exc:
            results, status = exc.results, "interrupted"
        except KeyboardInterrupt:
            # After the batch: every result is in the cache, so a rerun
            # simulates nothing and writes results.json.
            status = "interrupted"
        write_manifest(manifest_path, self._manifest(status))
        return CampaignOutcome(
            plan=plan,
            directory=self.directory,
            status=status,
            results=results,
            perf=self.runner.perf,
        )
