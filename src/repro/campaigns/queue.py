"""Work-queue campaign executor with checkpointed crash-resume.

The executor walks a :class:`~repro.campaigns.planner.CampaignPlan` in
checkpoint-sized chunks through a
:class:`~repro.experiments.parallel.ParallelRunner`.  Every chunk
boundary is a durability point: finished runs are appended to the JSONL
checkpoint (fsync'd) and the manifest is atomically rewritten.  Because
each run's result also lands in the SHA-256
:class:`~repro.experiments.parallel.ResultCache` the instant it
finishes, resume is trivial and exact:

1. re-expand the spec (deterministic ids),
2. replay the checkpoint to see how far the campaign got,
3. run the plan again -- completed digests come back as cache hits
   (zero re-simulation), holes actually execute.

Interrupts (Ctrl-C, SIGTERM via the CLI handler) surface as
:class:`~repro.experiments.parallel.ExecutionInterrupted`; the executor
flushes what finished and returns an ``interrupted`` outcome instead of
tearing down mid-write.

The completed campaign's deterministic payload (per-run metrics and the
per-grid-point aggregate; no wall-clock noise) is written to
``results.json`` -- an interrupted-then-resumed campaign produces a
byte-identical file to an uninterrupted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.campaigns.checkpoint import (
    CheckpointRecord,
    CheckpointWriter,
    load_manifest,
    load_records,
    write_manifest,
)
from repro.campaigns.planner import CampaignPlan, PlannedRun
from repro.experiments.parallel import (
    ExecutionInterrupted,
    ParallelRunner,
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
]

MANIFEST_NAME = "manifest.json"
PROGRESS_NAME = "progress.jsonl"
RESULTS_NAME = "results.json"


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
    """Manifest + live checkpoint progress for a campaign directory.

    Used by ``repro-manet campaign status``; raises ``FileNotFoundError``
    when the directory holds no manifest.
    """
    directory = Path(directory)
    manifest = load_manifest(directory / MANIFEST_NAME)
    if manifest is None:
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    records = load_records(directory / PROGRESS_NAME)
    done = sum(1 for r in records.values() if r.status == "done")
    simulated = sum(
        1 for r in records.values() if r.status == "done" and r.simulated
    )
    total = manifest.get("total_runs", 0)
    return {
        "campaign_id": manifest.get("campaign_id"),
        "name": manifest.get("name"),
        "status": manifest.get("status"),
        "total_runs": total,
        "completed_runs": done,
        "simulated_runs": simulated,
        "cached_runs": done - simulated,
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
        checkpoint_every: Optional[int] = None,
        runner: Optional[ParallelRunner] = None,
        include_resources: bool = False,
    ) -> None:
        self.plan = plan
        self.directory = Path(directory)
        self.include_resources = include_resources
        if runner is not None:
            self.runner = runner
        else:
            self.runner = ParallelRunner(
                max_workers=max_workers,
                cache_dir=cache_dir or self.directory / "cache",
            )
        if self.runner.cache is None:
            raise ValueError(
                "campaigns need a result cache (it is the resume store); "
                "pass cache_dir or a runner with one"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.checkpoint_every = checkpoint_every or max(
            4, 2 * (self.runner.max_workers or 1)
        )

    # ----------------------------------------------------------- helpers

    def _manifest(self, status: str, completed: int) -> Dict[str, Any]:
        plan = self.plan
        return {
            "manifest_version": 1,
            "campaign_id": plan.campaign_id,
            "name": plan.spec.name,
            "spec": plan.spec.to_dict(),
            "spec_digest": plan.spec.digest(),
            "status": status,
            "total_runs": plan.total,
            "completed_runs": completed,
            "checkpoint_every": self.checkpoint_every,
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

    def _record(
        self, planned: PlannedRun, result: SimulationResult
    ) -> CheckpointRecord:
        def clean(x: float) -> float:
            return x if math.isfinite(x) else float("nan")

        return CheckpointRecord(
            run_id=planned.run_id,
            digest=planned.digest,
            status="done",
            simulated=not result.from_cache,
            re=clean(result.re),
            srb=clean(result.srb),
            latency=clean(result.latency),
            events=result.events_processed,
            wall_time=result.wall_time,
        )

    # -------------------------------------------------------------- run

    def run(
        self,
        progress: Optional[Callable[[PlannedRun, SimulationResult], None]] = None,
    ) -> CampaignOutcome:
        """Execute every planned run not yet checkpointed; resume-safe.

        ``progress`` fires once per run as its chunk completes (both for
        fresh simulations and cache hits).  Returns an outcome whose
        ``status`` is ``"interrupted"`` when a ``KeyboardInterrupt`` /
        ``SIGTERM`` stopped the session early -- rerunning ``run()``
        later picks up exactly where the checkpoint left off.
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
        recorded = load_records(self.directory / PROGRESS_NAME)
        write_manifest(
            manifest_path, self._manifest("running", len(recorded))
        )

        results: List[Optional[SimulationResult]] = [None] * plan.total
        interrupted = False
        with CheckpointWriter(self.directory / PROGRESS_NAME) as ckpt:
            try:
                for lo in range(0, plan.total, self.checkpoint_every):
                    chunk = plan.runs[lo:lo + self.checkpoint_every]
                    try:
                        chunk_results = self.runner.run_many(
                            [r.config for r in chunk]
                        )
                    except ExecutionInterrupted as exc:
                        chunk_results = exc.results
                        interrupted = True
                    for planned, result in zip(chunk, chunk_results):
                        if result is None:
                            continue
                        results[planned.index] = result
                        if planned.run_id not in recorded:
                            record = self._record(planned, result)
                            ckpt.append(record)
                            recorded[planned.run_id] = record
                        if progress is not None:
                            progress(planned, result)
                    ckpt.flush()
                    done = sum(
                        1 for r in recorded.values() if r.status == "done"
                    )
                    write_manifest(
                        manifest_path,
                        self._manifest(
                            "interrupted" if interrupted else "running", done
                        ),
                    )
                    if interrupted:
                        break
            except KeyboardInterrupt:
                # Interrupt between run_many calls (or during checkpoint
                # bookkeeping): flush what we have and exit resumable.
                interrupted = True
                ckpt.flush()
                write_manifest(
                    manifest_path,
                    self._manifest(
                        "interrupted",
                        sum(
                            1 for r in recorded.values()
                            if r.status == "done"
                        ),
                    ),
                )

        if interrupted:
            return CampaignOutcome(
                plan=plan,
                directory=self.directory,
                status="interrupted",
                results=results,
                perf=self.runner.perf,
            )

        from repro.experiments.io import save_json

        save_json(
            campaign_results_payload(
                plan, results, include_resources=self.include_resources
            ),
            self.directory / RESULTS_NAME,
        )
        write_manifest(manifest_path, self._manifest("complete", plan.total))
        return CampaignOutcome(
            plan=plan,
            directory=self.directory,
            status="complete",
            results=results,
            perf=self.runner.perf,
        )
