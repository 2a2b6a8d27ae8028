"""Scale sweep: events/sec by host count.

Runs the fig. 13-style dense scenario (everyone in one unit square,
blind flooding) at growing host counts and emits ``BENCH_scale.json``
with the measured throughput curve.  The broadcast count shrinks as the
host count grows so every point stays a few seconds of kernel work;
events/sec is the honest cross-size metric.

Before any throughput claim, every size must process exactly the number
of scheduler events committed in the repository's ``BENCH_scale.json``:
a faster run that simulates something else is not a speedup.

The sweep also times the batch driver
(:func:`repro.experiments.runner.run_broadcast_batch`) at the largest
size: many seeds, one process, shared numpy allocations.

Env knobs (see ``conftest.py`` for the first two):

- ``REPRO_BENCH_HOSTS`` -- comma-separated host counts
  (default ``100,250,500,1000,2000``).
- ``REPRO_BENCH_REPS`` -- timing repetitions, best-of (default 2).
- ``REPRO_SCALE_OUT`` -- output path (default ``BENCH_scale.json``).
"""

import json
import os
import platform
import time
from pathlib import Path

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import (
    run_broadcast_batch,
    run_broadcast_simulation,
)

OUT_PATH = os.environ.get("REPRO_SCALE_OUT", "BENCH_scale.json")

#: The committed sweep whose event counts every run must reproduce.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: Seeds for the batch-mode measurement at the largest size.
BATCH_SEEDS = (1, 2, 3)


def committed_events() -> dict:
    """``num_hosts -> events_processed`` from the committed sweep."""
    with open(COMMITTED) as fh:
        sweep = json.load(fh)["sweep"]
    return {row["num_hosts"]: row["events_processed"] for row in sweep}


def dense_config(num_hosts: int) -> ScenarioConfig:
    """Dense map-1 flooding, broadcasts scaled down with host count."""
    return ScenarioConfig(
        scheme="flooding",
        map_units=1,
        num_hosts=num_hosts,
        num_broadcasts=max(2, 3000 // num_hosts),
        seed=1,
    )


def _best_run(config: ScenarioConfig, reps: int):
    """Best-of-``reps`` wall time; returns (events_processed, wall)."""
    best_wall = float("inf")
    events = None
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        result = run_broadcast_simulation(config)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
            events = result.events_processed
    return events, best_wall


def test_scale_sweep_and_bench_json(scale_sweep):
    sizes, reps = scale_sweep
    expected = committed_events()
    rows = []
    for num_hosts in sizes:
        config = dense_config(num_hosts)
        events, wall = _best_run(config, reps)
        if num_hosts in expected:
            assert events == expected[num_hosts], (
                f"{num_hosts} hosts: processed {events} events, the "
                f"committed sweep {expected[num_hosts]}: the simulation "
                f"changed"
            )
        eps = events / wall
        rows.append({
            "num_hosts": num_hosts,
            "num_broadcasts": config.num_broadcasts,
            "events_processed": events,
            "wall": wall,
            "events_per_sec": eps,
        })
        print(f"\n{num_hosts:>5} hosts: {eps:>10,.0f} eps ({events} events)")

    # Batch mode at the largest size: per-seed eps with shared buffers.
    largest = dense_config(sizes[-1])
    start = time.perf_counter()
    batch = run_broadcast_batch(largest, list(BATCH_SEEDS))
    batch_wall = time.perf_counter() - start
    batch_events = sum(r.events_processed for r in batch)
    batch_eps = batch_events / batch_wall
    print(
        f"batch x{len(BATCH_SEEDS)} @ {sizes[-1]} hosts: "
        f"{batch_events} events in {batch_wall:.3f}s = {batch_eps:,.0f} eps"
    )

    report = {
        "scenario": {
            "scheme": "flooding",
            "map_units": 1,
            "seed": 1,
            "broadcasts": "max(2, 3000 // num_hosts)",
        },
        "reps": reps,
        "sweep": rows,
        "batch": {
            "num_hosts": sizes[-1],
            "seeds": list(BATCH_SEEDS),
            "events_processed": batch_events,
            "wall": batch_wall,
            "events_per_sec": batch_eps,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {OUT_PATH}")
