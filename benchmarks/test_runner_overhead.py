"""Runner cost: a single-worker runner must stay within 5% of a bare run.

:class:`~repro.experiments.parallel.ParallelRunner` wraps every run in
bookkeeping (perf counters, the kernel-counter merge) on top of the
always-on :class:`~repro.telemetry.resources.ResourceMonitor` bracketing
that every run pays (two getrusage / gc snapshots).  All of it is per
*run*, never per event.  This benchmark runs interleaved CPU-time pairs
of the microbench scenario, bare ``run_broadcast_simulation`` against a
single-worker ``ParallelRunner`` without a cache, and asserts on the
lower of two estimators -- the **median per-pair ratio** and the
**ratio of per-arm minima** -- the same noise armour as
``benchmarks/test_trace_overhead.py``: a leaked hot-path cost moves both
estimators, shared-machine spikes flake neither.  Attempts over the
ceiling are remeasured (noise is transient; regressions are not).
"""

import time

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import run_broadcast_simulation

#: Allowed fractional slowdown of the runner over a bare run.
MAX_OVERHEAD = 0.05
#: Interleaved pairs per attempt.
REPS = 5
#: Measurement attempts before the ceiling verdict is final.
ATTEMPTS = 3


def config():
    # The microbench scenario (benchmarks/test_microbench.py's
    # end-to-end flooding run).
    return ScenarioConfig(
        scheme="flooding",
        map_units=3,
        num_hosts=50,
        num_broadcasts=10,
        seed=5,
    )


def timed(fn):
    start = time.process_time()
    out = fn()
    return time.process_time() - start, out


def measure(label, baseline_arm, candidate_arm):
    """One attempt: REPS interleaved pairs -> fractional overhead."""
    base_cpus, cand_cpus = [], []
    for _ in range(REPS):
        base_cpu, _ = timed(baseline_arm)
        cand_cpu, _ = timed(candidate_arm)
        base_cpus.append(base_cpu)
        cand_cpus.append(cand_cpu)

    ratios = sorted(c / b for c, b in zip(cand_cpus, base_cpus))
    median = ratios[len(ratios) // 2]
    best_of = min(cand_cpus) / min(base_cpus)
    overhead = min(median, best_of) - 1.0
    print(
        f"\n{label} overhead: {overhead:+.1%} "
        f"(median pair ratio {median - 1:+.1%}, ratio of minima "
        f"{best_of - 1:+.1%}; {len(ratios)} interleaved CPU-time pairs: "
        + ", ".join(f"{r - 1:+.1%}" for r in ratios)
        + ")"
    )
    return overhead


def test_runner_overhead_is_bounded():
    cfg = config()
    runner = ParallelRunner(max_workers=1)

    run_broadcast_simulation(cfg)  # warm both paths before timing
    runner.run_many([cfg])

    overhead = float("inf")
    for attempt in range(ATTEMPTS):
        overhead = min(
            overhead,
            measure(
                "runner",
                lambda: run_broadcast_simulation(cfg),
                lambda: runner.run_many([cfg]),
            ),
        )
        if overhead <= MAX_OVERHEAD:
            break
        print(f"over ceiling on attempt {attempt + 1}; remeasuring")
    assert overhead <= MAX_OVERHEAD, (
        f"runner costs {overhead:+.1%} "
        f"(ceiling {MAX_OVERHEAD:.0%}, best of {ATTEMPTS} attempts); the "
        "runner's bookkeeping is probably doing per-event work"
    )
