#!/usr/bin/env python3
"""Paper-workload benchmark for the repro-manet simulator.

Run from the repository root; the simulator is imported from ``src/``.

One workload for a fixed time (the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``)::

    python3 bench/run.py --workload storm-flood-1x1 --seed 1 --seconds 15 --trace 0

All five workloads, timed reps interleaved round-robin, then traced
passes, with every metric printed and written to a result file
(optionally appended to a bench history that ``repro-manet bench check``
reads)::

    python3 bench/run.py --seed 1 --out RESULT.json [--history bench/history.jsonl]

Compare two result files against the bounds in ``BENCHMARK.json``
(exits 1 on any worse verdict)::

    python3 bench/run.py compare A.json B.json

Span shares beside cProfile ``tottime`` shares on one workload::

    python3 bench/run.py --crosscheck hello-ac-1x1

``--quick`` shrinks every workload to one world of 5 broadcasts per
scenario (Fig. 13: the 9x9 map only) and one rep, for smoke tests; the
warm-up pass of every run is this variant.  ``python3 bench/run.py golden``
rewrites ``bench/golden.json`` from seeds 1 and 2.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = BENCH_DIR / "golden.json"
GOLDEN_SEEDS = (1, 2)

#: Layers in report order; ``experiments`` is the root span around each
#: ``run_broadcast_simulation`` call (world build, traffic set-up and the
#: runner's own glue).
LAYERS = (
    "experiments", "sim", "phy", "mac", "net", "net.neighbors", "schemes",
    "geometry", "mobility", "metrics", "faults",
)

#: Least timed passes per single-workload run, however short ``--seconds``:
#: the wall estimate takes each slice's median over the passes.
MIN_PASSES = 3
#: Timed reps and traced passes per workload in a suite run.
SUITE_REPS = 9
SUITE_TRACED_PASSES = 3
#: Least set-up samples per single-workload run: single builds, or
#: whole-pass build sums for a multi-scenario workload.
SETUP_SAMPLES_SINGLE = 50
SETUP_SAMPLES_PASS = 9
#: A single-workload run starts no new pass after this many seconds.
TIME_BUDGET_S = 140.0


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), interpolated inside the data."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def metric(value: float, unit: str, q1: float = None, median: float = None,
           q3: float = None, n: int = 1) -> dict:
    """A reported value with the quartiles and count of its samples."""
    return {
        "value": value,
        "unit": unit,
        "q1": value if q1 is None else q1,
        "median": value if median is None else median,
        "q3": value if q3 is None else q3,
        "n": n,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process image (``VmHWM``), in MiB.

    Not ``ru_maxrss``: Linux carries that across fork and exec, so a
    process started by a large parent reports the parent's peak.
    """
    try:
        status = Path("/proc/self/status").read_text(encoding="ascii")
    except OSError:  # not Linux
        from repro.telemetry.resources import peak_rss_bytes

        return peak_rss_bytes() / 2**20
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


class TracedPass(NamedTuple):
    """One traced pass; times are host seconds at the reference speed."""

    wall: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    ns_per_span: float


class WorkloadBench:
    """Every measurement of one workload in this process."""

    def __init__(self, name: str, seed: int, quick: bool = False) -> None:
        from workloads import WORKLOADS

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.quick = quick
        self.configs = self.workload.configs(seed, quick)
        golden = {} if quick else json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        #: Fingerprints every pass must reproduce: golden for seeds 1
        #: and 2, else those of the first complete pass.
        self.reference = golden.get(name, {}).get(str(seed))
        self.golden = self.reference is not None
        self.attempted = 0
        self.failed = 0
        self.passes: List[list] = []  # timed passes: one ``workloads.Run`` per scenario
        self.events: List[int] = []
        self.perf = None
        #: Set-up rounds; a round holds samples, a sample one timeline
        #: per scenario.
        self.setup: List[List[list]] = []
        self.traced: List[TracedPass] = []
        self.rss_mb: Optional[float] = None
        self.last_pass_s = 0.0

    @property
    def setup_round_size(self) -> int:
        """Set-up samples per round, one round per timed pass: at least
        the ``SETUP_SAMPLES_*`` total over ``MIN_PASSES`` rounds."""
        total = SETUP_SAMPLES_PASS if len(self.configs) > 1 else SETUP_SAMPLES_SINGLE
        return math.ceil(total / MIN_PASSES)

    def warm_up(self) -> None:
        """Imports and lazy set-up: one untimed, unchecked pass of the
        workload's ``--quick`` variant."""
        from repro.experiments.runner import run_broadcast_simulation
        from workloads import BenchExecutor

        try:
            self.workload.run(BenchExecutor(run_broadcast_simulation), self.seed, quick=True)
        except Exception:  # the checked passes count the failure
            traceback.print_exc(file=sys.stderr)

    def run_pass(self, tracer=None, sliced: bool = True) -> Optional[list]:
        """One checked pass; its runs, or ``None`` if any run failed or
        missed its fingerprint."""
        from repro.experiments.runner import run_broadcast_simulation
        from workloads import BenchExecutor, fingerprint

        gc.collect()
        call = run_broadcast_simulation
        if tracer is not None:
            call = tracer.wrap("experiments", run_broadcast_simulation)
        executor = BenchExecutor(call, sliced=sliced)
        t0 = time.perf_counter()
        try:
            self.workload.run(executor, self.seed, self.quick)
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
        self.last_pass_s = time.perf_counter() - t0
        prints = [fingerprint(run.result) for run in executor.runs]
        if self.reference is None and len(prints) == len(self.configs):
            self.reference = prints
        matched = sum(a == b for a, b in zip(prints, self.reference or []))
        self.attempted += len(self.configs)
        self.failed += len(self.configs) - matched
        if matched != len(self.configs):
            print(f"{self.name}: {len(self.configs) - matched} run(s) failed "
                  "or missed their fingerprint", file=sys.stderr)
            return None
        if self.perf is None:
            from repro.perf import KernelPerf

            self.events = [run.result.events_processed for run in executor.runs]
            self.perf = KernelPerf()
            for run in executor.runs:
                self.perf.merge(run.result.perf)
        return executor.runs

    def timed_pass(self) -> None:
        """A pass whose times count; peak RSS is read after the first."""
        runs = self.run_pass()
        if runs is not None:
            self.passes.append(runs)
            if self.rss_mb is None:
                self.rss_mb = peak_rss_mb()

    def setup_round(self) -> None:
        """Set-up timed :attr:`setup_round_size` times back to back, each
        sample over all the pass's scenarios.

        Each sample starts from a collected heap: otherwise where the
        collector's thresholds fall inside a build varies from sample to
        sample, and so does its time (per-sample IQR/median on
        ``storm-flood-1x1``: 25% without, 3.5% with).
        """
        from workloads import time_setup

        samples = []
        for _ in range(self.setup_round_size):
            gc.collect()
            samples.append([time_setup(config) for config in self.configs])
        self.setup.append(samples)

    def traced_pass(self) -> None:
        """A pass with every layer's spans installed.

        It is sliced like a timed pass, and its span times are scaled by
        the pass's mean slowdown (scaled over raw segment seconds).  The
        reference loops timed inside each run ran in its root span, so
        they are taken out of ``experiments``.
        """
        from spans import SpanTracer

        tracer = SpanTracer()
        with tracer.installed():
            runs = self.run_pass(tracer)
        if runs is None:
            return
        timelines = [run.timeline for run in runs]
        scaled = sum(sum(t.scaled()) for t in timelines)
        factor = scaled / sum(sum(t.segments) for t in timelines)
        self_s = tracer.self_seconds(self.perf.events_scheduled)
        self_s["experiments"] -= sum(sum(t.probes[1:-1]) for t in timelines)
        self.traced.append(TracedPass(
            wall=scaled,
            self_s={layer: s * factor for layer, s in self_s.items()},
            calls=tracer.calls(),
            ns_per_span=tracer.ns_per_span * factor,
        ))

    # ------------------------------------------------------------ metrics

    def wall(self) -> Tuple[float, float, float, float]:
        """Pass wall as (estimate, q1, median, q3), at the reference speed.

        Every pass replays the identical, fingerprint-checked computation,
        so what varies between passes is the machine.  Each segment of a
        run (world build, event-loop slice, summary) is scaled by the
        machine's speed around it (``workloads.Timeline.scaled``); the
        estimate sums, per scenario and segment, the median of the scaled
        times over passes.  The quartiles are of the passes' scaled walls.
        """
        scaled = [[run.timeline.scaled() for run in runs] for runs in self.passes]
        estimate = 0.0
        for scenario in zip(*scaled):  # one scenario's segments, every pass
            estimate += sum(map(statistics.median, zip(*scenario)))
        walls = [sum(map(sum, runs)) for runs in scaled]
        return (estimate,) + quartiles(walls)

    def setup_seconds(self) -> List[float]:
        """Each set-up round's median, scaled like :meth:`wall`'s segments
        (with set-up's own exponent)."""
        from workloads import SETUP_SLOWDOWN_EXPONENT

        return [
            statistics.median(
                sum(sum(t.scaled(SETUP_SLOWDOWN_EXPONENT)) for t in sample) for sample in rnd)
            for rnd in self.setup
        ]

    def end_to_end(self) -> Dict[str, dict]:
        n = len(self.passes)
        estimate, q1, med, q3 = self.wall()
        events = sum(self.events)
        setup_q1, setup_med, setup_q3 = quartiles(self.setup_seconds())
        return {
            "wall_s": metric(estimate, "s", q1, med, q3, n),
            "events_per_sec": metric(
                events / estimate, "events/s", events / q3, events / med, events / q1, n),
            "setup_s": metric(setup_med, "s", setup_q1, setup_med, setup_q3, len(self.setup)),
            "peak_rss_mb": metric(self.rss_mb, "MB"),
            "failed_runs": metric(self.failed / self.attempted, "fraction"),
        }

    def per_layer(self) -> Dict[str, dict]:
        traced = self.traced
        n = len(traced)

        def over_passes(values: List[float], unit: str) -> dict:
            q1, med, q3 = quartiles(values)
            return metric(med, unit, q1, med, q3, n)

        out: Dict[str, dict] = {}
        names = list(LAYERS) + sorted(
            {layer for t in traced for layer in t.self_s} - set(LAYERS))
        for layer in names:
            out[f"{layer}.self_s"] = over_passes([t.self_s.get(layer, 0.0) for t in traced], "s")
            out[f"{layer}.calls"] = metric(traced[0].calls.get(layer, 0), "count")
        perf = self.perf
        received = perf.deliveries + perf.frames_corrupted
        out.update({
            "sim.events": metric(perf.events_processed, "count"),
            "sim.cancelled_ratio": metric(
                perf.events_cancelled / perf.events_scheduled, "ratio"),
            "phy.transmissions": metric(perf.transmissions, "count"),
            "phy.useful_rx_ratio": metric(
                perf.deliveries / received if received else 0.0, "ratio"),
            "mac.backoffs": metric(perf.backoffs_started, "count"),
            "net.neighbors.hello_updates": metric(perf.hello_updates, "count"),
            "net.neighbors.expirations": metric(perf.neighbor_expirations, "count"),
            "mobility.pos_hit_rate": metric(perf.pos_hit_rate, "ratio"),
            "mobility.batch_evals": metric(perf.pos_batch_evals, "count"),
        })
        untraced = self.wall()[0]
        out["spans.ns_per_span"] = over_passes([t.ns_per_span for t in traced], "ns")
        out["spans.overhead_ratio"] = over_passes([t.wall / untraced for t in traced], "ratio")
        out["spans.coverage"] = over_passes(
            [sum(t.self_s.values()) / untraced for t in traced], "ratio")
        return out


# ---------------------------------------------------------------- output


def format_metrics(workload: str, metrics: Dict[str, dict]) -> List[str]:
    lines = []
    for name, m in metrics.items():
        lines.append(
            f"  {workload:<18} {name:<28} {m['value']:>14.6g} {m['unit']:<9}"
            f" median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
            f" n={m['n']}"
        )
    return lines


def platform_info() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "nproc": os.cpu_count(),
    }


def run_workload(args: argparse.Namespace) -> int:
    """One workload for ``--seconds``; the last line is the JSON result."""
    spec = load_spec()
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    bench = WorkloadBench(args.workload, args.seed, args.quick)
    start = time.perf_counter()
    bench.warm_up()
    deadline = start + args.seconds
    rounds = 0
    while True:
        bench.timed_pass()
        if args.trace:
            bench.traced_pass()
        else:
            bench.setup_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= (1 if args.trace else MIN_PASSES) and now >= deadline:
            break
        # Keep the whole run inside its time limit on a slow machine.
        if now - start + 6 * bench.last_pass_s > TIME_BUDGET_S:
            break
    correct = bench.failed == 0 and bool(bench.passes) and bool(bench.traced or not args.trace)
    metrics = {}
    if correct:
        computed = bench.per_layer() if args.trace else bench.end_to_end()
        for line in format_metrics(bench.name, computed):
            print(line)
        metrics = {
            name: {"value": computed[name]["value"], "unit": computed[name]["unit"]}
            for name in declared
        }
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def child_rss_mb(name: str, seed: int, quick: bool) -> float:
    """Peak RSS of a fresh process running one pass of ``name``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "rss", name, str(seed)]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_suite(args: argparse.Namespace) -> int:
    """Every workload: warm-up, interleaved timed reps, traced passes."""
    from workloads import WORKLOADS

    reps = 1 if args.quick else SUITE_REPS
    benches = [WorkloadBench(name, args.seed, args.quick) for name in WORKLOADS]
    for bench in benches:
        bench.warm_up()
    for _ in range(reps):
        for bench in benches:
            bench.timed_pass()
            bench.setup_round()
    for bench in benches:
        for _ in range(1 if args.quick else SUITE_TRACED_PASSES):
            bench.traced_pass()
        bench.rss_mb = child_rss_mb(bench.name, args.seed, args.quick)

    doc = {
        "benchmark": "bench/run.py",
        "seed": args.seed,
        "quick": args.quick,
        "reps": reps,
        "platform": platform_info(),
        "workloads": {},
    }
    correct = True
    for bench in benches:
        ok = bench.failed == 0 and bool(bench.passes) and bool(bench.traced)
        correct = correct and ok
        entry = {
            "attempted": bench.attempted,
            "failed": bench.failed,
            "golden": bench.golden,
            "scenarios": len(bench.configs),
        }
        if ok:
            entry["end_to_end"] = bench.end_to_end()
            entry["per_layer"] = bench.per_layer()
            print(f"{bench.name}  ({len(bench.configs)} scenario(s), "
                  f"{'golden' if bench.golden else 'rep-vs-rep'} fingerprints OK)")
            print("\n".join(format_metrics(bench.name, entry["end_to_end"])))
            print("\n".join(format_metrics(bench.name, entry["per_layer"])))
        else:
            entry["end_to_end"] = {
                "failed_runs": metric(bench.failed / max(bench.attempted, 1), "fraction")
            }
            print(f"{bench.name}: FAILED ({bench.failed} of {bench.attempted} runs)")
        doc["workloads"][bench.name] = entry
    doc["correct"] = correct
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    if args.history and correct:
        append_history(doc, args.history, args.out)
    return 0 if correct else 1


def append_history(doc: dict, history: str, source: Optional[str]) -> None:
    """One line in the ``repro.telemetry.bench`` history format."""
    from repro.telemetry.bench import HISTORY_VERSION

    entry = {
        "v": HISTORY_VERSION,
        "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "bench": "paper",
        "source": Path(source).name if source else "bench/run.py",
        "platform": doc["platform"],
        "metrics": {
            f"{name}.{metric_name}": m["value"]
            for name, w in doc["workloads"].items()
            for metric_name, m in w["end_to_end"].items()
        },
    }
    with open(history, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"appended {len(entry['metrics'])} metrics to {history}")


# --------------------------------------------------------------- compare


def verdict(a: dict, b: dict, better: str, bound: float) -> Tuple[float, str]:
    """Relative change of B's value against A's (+ = worse) and its verdict.

    Unresolved when either side's quartile spread, (q3 - q1) / median of
    its samples, is wider than the bound.
    """
    if bound == 0.0:  # failed_runs: any change counts
        change = b["value"] - a["value"]
        return change, "worse" if change > 0 else "better" if change < 0 else "same"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((m["q3"] - m["q1"]) / m["median"] for m in (a, b))
    if spread > bound:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "same"


def run_compare(a_path: str, b_path: str) -> int:
    spec = load_spec()
    bounds = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    bounds.append(("failed_runs", "lower", 0.0))
    a_doc = json.loads(Path(a_path).read_text(encoding="utf-8"))
    b_doc = json.loads(Path(b_path).read_text(encoding="utf-8"))
    print(f"{'workload':<18} {'metric':<15} {'A value (median [q1, q3])':>40} "
          f"{'B value (median [q1, q3])':>40} {'delta':>8} {'bound':>6}  verdict")
    worse = 0
    for workload, a_entry in a_doc["workloads"].items():
        b_entry = b_doc["workloads"].get(workload)
        if b_entry is None:
            print(f"{workload:<18} missing from {b_path}")
            worse += 1
            continue
        for name, better, bound in bounds:
            a = a_entry["end_to_end"].get(name)
            b = b_entry["end_to_end"].get(name)
            if a is None or b is None:
                print(f"{workload:<18} {name:<15} missing")
                worse += 1
                continue
            change, word = verdict(a, b, better, bound)
            worse += word == "worse"
            cells = [f"{m['value']:.5g} ({m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}])"
                     for m in (a, b)]
            print(f"{workload:<18} {name:<15} {cells[0]:>40} {cells[1]:>40} "
                  f"{change:>+8.2%} {bound:>6.0%}  {word}")
    print("FAIL: a metric got worse" if worse else "ok: nothing got worse")
    return 1 if worse else 0


# ------------------------------------------------------------ crosscheck


def _module_of(filename: str) -> Optional[str]:
    """``.../src/repro/mac/csma.py`` -> ``repro.mac.csma``; else ``None``."""
    path = Path(filename)
    if path.suffix != ".py" or SRC not in path.parents:
        return None
    dotted = list(path.relative_to(SRC).with_suffix("").parts)
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def cprofile_layer_shares(stats: dict) -> Dict[str, float]:
    """``tottime`` per layer; time in non-``repro`` code (builtins, numpy)
    goes to its callers' layers in proportion to the time each caused."""
    from spans import layer_of_module

    memo: Dict[tuple, Dict[str, float]] = {}

    def layers_of(func: tuple, depth: int = 0) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        module = _module_of(func[0])
        if module is not None:
            memo[func] = {layer_of_module(module): 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        caused = sum(c[2] for c in callers.values())
        if depth > 8 or caused <= 0:
            return {"other": 1.0}
        memo[func] = {"other": 1.0}  # cycle guard while resolving
        shares: Dict[str, float] = {}
        for caller, c in callers.items():
            for layer, share in layers_of(caller, depth + 1).items():
                shares[layer] = shares.get(layer, 0.0) + share * c[2] / caused
        memo[func] = shares
        return shares

    totals: Dict[str, float] = {}
    for func, (_, _, tottime, _, _) in stats.items():
        for layer, share in layers_of(func).items():
            totals[layer] = totals.get(layer, 0.0) + tottime * share
    whole = sum(totals.values())
    return {layer: t / whole for layer, t in totals.items()}


def run_crosscheck(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    bench = WorkloadBench(args.crosscheck, args.seed, args.quick)
    bench.warm_up()
    bench.traced_pass()
    profile = cProfile.Profile()
    profile.enable()
    try:  # unsliced: no reference loops in the profile
        runs = bench.run_pass(sliced=False)
    finally:
        profile.disable()
    if bench.failed or runs is None or not bench.traced:
        print("crosscheck: a run failed or missed its fingerprint", file=sys.stderr)
        return 1
    selfs = bench.traced[0].self_s
    span_total = sum(selfs.values())
    profiled = cprofile_layer_shares(pstats.Stats(profile).stats)
    print(f"{bench.name} seed {bench.seed}: span self-time share vs cProfile "
          "tottime share by repro package")
    print(f"{'layer':<15} {'spans':>8} {'cProfile':>9} {'diff':>7}")
    for layer in list(LAYERS) + sorted(set(profiled) - set(LAYERS)):
        span_share = selfs.get(layer, 0.0) / span_total
        prof_share = profiled.get(layer, 0.0)
        if max(span_share, prof_share) < 0.0005:
            continue
        print(f"{layer:<15} {span_share:>8.1%} {prof_share:>9.1%} "
              f"{span_share - prof_share:>+7.1%}")
    return 0


def run_golden() -> int:
    """Rewrite ``golden.json`` with each workload's seed-1 and seed-2 fingerprints."""
    from workloads import WORKLOADS, BenchExecutor, fingerprint
    from repro.experiments.runner import run_broadcast_simulation

    golden = {}
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in GOLDEN_SEEDS:
            executor = BenchExecutor(run_broadcast_simulation)
            workload.run(executor, seed)
            golden[name][str(seed)] = [fingerprint(run.result) for run in executor.runs]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


# ------------------------------------------------------------------ main


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Paper-workload benchmark (see the module docstring).")
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="with --workload: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--out", help="suite mode: result file to write")
    parser.add_argument("--history", help="suite mode: bench history to append to")
    parser.add_argument("--crosscheck", metavar="WORKLOAD",
                        help="span shares vs cProfile shares on one workload")
    parser.add_argument("--quick", action="store_true",
                        help="5 broadcasts per scenario, one rep")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return run_compare(argv[1], argv[2])
    try:
        use_checkout_source()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from a repository checkout", file=sys.stderr)
        return 2
    if argv[:1] == ["golden"]:
        return run_golden()
    if argv[:1] == ["rss"]:  # child of the suite: peak RSS of one fresh pass
        bench = WorkloadBench(argv[1], int(argv[2]), quick="--quick" in argv)
        bench.warm_up()
        bench.timed_pass()
        print(bench.rss_mb)
        return 0 if bench.failed == 0 else 1
    args = parse_args(argv)
    from workloads import WORKLOADS

    for name in (args.workload, args.crosscheck):
        if name is not None and name not in WORKLOADS:
            print(f"error: unknown workload {name!r}; choose from "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
    if args.crosscheck:
        return run_crosscheck(args)
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
