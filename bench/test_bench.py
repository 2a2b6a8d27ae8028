"""Checks on the benchmark itself.  Run from the repository root with
``python -m pytest bench -q`` (outside the tier-1 ``testpaths``)."""

import json
import math
import re
import subprocess
import sys
import time

import pytest

import run

run.use_checkout_source()

# These need the checkout's src/ on the path.
import spans  # noqa: E402
from repro.experiments.runner import run_broadcast_simulation  # noqa: E402
from repro.sim.engine import Scheduler  # noqa: E402
from workloads import SLICE_S, WORKLOADS, BenchExecutor, fingerprint  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _bench(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=timeout,
    )


def test_traced_and_sliced_passes_restore_every_patched_attribute():
    targets = {(cls, name) for _, cls, name in spans.patch_targets()}
    before = {(cls, name): vars(cls)[name] for cls, name in targets}
    scheduler_run = vars(Scheduler)["run"]
    bench = run.WorkloadBench("storm-flood-1x1", 3, quick=True)
    tracer = spans.SpanTracer()
    with tracer.installed():
        patched = tracer.patched
        assert {(cls, name) for cls, name, _ in patched} >= targets
        bench.run_pass(tracer)
    assert tracer.patched == []
    first = {}  # a site wrapped twice records the first wrapper too
    for cls, name, original in patched:
        first.setdefault((cls, name), original)
    for (cls, name), original in first.items():
        assert vars(cls)[name] is original, f"{cls.__name__}.{name} not restored"
    for (cls, name), original in before.items():
        assert vars(cls)[name] is original
    runs = bench.run_pass()  # untraced passes slice Scheduler.run
    assert runs is not None and all(run_.timeline.segments for run_ in runs)
    assert vars(Scheduler)["run"] is scheduler_run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_replays_untraced_fingerprints(name):
    bench = run.WorkloadBench(name, 3, quick=True)
    bench.timed_pass()  # the seed's reference
    reference = bench.reference
    bench.traced_pass()
    assert bench.failed == 0
    assert bench.reference == reference
    assert len(bench.traced) == 1
    assert bench.traced[0].calls["sim"] > 0


def test_sliced_run_replays_one_call():
    config = WORKLOADS["hello-ac-1x1"].configs(3, quick=True)[0]
    plain = BenchExecutor(run_broadcast_simulation)
    sliced = BenchExecutor(run_broadcast_simulation, sliced=True)
    plain.run_many([config])
    sliced.run_many([config])
    result = sliced.runs[0].result
    assert fingerprint(result) == fingerprint(plain.runs[0].result)
    assert result.perf == plain.runs[0].result.perf
    # World build, the event-loop slices, summary; a reference loop between each.
    timeline = sliced.runs[0].timeline
    assert len(timeline.segments) == math.ceil(result.end_time / SLICE_S) + 2
    assert len(timeline.probes) == len(timeline.segments) + 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_run_emits_exactly_the_declared_metrics(trace):
    spec = run.load_spec()
    done = _bench("--workload", "hello-ac-1x1", "--seed", "4", "--seconds", "0",
                  "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == declared
    assert all(NAME.match(name) for name in doc["metrics"])


def test_quick_suite_is_fast_and_names_are_well_formed(tmp_path):
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    done = _bench("--quick", "--seed", "2", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 30.0, f"--quick took {elapsed:.1f} s"
    doc = json.loads(out.read_text())
    assert doc["correct"] and set(doc["workloads"]) == set(WORKLOADS)
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in doc["workloads"].values():
        assert entry["failed"] == 0
        assert {m["name"] for m in spec["end_to_end"]} <= set(entry["end_to_end"])
        assert {m["name"] for m in spec["per_layer"]} <= set(entry["per_layer"])
        for name in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert NAME.match(name), name


def test_compare_fails_only_on_a_worse_metric(tmp_path):
    def sample(value, spread=0.02):
        return {"value": value, "q1": value * (1 - spread / 2), "median": value,
                "q3": value * (1 + spread / 2), "n": 9}

    def doc(events_per_sec, spread=0.02):
        end_to_end = {
            "events_per_sec": sample(events_per_sec, spread),
            "setup_s": sample(0.005),
            "peak_rss_mb": sample(45.0, 0.0),
            "failed_runs": sample(0.0, 0.0),
        }
        return {"workloads": {"storm-flood-1x1": {"end_to_end": end_to_end}}}

    paths = {}
    for name, d in (("base", doc(50000.0)), ("same", doc(49000.0)),
                    ("slow", doc(30000.0)), ("noisy", doc(30000.0, spread=0.5))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(d))
    assert _bench("compare", str(paths["base"]), str(paths["same"])).returncode == 0
    done = _bench("compare", str(paths["base"]), str(paths["slow"]))
    assert done.returncode == 1
    assert "worse" in done.stdout
    done = _bench("compare", str(paths["base"]), str(paths["noisy"]))
    assert done.returncode == 0
    assert "unresolved" in done.stdout
