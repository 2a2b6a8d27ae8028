"""Bench history: record, load, rolling-baseline regression checks."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.bench import (
    check_history,
    flatten_metrics,
    infer_bench_name,
    load_history,
    record_entry,
)

BENCH_DOC = {
    "bench": "microbench scenario",
    "platform": {"python": "3.11", "cpus": 8},
    "scenario": {"hosts": 100},
    "events_per_sec": 40000.0,
    "wall_time": 1.25,
    "sweep": [
        {"N": 100, "speedup": 2.0},
        {"N": 400, "speedup": 3.5},
    ],
    "vector_ok": True,
}


def write_bench(path, doc=BENCH_DOC):
    path.write_text(json.dumps(doc))
    return path


class TestFlatten:
    def test_dotted_paths_and_list_indices(self):
        flat = flatten_metrics(BENCH_DOC)
        assert flat["events_per_sec"] == 40000.0
        assert flat["sweep.0.speedup"] == 2.0
        assert flat["sweep.1.N"] == 400.0

    def test_context_subtrees_and_bools_excluded(self):
        flat = flatten_metrics(BENCH_DOC)
        assert not any(k.startswith("platform") for k in flat)
        assert not any(k.startswith("scenario") for k in flat)
        assert "vector_ok" not in flat

    def test_infer_name(self):
        assert infer_bench_name("BENCH_kernel.json") == "kernel"
        assert infer_bench_name("/x/BENCH_scheme_zoo.json") == "scheme_zoo"
        assert infer_bench_name("other.json") == "other"


class TestRecordAndLoad:
    def test_record_appends_and_loads(self, tmp_path):
        bench = write_bench(tmp_path / "BENCH_kernel.json")
        history = tmp_path / "history.jsonl"
        entry = record_entry(bench, history, timestamp="2026-08-08T00:00:00")
        assert entry["bench"] == "kernel"
        assert entry["v"] == 1
        record_entry(bench, history, timestamp="2026-08-08T01:00:00")
        entries = load_history(history)
        assert len(entries) == 2
        assert entries[0]["metrics"]["events_per_sec"] == 40000.0

    def test_record_rejects_metricless_doc(self, tmp_path):
        bench = write_bench(tmp_path / "b.json", {"platform": {"cpus": 8}})
        with pytest.raises(ValueError, match="no numeric metrics"):
            record_entry(bench, tmp_path / "h.jsonl")

    def test_name_filter(self, tmp_path):
        history = tmp_path / "h.jsonl"
        bench = write_bench(tmp_path / "BENCH_kernel.json")
        record_entry(bench, history)
        record_entry(bench, history, name="other")
        assert len(load_history(history, name="kernel")) == 1
        assert len(load_history(history)) == 2

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_torn_tail_dropped_midfile_corruption_raises(self, tmp_path):
        history = tmp_path / "h.jsonl"
        bench = write_bench(tmp_path / "BENCH_kernel.json")
        record_entry(bench, history)
        with history.open("a") as fh:
            fh.write('{"v": 1, "bench": "kernel", "metr')  # crash mid-append
        assert len(load_history(history)) == 1
        # a complete-but-garbage line *followed by* a valid one is real
        # corruption, not a torn tail, and must raise
        with history.open("a") as fh:
            fh.write("\n")
        record_entry(bench, history)
        with pytest.raises(ValueError, match="corrupt history line"):
            load_history(history)


class TestCheck:
    def _seed(self, tmp_path, values, metric="events_per_sec"):
        history = tmp_path / "h.jsonl"
        for i, v in enumerate(values):
            bench = write_bench(
                tmp_path / "BENCH_kernel.json", {metric: v, "wall_time": 9.9}
            )
            record_entry(bench, history, timestamp=f"2026-08-08T00:0{i}:00")
        return history

    def test_single_entry_passes_bootstrap(self, tmp_path):
        history = self._seed(tmp_path, [100.0])
        report = check_history(history)
        assert report.ok
        assert "no baseline yet" in report.format()

    def test_stable_metrics_pass(self, tmp_path):
        history = self._seed(tmp_path, [100.0, 101.0, 99.0, 100.5])
        report = check_history(history)
        assert report.ok
        assert report.verdicts[0].metric == "events_per_sec"

    def test_regression_fails_and_formats(self, tmp_path):
        history = self._seed(tmp_path, [100.0, 102.0, 98.0, 60.0])
        report = check_history(history, threshold=0.2)
        assert not report.ok
        (verdict,) = report.regressions
        assert verdict.metric == "events_per_sec"
        assert verdict.baseline == 100.0  # median of 100, 102, 98
        assert verdict.change == pytest.approx(-0.4)
        assert "REGRESSED" in report.format()
        assert "FAIL" in report.format()

    def test_median_baseline_shrugs_off_one_noisy_run(self, tmp_path):
        # One crazy-fast outlier must not inflate the baseline and flag
        # a normal follow-up run as a regression.
        history = self._seed(tmp_path, [100.0, 500.0, 101.0, 99.0, 100.0])
        assert check_history(history, threshold=0.2).ok

    def test_window_bounds_the_baseline(self, tmp_path):
        # Old slow entries fall out of a window=2 baseline.
        history = self._seed(tmp_path, [10.0, 10.0, 100.0, 100.0, 95.0])
        assert check_history(history, window=2).ok

    def test_ungated_metrics_never_fail(self, tmp_path):
        history = self._seed(tmp_path, [1.0, 50.0], metric="wall_seconds")
        report = check_history(history)
        assert report.ok
        assert report.verdicts == []

    def test_new_metric_reported_not_failed(self, tmp_path):
        history = tmp_path / "h.jsonl"
        record_entry(
            write_bench(tmp_path / "b.json", {"wall": 1.0}), history
        )
        record_entry(
            write_bench(tmp_path / "b.json", {"wall": 1.0, "speedup": 2.0}),
            history,
        )
        report = check_history(history)
        assert report.ok
        assert report.new_metrics == ["speedup"]

    def test_parameter_validation(self, tmp_path):
        history = self._seed(tmp_path, [100.0])
        with pytest.raises(ValueError, match="threshold"):
            check_history(history, threshold=-0.1)
        with pytest.raises(ValueError, match="window"):
            check_history(history, window=0)


def test_repo_bench_documents_flatten_to_gated_metrics():
    """Every entry of the committed ``bench/history.jsonl`` must carry a
    gated ``events_per_sec`` metric for each benchmark workload,
    otherwise ``bench check`` over it silently checks nothing."""
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    benchmark = json.loads((repo / "BENCHMARK.json").read_text())
    gated = {f"{w['name']}.events_per_sec" for w in benchmark["workloads"]}
    history = repo / "bench" / "history.jsonl"
    entries = load_history(history)
    assert len(entries) >= 2
    for entry in entries:
        assert gated <= set(entry["metrics"]), entry["ts"]
    report = check_history(history)
    assert gated <= {v.metric for v in report.verdicts}
