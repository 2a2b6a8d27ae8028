"""Reproduction-report generator (smoke on a minimal grid)."""

import pickle
from types import SimpleNamespace

import pytest

from repro.experiments.figures.common import set_default_executor
from repro.experiments.parallel import config_digest
from repro.experiments.report import generate_report


def test_report_contains_every_figure_section():
    progress = []
    report = generate_report(
        maps=(1,), num_broadcasts=2, seed=2, progress=progress.append
    )
    for fig in ("Fig. 1", "Fig. 2", "Fig. 5", "Fig. 7", "Fig. 9",
                "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13"):
        assert fig in report, fig
    # Progress callback saw each stage.
    assert "fig01" in progress and "fig13" in progress
    # Markdown structure: a title and fenced tables.
    assert report.startswith("# Reproduction report")
    assert report.count("```") % 2 == 0
    assert report.count("```") >= 18


def test_report_records_parameters():
    report = generate_report(maps=(1,), num_broadcasts=2, seed=7)
    assert "broadcasts/scenario=2" in report
    assert "maps=[1]" in report


class _CollectingExecutor:
    """Records every batch it is handed and returns stub results."""

    def __init__(self):
        self.batches = []

    def run_many(self, configs):
        self.batches.append(list(configs))
        return [
            SimpleNamespace(re=1.0, srb=0.0, latency=0.0, hellos=0)
            for _ in configs
        ]


def test_every_reduced_report_run_can_be_cached_and_pooled():
    """The report hands its executor every run in one batch; the runs
    the figures share have equal digests, so the runner simulates 99."""
    executor = _CollectingExecutor()
    previous = set_default_executor(executor)
    try:
        generate_report()
    finally:
        set_default_executor(previous)
    assert len(executor.batches) == 1
    (configs,) = executor.batches
    digests = {config_digest(config) for config in configs}
    for config in configs:
        pickle.dumps(config)
    assert len(configs) == 123
    assert len(digests) == 99


def test_main_runs_the_report_on_the_runner_its_flags_ask_for(
    tmp_path, monkeypatch, capsys
):
    """``--jobs`` and ``--cache-dir`` build the figure commands' runner,
    installed only while the report is generated; the body goes to
    stdout and the runner's perf line to stderr."""
    from repro.experiments import report
    from repro.experiments.figures import common

    seen = []

    def fake_generate_report(maps, num_broadcasts, progress):
        seen.append((common._default_executor, maps, num_broadcasts))
        return "BODY"

    monkeypatch.setattr(report, "generate_report", fake_generate_report)
    cache = tmp_path / "cache"
    assert report.main(["--jobs", "2", "--cache-dir", str(cache)]) == 0
    ((runner, maps, n),) = seen
    assert runner.max_workers == 2
    assert runner.cache.directory == cache
    assert (maps, n) == ((1, 5, 9), 30)
    assert common._default_executor is None
    out, err = capsys.readouterr()
    assert out == "BODY\n"
    assert "[perf] runs=0 simulated=0" in err

    assert report.main(["--full"]) == 0
    runner, maps, n = seen[-1]
    assert runner.max_workers == 1 and runner.cache is None
    assert (maps, n) == ((1, 3, 5, 7, 9, 11), 100)


def test_main_rejects_a_negative_worker_count():
    from repro.experiments.report import main

    with pytest.raises(SystemExit, match="--jobs must be >= 0"):
        main(["--jobs", "-1"])
