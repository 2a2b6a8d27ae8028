"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--scheme", "magic"])


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_run_command_prints_summary(capsys):
    exit_code = main(
        [
            "run", "--scheme", "flooding", "--map", "3", "--hosts", "20",
            "--broadcasts", "3", "--seed", "5",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "RE=" in out and "SRB=" in out


def test_run_command_counter_threshold(capsys):
    exit_code = main(
        [
            "run", "--scheme", "counter", "--scheme-param", "threshold=2",
            "--map", "3", "--hosts", "20", "--broadcasts", "3",
        ]
    )
    assert exit_code == 0
    assert "counter@3x3" in capsys.readouterr().out


def test_run_threshold_flags_are_gone():
    """``--scheme-param threshold=N`` replaces them, schema-checked."""
    for flag, value in (("--counter-threshold", "2"),
                        ("--location-threshold", "0.5")):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, value])
    with pytest.raises(SystemExit, match="no parameter 'threshold'"):
        main(["run", "--scheme", "flooding", "--scheme-param", "threshold=3"])


def test_run_command_perf_flag(capsys):
    exit_code = main(
        [
            "run", "--scheme", "flooding", "--map", "3", "--hosts", "20",
            "--broadcasts", "3", "--seed", "5", "--perf",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "events_processed" in out
    assert "pos_hit_rate" in out


def test_run_command_profile_flag(capsys):
    exit_code = main(
        [
            "run", "--scheme", "flooding", "--map", "3", "--hosts", "20",
            "--broadcasts", "3", "--seed", "5", "--profile", "5",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    # cProfile table plus the normal run summary.
    assert "cumulative" in out and "RE=" in out


def test_figure_command_profile_flag(capsys):
    assert main(["figure", "fig01", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "EAC(k)" in out  # analytic figure still renders
    assert "cumulative" in out


def test_figure_fig01(capsys):
    assert main(["figure", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "EAC(k)" in out


def test_figure_fig02(capsys):
    assert main(["figure", "fig02"]) == 0
    assert "cf(n, k)" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [
    ["--maps", "3"], ["--broadcasts", "5"], ["--chart"], ["--csv", "x.csv"],
    ["--jobs", "2"], ["--cache-dir", "fc"],
], ids=lambda flag: flag[0])
@pytest.mark.parametrize("name", ["fig01", "fig02"])
def test_analytic_figures_refuse_simulation_flags(
    tmp_path, monkeypatch, name, flag
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["figure", name, *flag])
    message = str(excinfo.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert flag[0] in message
    assert list(tmp_path.iterdir()) == []  # no CSV, no cache directory


def test_figure_simulation_with_reduced_grid(capsys):
    exit_code = main(
        ["figure", "fig07", "--broadcasts", "2", "--maps", "1"]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Fig. 7" in out
    assert "AC" in out


def test_dynamic_hello_flag(capsys):
    exit_code = main(
        [
            "run", "--scheme", "neighbor-coverage", "--dynamic-hello",
            "--map", "1", "--hosts", "10", "--broadcasts", "2",
        ]
    )
    assert exit_code == 0


def test_sweep_command(capsys, tmp_path):
    json_path = tmp_path / "sweep.json"
    exit_code = main(
        [
            "sweep", "--schemes", "flooding", "--maps", "1",
            "--hosts", "15", "--broadcasts", "2", "--seeds", "1", "2",
            "--json", str(json_path),
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "flooding" in out and "+/-" in out
    import json

    runs = json.loads(json_path.read_text())
    assert len(runs) == 2  # one scheme x one map x two seeds
    assert {r["config"]["seed"] for r in runs} == {1, 2}


def stub_run_many(monkeypatch):
    """Replace the CLI's runner with one that records each batch and
    returns placeholder results instead of simulating."""
    from types import SimpleNamespace

    from repro.experiments.parallel import ParallelRunner

    batches = []

    def run_many(self, configs):
        batches.append(list(configs))
        return [
            SimpleNamespace(re=1.0, srb=0.0, latency=0.0, hellos=0)
            for _ in configs
        ]

    monkeypatch.setattr(ParallelRunner, "run_many", run_many)
    return batches


def test_sweep_runs_the_whole_grid_as_one_batch(capsys, monkeypatch):
    batches = stub_run_many(monkeypatch)
    exit_code = main(
        [
            "sweep", "--schemes", "flooding", "counter", "--maps", "1", "5",
            "--seeds", "1", "2", "--jobs", "2",
        ]
    )
    assert exit_code == 0
    assert len(batches) == 1
    assert [(c.scheme, c.map_units, c.seed) for c in batches[0]] == [
        (scheme, units, seed)
        for scheme in ("flooding", "counter")
        for units in (1, 5)
        for seed in (1, 2)
    ]
    rows = capsys.readouterr().out.splitlines()[1:5]
    assert [row.split()[:2] for row in rows] == [
        ["flooding", "1"], ["flooding", "5"], ["counter", "1"], ["counter", "5"]
    ]


@pytest.mark.parametrize("argv, message", [
    (["run", "--hosts", "0"], "num_hosts must be >= 1"),
    (["run", "--map", "0"], "map_units must be >= 1"),
    (["run", "--broadcasts", "-1"], "num_broadcasts must be >= 0"),
    (["sweep", "--maps", "0"], "map_units must be >= 1"),
    (["figure", "fig13", "--maps", "0"], "map_units must be >= 1"),
    (["figure", "fig13", "--broadcasts", "-1"], "num_broadcasts must be >= 0"),
    (["run", "--trace", "{tmp}/t.jsonl", "--sample-dt", "-1"],
     "sample_dt must be >= 0"),
    (["cache", "prune", "--cache-dir", "{tmp}/d", "--max-bytes", "-5"],
     "max_bytes must be >= 0"),
], ids=[
    "run-hosts", "run-map", "run-broadcasts", "sweep-maps", "figure-maps",
    "figure-broadcasts", "run-sample-dt", "prune-max-bytes",
])
def test_out_of_range_values_end_in_one_error_line(tmp_path, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(tmp=tmp_path) for arg in argv])
    text = str(excinfo.value.code)
    assert text.startswith("error: ") and "\n" not in text
    assert message in text
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_sweep_rejects_duplicate_seeds():
    with pytest.raises(SystemExit, match="duplicate seeds"):
        main(["sweep", "--schemes", "flooding", "--seeds", "1", "1"])


def test_figure_fig11_csv_keeps_every_panel(capsys, monkeypatch, tmp_path):
    batches = stub_run_many(monkeypatch)
    csv_path = tmp_path / "fig11.csv"
    exit_code = main(
        [
            "figure", "fig11", "--maps", "5", "9", "--broadcasts", "1",
            "--csv", str(csv_path),
        ]
    )
    assert exit_code == 0
    assert len(batches) == 1  # both panels in one batch
    assert capsys.readouterr().out.count("wrote") == 1
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("figure,series,km/h")
    assert len(lines) == 1 + 2 * 20  # two panels x 5 intervals x 4 speeds
    panels = {line.split(",")[0] for line in lines[1:]}
    assert panels == {
        "Fig. 11 (5x5): NC vs hello interval",
        "Fig. 11 (9x9): NC vs hello interval",
    }


def test_figure_choices_come_from_the_figure_table():
    from repro.experiments.figures import FIGURES

    for name in FIGURES:
        assert build_parser().parse_args(["figure", name]).name == name


def test_figure_csv_flag(capsys, tmp_path):
    csv_path = tmp_path / "fig.csv"
    exit_code = main(
        [
            "figure", "fig07", "--broadcasts", "2", "--maps", "1",
            "--csv", str(csv_path),
        ]
    )
    assert exit_code == 0
    assert csv_path.exists()
    assert "series" in csv_path.read_text().splitlines()[0]


def test_figure_chart_flag(capsys):
    exit_code = main(
        ["figure", "fig07", "--broadcasts", "2", "--maps", "1", "--chart"]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "(RE)" in out  # the chart title


# --------------------------------------------------- campaigns and cache


SPEC_JSON = """{
  "name": "cli-test",
  "grid": {"scheme": ["flooding"], "seed": [1, 2]},
  "scenario": {"map_units": 1, "num_hosts": 12, "num_broadcasts": 2}
}"""


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(SPEC_JSON)
    return path


def test_campaign_plan_command(capsys, spec_path):
    assert main(["campaign", "plan", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "2 runs" in out
    assert "run-00000" in out and "run-00001" in out


def test_campaign_plan_limit(capsys, spec_path):
    assert main(["campaign", "plan", str(spec_path), "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "run-00000" in out
    assert "run-00001" not in out
    assert "1 more" in out


def test_campaign_plan_bad_spec(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "grid": {"warp": [1]}}')
    with pytest.raises(SystemExit, match="unknown grid axis"):
        main(["campaign", "plan", str(path)])


def test_campaign_run_and_status(capsys, tmp_path, spec_path):
    directory = tmp_path / "camp"
    code = main([
        "campaign", "run", str(spec_path),
        "--dir", str(directory), "--jobs", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "(sim)" in out
    assert "complete: 2 runs" in out
    assert (directory / "results.json").exists()

    assert main(["campaign", "status", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "complete" in out
    assert "100.0%" in out

    # Rerun: everything comes from the campaign's cache.
    assert main([
        "campaign", "run", str(spec_path),
        "--dir", str(directory), "--jobs", "1",
    ]) == 0
    assert "(cache)" in capsys.readouterr().out


def status_fields(text):
    return dict(line.split(None, 1) for line in text.splitlines())


def test_campaign_status_from_another_working_directory(
    capsys, tmp_path, spec_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert main([
        "campaign", "run", str(spec_path), "--dir", "camp",
        "--cache-dir", "cdir/cache", "--quiet",
    ]) == 0
    capsys.readouterr()
    assert main(["campaign", "status", "camp"]) == 0
    here = status_fields(capsys.readouterr().out)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["campaign", "status", str(tmp_path / "camp")]) == 0
    there = status_fields(capsys.readouterr().out)
    assert there["completed_runs"] == here["completed_runs"] == "2"
    assert list(elsewhere.iterdir()) == []


def test_campaign_run_quiet(capsys, tmp_path, spec_path):
    code = main([
        "campaign", "run", str(spec_path),
        "--dir", str(tmp_path / "camp"), "--jobs", "1", "--quiet",
    ])
    assert code == 0
    assert "run-00000" not in capsys.readouterr().out


def test_cache_stats_prune_clear(capsys, tmp_path, spec_path):
    cache_dir = tmp_path / "cache"
    main([
        "campaign", "run", str(spec_path),
        "--dir", str(tmp_path / "camp"), "--jobs", "1", "--quiet",
        "--cache-dir", str(cache_dir),
    ])
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries      2" in out

    assert main([
        "cache", "prune", "--cache-dir", str(cache_dir), "--max-age", "1h",
    ]) == 0
    assert "removed 0 entries" in capsys.readouterr().out

    assert main([
        "cache", "prune", "--cache-dir", str(cache_dir), "--max-bytes", "0",
    ]) == 0
    assert "kept 0" in capsys.readouterr().out

    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert "removed 0 entries" in capsys.readouterr().out


def test_cache_prune_requires_a_bound(tmp_path):
    with pytest.raises(SystemExit, match="prune needs"):
        main(["cache", "prune", "--cache-dir", str(tmp_path)])


def test_parse_size_and_age():
    from repro.cli import parse_age, parse_size

    assert parse_size("1024") == 1024
    assert parse_size("4K") == 4096
    assert parse_size("1.5M") == int(1.5 * 1024 * 1024)
    assert parse_size("2G") == 2 * 1024 ** 3
    assert parse_age("90") == 90.0
    assert parse_age("2m") == 120.0
    assert parse_age("36h") == 36 * 3600.0
    assert parse_age("1w") == 7 * 86400.0
    with pytest.raises(ValueError):
        parse_size("lots")
    with pytest.raises(ValueError):
        parse_age("soon")


def test_schemes_command_lists_registry(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    from repro.schemes import SCHEME_REGISTRY

    for name in SCHEME_REGISTRY:
        assert name in out


def test_schemes_command_verbose_shows_params(capsys):
    assert main(["schemes", "-v"]) == 0
    out = capsys.readouterr().out
    assert "threshold: int = 3" in out
    assert "p: float = 0.7" in out
    assert "sequence: str" in out


def test_run_command_scheme_param(capsys):
    exit_code = main(
        [
            "run", "--scheme", "counter-gossip", "--scheme-param", "p=0.5",
            "--scheme-param", "threshold=5", "--map", "3", "--hosts", "20",
            "--broadcasts", "3",
        ]
    )
    assert exit_code == 0
    assert "counter-gossip@3x3" in capsys.readouterr().out


def test_scheme_param_sequence_coerces():
    from repro.cli import _parse_scheme_params

    assert _parse_scheme_params(
        "adaptive-counter", ["sequence=2-3-4-5"]
    ) == {"sequence": "2-3-4-5"}


def test_run_command_scheme_param_unknown_key():
    with pytest.raises(SystemExit, match="no parameter"):
        main(["run", "--scheme", "gossip", "--scheme-param", "q=0.5"])


def test_run_command_scheme_param_bad_value():
    with pytest.raises(SystemExit, match="p"):
        main(["run", "--scheme", "gossip", "--scheme-param", "p=high"])
    with pytest.raises(SystemExit, match="<= 1"):
        main(["run", "--scheme", "gossip", "--scheme-param", "p=1.5"])
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        main(["run", "--scheme", "gossip", "--scheme-param", "p0.5"])
    with pytest.raises(SystemExit, match="sequence must be integers"):
        main(["run", "--scheme", "adaptive-counter",
              "--scheme-param", "sequence=2-x"])
    with pytest.raises(SystemExit, match="n1 < n2"):
        main(["run", "--scheme", "adaptive-counter",
              "--scheme-param", "n1=8", "--scheme-param", "n2=4"])


def test_sweep_command_scheme_param(capsys):
    exit_code = main(
        [
            "sweep", "--schemes", "gossip", "--scheme-param", "p=0.8",
            "--maps", "1", "--hosts", "20", "--broadcasts", "3",
        ]
    )
    assert exit_code == 0
    assert "gossip" in capsys.readouterr().out


def test_sweep_command_scheme_param_must_fit_every_scheme():
    with pytest.raises(SystemExit, match="flooding"):
        main(
            [
                "sweep", "--schemes", "gossip", "flooding",
                "--scheme-param", "p=0.8", "--maps", "1",
            ]
        )


# ------------------------------------------------------- bench and telemetry


def _write_bench(tmp_path, events_per_sec):
    import json

    path = tmp_path / "BENCH_kernel.json"
    path.write_text(json.dumps({
        "bench": "kernel",
        "platform": {"cpus": 4},
        "events_per_sec": events_per_sec,
        "wall_time": 1.0,
    }))
    return path


def test_bench_record_and_check_pass(capsys, tmp_path):
    history = tmp_path / "bench_history.jsonl"
    bench = _write_bench(tmp_path, 1000.0)
    assert main([
        "bench", "record", str(bench), "--history", str(history),
    ]) == 0
    assert "recorded 'kernel'" in capsys.readouterr().out
    assert main([
        "bench", "record", str(bench), "--history", str(history),
    ]) == 0
    capsys.readouterr()

    assert main(["bench", "check", "--history", str(history)]) == 0
    out = capsys.readouterr().out
    assert "events_per_sec" in out
    assert "ok: no gated metric regressed" in out


def test_bench_check_fails_on_regression(capsys, tmp_path):
    history = tmp_path / "bench_history.jsonl"
    for value in (1000.0, 1010.0, 990.0):
        main([
            "bench", "record", str(_write_bench(tmp_path, value)),
            "--history", str(history),
        ])
    capsys.readouterr()
    # 50% drop against a ~1000 median baseline: gate must exit non-zero.
    main([
        "bench", "record", str(_write_bench(tmp_path, 500.0)),
        "--history", str(history),
    ])
    assert main(["bench", "check", "--history", str(history)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert "FAIL" in out


def test_bench_record_missing_file_exits(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "bench", "record", str(tmp_path / "nope.json"),
            "--history", str(tmp_path / "h.jsonl"),
        ])


def test_campaign_run_resources_flag(capsys, tmp_path, spec_path):
    import json

    directory = tmp_path / "camp"
    assert main([
        "campaign", "run", str(spec_path),
        "--dir", str(directory), "--jobs", "1", "--quiet", "--resources",
    ]) == 0
    payload = json.loads((directory / "results.json").read_text())
    assert payload["resources"]["runs_sampled"] == 2
    assert payload["resources"]["peak_rss_bytes"] > 0
