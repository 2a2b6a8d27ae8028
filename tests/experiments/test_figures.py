"""Figure drivers: smoke runs on minimal grids + result container logic."""

import math
from types import SimpleNamespace

import pytest

from repro.experiments.figures import (
    fig01,
    fig02,
    fig05,
    fig07,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
)
from repro.experiments.figures.common import (
    FigureResult,
    SeriesPoint,
    run_panels,
    set_default_executor,
)

TINY = dict(num_broadcasts=2, seed=3)


class TestFigureResult:
    def _result(self):
        result = FigureResult("test", "x")
        result.add("a", SeriesPoint(x=1, re=0.9, srb=0.5, latency=0.01))
        result.add("a", SeriesPoint(x=2, re=0.8, srb=0.6, latency=0.02))
        result.add("b", SeriesPoint(x=1, re=0.7, srb=0.1, latency=0.03, hellos=5))
        return result

    def test_xs_and_values(self):
        result = self._result()
        assert result.xs("a") == [1, 2]
        assert result.values("a", "re") == [0.9, 0.8]
        assert result.values("b", "hellos") == [5.0]

    def test_value_at(self):
        result = self._result()
        assert result.value_at("a", 2, "srb") == 0.6
        with pytest.raises(KeyError):
            result.value_at("a", 99)

    def test_table_renders_all_rows(self):
        table = self._result().table(metrics=("re", "srb"))
        # Title line + column header + 3 data rows.
        assert len(table.splitlines()) == 5
        assert "0.900" in table

    def test_table_handles_nan(self):
        result = FigureResult("t", "x")
        result.add("s", SeriesPoint(x=1, re=math.nan, srb=0.0, latency=0.0))
        assert "nan" in result.table(metrics=("re",))


class TestAnalyticFigures:
    def test_fig01_series(self):
        series = fig01.run(max_k=3, trials=100, seed=1)
        assert set(series) == {1, 2, 3}

    def test_fig02_series(self):
        series = fig02.run(max_n=3, trials=200, seed=1)
        assert set(series) == {1, 2, 3}
        assert abs(sum(series[3].values()) - 1.0) < 1e-9


class TestSimulationFigureSmoke:
    """Each driver runs end to end on a minimal grid."""

    def test_fig05_all_panels(self):
        for driver in (fig05.run_5a, fig05.run_5b, fig05.run_5c, fig05.run_5d):
            result = driver(maps=(1,), **TINY)
            assert result.series

    def test_fig07(self):
        result = fig07.run(maps=(1,), fixed_thresholds=(2,), **TINY)
        assert set(result.series) == {"C=2", "AC"}

    def test_fig09(self):
        result = fig09.run(maps=(1,), pairs=((6, 12),), **TINY)
        assert set(result.series) == {"(6,12)"}

    def test_fig10(self):
        result = fig10.run(maps=(1,), fixed_thresholds=(0.0134,), **TINY)
        assert set(result.series) == {"A=0.0134", "AL"}

    def test_fig11(self):
        panels = fig11.run(
            maps=(5,), speeds=(20.0,), hello_intervals=(1.0,), **TINY
        )
        assert set(panels) == {5}
        assert "hello=1s" in panels[5].series

    def test_fig12(self):
        result = fig12.run(maps=(1,), speeds=(20.0,), **TINY)
        assert "1x1" in result.series
        point = result.series["1x1"][0]
        assert point.hellos > 0

    def test_fig13(self):
        lineup = {"flooding": ("flooding", {}, fig13.SCHEME_LINEUP["flooding"][2])}
        result = fig13.run(maps=(1,), lineup=lineup, **TINY)
        assert set(result.series) == {"flooding"}
        assert result.value_at("flooding", 1, "srb") == 0.0


class TestRunPanels:
    FLOODING = {"flooding": ("flooding", {}, fig13.SCHEME_LINEUP["flooding"][2])}

    def test_panels_run_as_one_batch_in_declaration_order(self):
        batches = []

        class Recorder:
            def run_many(self, configs):
                batches.append(list(configs))
                return [
                    SimpleNamespace(re=c.map_units / 10, srb=0.0,
                                    latency=0.0, hellos=0)
                    for c in configs
                ]

        panels = fig11.declare(
            maps=(5, 9), speeds=(20.0,), hello_intervals=(1.0, 10.0), **TINY
        ) + fig13.declare(maps=(1,), lineup=self.FLOODING, **TINY)
        previous = set_default_executor(Recorder())
        try:
            results = run_panels(panels)
        finally:
            set_default_executor(previous)
        assert len(batches) == 1
        assert len(batches[0]) == 2 + 2 + 1
        assert [r.figure for r in results] == [p.title for p in panels]
        assert results[0].values("hello=10s") == [0.5]
        assert results[1].values("hello=1s") == [0.9]
        assert results[2].values("flooding") == [0.1]

    def test_inline_runner_simulates_a_shared_run_once(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        simulated = []
        real = parallel_mod.run_broadcast_simulation

        def counting(config):
            simulated.append(config)
            return real(config)

        monkeypatch.setattr(parallel_mod, "run_broadcast_simulation", counting)
        panel = fig13.declare(maps=(1,), lineup=self.FLOODING, **TINY)
        first, second = run_panels(panel + panel)
        assert len(simulated) == 1
        assert first.series == second.series
