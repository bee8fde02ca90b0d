"""Phase-timing hook (``REPRO_PROFILE``) unit and wiring tests."""

import pytest

from repro.runtime import profile
from repro.runtime.profile import PROFILE_ENV


@pytest.fixture(autouse=True)
def _clean_totals():
    profile.reset()
    yield
    profile.reset()


class TestKnob:
    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert not profile.enabled()

    @pytest.mark.parametrize("raw", ["", "0", "off", "no", "false"])
    def test_false_values(self, raw, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert not profile.enabled()

    @pytest.mark.parametrize("raw", ["1", "on", "yes", "TRUE"])
    def test_true_values(self, raw, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert profile.enabled()

    def test_garbage_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "maybe")
        with pytest.raises(ValueError, match=PROFILE_ENV):
            profile.enabled()


class TestAccounting:
    def test_phase_accumulates_when_enabled(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        with profile.phase("engine"):
            pass
        with profile.phase("engine"):
            pass
        totals = profile.snapshot()
        assert totals["engine"] >= 0.0
        assert set(totals) == {"engine"}

    def test_phase_is_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        with profile.phase("engine"):
            pass
        assert profile.snapshot() == {}

    def test_delta_since_reports_only_new_time(self, monkeypatch):
        profile.record("trace", 1.0)
        base = profile.snapshot()
        profile.record("trace", 0.5)
        profile.record("compile", 0.25)
        delta = profile.delta_since(base)
        assert delta["trace"] == pytest.approx(0.5)
        assert delta["compile"] == pytest.approx(0.25)

    def test_format_orders_canonical_phases_first(self):
        text = profile.format_phases(
            {"aggregate": 0.5, "zeta": 0.25, "trace": 1.0})
        assert text == "trace=1.000s aggregate=0.500s zeta=0.250s"

    def test_emit_cell_writes_stderr(self, capsys):
        profile.emit_cell("DualBlockEngine/gcc", {"engine": 0.125})
        err = capsys.readouterr().err
        assert err == "[profile] DualBlockEngine/gcc: engine=0.125s\n"

    def test_emit_cell_appends_tags(self, capsys):
        profile.emit_cell("DualBlockEngine/gcc", {"engine": 0.125},
                          {"front": "hit"})
        err = capsys.readouterr().err
        assert err == \
            "[profile] DualBlockEngine/gcc: engine=0.125s front=hit\n"


class TestSweepReportWiring:
    def test_sweep_report_carries_phase_seconds(self, monkeypatch):
        from repro.runtime.resilience import run_resilient

        monkeypatch.setenv(PROFILE_ENV, "1")

        def cell(x):
            with profile.phase("engine"):
                return x * 2

        result = run_resilient(cell, [1, 2, 3], jobs=1, label=None)
        assert result.results == [2, 4, 6]
        assert "engine" in result.report.phase_seconds
        assert "phases:" in result.report.summary()

    def test_report_empty_when_profiling_off(self, monkeypatch):
        from repro.runtime.resilience import run_resilient

        monkeypatch.delenv(PROFILE_ENV, raising=False)
        result = run_resilient(lambda x: x, [1], jobs=1, label=None)
        assert result.report.phase_seconds == {}
        assert "phases:" not in result.report.summary()


def test_cell_lines_report_front_reuse(monkeypatch, capsys):
    """A config differing only in #STs replays the previous cell's front."""
    from repro.core import EngineConfig, fast
    from repro.icache import CacheGeometry
    from repro.runtime.executor import SuiteSpec, _run_engine_cell

    monkeypatch.setenv(PROFILE_ENV, "1")
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    fast.clear_front_cache()
    geometry = CacheGeometry.normal(8)
    for n_st in (1, 2):
        spec = SuiteSpec("int", EngineConfig(geometry=geometry,
                                             n_select_tables=n_st), 6_000)
        _run_engine_cell((spec, "compress"))
    lines = capsys.readouterr().err.splitlines()
    assert [line.rsplit(" ", 1)[1] for line in lines] == \
        ["front=miss", "front=hit"]


def test_worker_cells_report_to_the_parent(monkeypatch, capsys):
    """Two workers: one line per cell, engine time in the report."""
    from repro.core import EngineConfig
    from repro.icache import CacheGeometry
    from repro.runtime.executor import (SuiteSpec, _suite_names,
                                        run_suite_specs)
    from repro.runtime.resilience import drain_reports

    monkeypatch.setenv(PROFILE_ENV, "1")
    drain_reports()
    spec = SuiteSpec("int", EngineConfig(geometry=CacheGeometry.normal(8)),
                     3_000)
    run_suite_specs([spec], jobs=2, label="profiled")
    report, = drain_reports()
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("[profile]")]
    assert report.jobs == 2
    assert len(lines) == len(_suite_names("int")) == report.n_cells
    assert report.phase_seconds["engine"] > 0
