"""Sweep executor: job parsing, order preservation, parallel == serial."""

import os

import pytest

from repro.core import EngineConfig
from repro.icache import CacheGeometry
from repro.runtime.executor import (
    JOBS_ENV,
    SuiteSpec,
    count_from_env,
    execute,
    n_jobs,
    run_suite_specs,
    unpicklable_reason,
)

BUDGET = 5_000


def _square(x):
    """Top-level worker so it pickles into pool processes."""
    return x * x


class TestNJobs:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert n_jobs() == 1
        assert n_jobs(default=7) == 7

    def test_empty_uses_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "  ")
        assert n_jobs() == 1

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert n_jobs() == 4

    @pytest.mark.parametrize("value", ["auto", "0", "AUTO"])
    def test_auto_maps_to_cpu_count(self, monkeypatch, value):
        monkeypatch.setenv(JOBS_ENV, value)
        assert n_jobs() == (os.cpu_count() or 1)

    def test_garbage_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError, match=JOBS_ENV):
            n_jobs()

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-2")
        with pytest.raises(ValueError, match=JOBS_ENV):
            n_jobs()

    @pytest.mark.parametrize("value", ["lots", "-1"])
    def test_shared_parser_names_any_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SOME_COUNT", value)
        with pytest.raises(ValueError, match="REPRO_SOME_COUNT"):
            count_from_env("REPRO_SOME_COUNT")


class TestExecute:
    def test_serial_map_preserves_order(self):
        assert execute(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        cells = list(range(20))
        assert execute(_square, cells, jobs=4) == \
            execute(_square, cells, jobs=1)

    def test_unpicklable_work_falls_back_to_serial(self):
        double = lambda x: 2 * x  # noqa: E731 — deliberately unpicklable
        with pytest.warns(RuntimeWarning, match="not picklable"):
            assert execute(double, [1, 2, 3], jobs=4) == [2, 4, 6]

    def test_empty_cells(self):
        assert execute(_square, [], jobs=4) == []


class TestUnpicklableReason:
    def test_picklable_work_has_no_reason(self):
        assert unpicklable_reason(_square, [1, 2, 3]) is None

    def test_unpicklable_function_is_named(self):
        double = lambda x: 2 * x  # noqa: E731
        reason = unpicklable_reason(double, [1])
        assert reason is not None
        assert "lambda" in reason and "not picklable" in reason

    def test_unpicklable_cell_is_indexed(self):
        cells = [1, lambda: None, 3]  # noqa: E731
        reason = unpicklable_reason(_square, cells)
        assert reason is not None
        assert "cell 1" in reason


class TestSuiteSpecs:
    @pytest.fixture(scope="class")
    def spec(self):
        return SuiteSpec(suite="int",
                         config=EngineConfig(
                             geometry=CacheGeometry.normal(8)),
                         budget=BUDGET)

    def test_parallel_aggregate_identical_to_serial(self, spec,
                                                    monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        serial, = run_suite_specs([spec])
        monkeypatch.setenv(JOBS_ENV, "4")
        parallel, = run_suite_specs([spec])
        assert parallel.n_instructions == serial.n_instructions
        assert parallel.fetch_cycles == serial.fetch_cycles
        assert parallel.penalty_cycles == serial.penalty_cycles
        assert list(parallel.per_program) == list(serial.per_program)
        for name, stats in serial.per_program.items():
            assert parallel.per_program[name] == stats

    def test_batch_order_matches_spec_order(self, spec):
        fp_spec = SuiteSpec(suite="fp", config=spec.config, budget=BUDGET)
        int_agg, fp_agg = run_suite_specs([spec, fp_spec], jobs=1)
        from repro.workloads import SPECFP95, SPECINT95

        assert list(int_agg.per_program) == SPECINT95
        assert list(fp_agg.per_program) == SPECFP95


def test_serial_fig8_resolves_one_front_per_program_and_history():
    """Program-major order: each (program, GHR) front misses once."""
    from repro.core import fast
    from repro.experiments.fig8 import DEFAULT_HISTORY, run_fig8
    from repro.workloads import SPEC95

    fast.clear_front_cache()
    hits, misses = fast.front_lookups()
    run_fig8(budget=2_000, jobs=1)
    new_hits, new_misses = fast.front_lookups()
    # One walk front per (program, history length), plus one RAS
    # replay per program (the RAS does not depend on the history).
    assert new_misses - misses == len(SPEC95) * (len(DEFAULT_HISTORY) + 1)
    assert new_hits > new_misses - misses


def test_serial_fig8_replays_fresh_tables_once_per_front():
    """Each front replays its target array once and, per select-table
    count, the second-block stream once (shared by both schemes) and the
    double-selection first-block stream once."""
    from repro.core import fast
    from repro.experiments.fig8 import (DEFAULT_HISTORY, DEFAULT_TABLES,
                                        run_fig8)
    from repro.workloads import SPEC95

    fast.clear_front_cache()
    before = fast.residual_lookups()
    run_fig8(budget=2_000, jobs=1)
    after = fast.residual_lookups()
    select, target = (
        tuple(a - b for a, b in zip(after[kind], before[kind]))
        for kind in ("select", "target"))
    fronts = len(SPEC95) * len(DEFAULT_HISTORY)
    configs = 2 * len(DEFAULT_TABLES)
    # (shared, replayed): 576 select-stream replays where every cell
    # replaying its own streams would make 864; 72 target replays
    # where it would make 576.
    assert select == (fronts * len(DEFAULT_TABLES),
                      fronts * 2 * len(DEFAULT_TABLES)) == (288, 576)
    assert target == (fronts * (configs - 1), fronts) == (504, 72)
