"""Chaos campaigns: planning determinism and the bit-exact invariant."""

import inspect
import json

import pytest

from repro.runtime import faults
from repro.serve.chaos import plan_chaos, run_chaos
from repro.serve.traffic import TrafficModel, build_universe, request_stream


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestPlanning:
    def test_plan_is_deterministic(self, qa_seed):
        universe = build_universe(qa_seed, 10, budget=2000)
        indexes = request_stream(TrafficModel(), len(universe), 200,
                                 qa_seed)
        assert plan_chaos(universe, indexes, qa_seed) \
            == plan_chaos(universe, indexes, qa_seed)

    def test_plan_spec_parses_and_targets_stream_members(self, qa_seed):
        universe = build_universe(qa_seed, 10, budget=2000)
        indexes = request_stream(TrafficModel(), len(universe), 200,
                                 qa_seed)
        plan = plan_chaos(universe, indexes, qa_seed)
        parsed = faults.parse_spec(plan.spec)
        assert parsed  # non-empty and grammatical
        appearing = {universe[int(i)].digest()[:12] for i in indexes}
        for group in (plan.crashes, plan.hangs, plan.soft_fails,
                      plan.hard_fails, plan.corrupt_entries):
            for target in group:
                assert target in appearing


class TestCampaign:
    def test_default_arguments_write_no_file(self, qa_seed, tmp_path,
                                             monkeypatch):
        assert inspect.signature(run_chaos).parameters["output"] \
            .default is None
        monkeypatch.chdir(tmp_path)
        result = run_chaos(seed=qa_seed, n_requests=40, universe_size=4,
                           budget=2000, queue_limit=8, batch_limit=8,
                           jobs=2, deadline=5.0)
        assert result.n_served_checked > 0
        assert list(tmp_path.rglob("*")) == []

    def test_small_campaign_passes_and_writes_summary(self, qa_seed,
                                                      tmp_path):
        output = tmp_path / "BENCH_serve_chaos.json"
        result = run_chaos(seed=qa_seed, n_requests=120,
                           universe_size=8, budget=2000,
                           queue_limit=8, batch_limit=8, jobs=2,
                           deadline=5.0, output=output)
        assert result.passed, (result.mismatches,
                               result.untyped_failures)
        assert result.mismatches == []
        assert result.untyped_failures == []
        assert result.n_served_checked > 0
        # Faults actually fired: at least one typed failure or retry
        # appears in the service account.
        service = result.service
        degraded = (service["metrics"]["cell_retries"]
                    + service["metrics"]["pool_respawns"]
                    + service["metrics"]["degraded_batches"]
                    + service["metrics"]["served_scalar"]
                    + sum(service["metrics"]["failed"].values())
                    + service["store"]["corruptions"])
        assert degraded > 0

        data = json.loads(output.read_text())
        for key in ("plan", "traffic", "service", "passed",
                    "n_served_checked", "mismatches"):
            assert key in data
        assert data["passed"] is True
