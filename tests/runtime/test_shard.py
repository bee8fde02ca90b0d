"""The shard scheduler: partitioning, stealing, driver, shard resume.

The pure scheduler core is unit-tested with a fake clock (no sleeps);
the real process driver is exercised through ``run_resilient`` with
``shards > 1`` against the serial baseline — sharded execution must be
bit-exact, including through fault retries and a kill/resume cycle that
changes the shard count between runs.
"""

import pytest

from repro.runtime import cache, faults, resilience, shard
from repro.runtime.executor import JOBS_ENV
from repro.runtime.resilience import (
    FAILED,
    CellOutcome,
    SweepError,
    drain_reports,
    run_resilient,
)
from repro.runtime.shard import (
    GAVE_UP,
    POLICIES,
    RETRY,
    Assignment,
    ShardScheduler,
    ShardStateError,
    home_shards,
    partition,
    shard_count,
    shard_policy,
)

CELLS = list(range(12))
EXPECTED = [x * x for x in CELLS]


def _square(x):
    """Top-level worker so it pickles into pool processes."""
    return x * x


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    """Hermetic knobs: no env leakage, no backoff sleeps, fresh reports."""
    for env in (JOBS_ENV, resilience.TIMEOUT_ENV, resilience.RETRIES_ENV,
                resilience.RESUME_ENV, faults.FAULTS_ENV,
                shard.SHARDS_ENV, shard.POLICY_ENV):
        monkeypatch.delenv(env, raising=False)
    monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.0)
    faults.reset()
    drain_reports()
    yield
    drain_reports()


class TestKnobs:
    def test_unset_means_unsharded(self):
        assert shard_count() == 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv(shard.SHARDS_ENV, "4")
        assert shard_count() == 4

    @pytest.mark.parametrize("value", ["auto", "0"])
    def test_auto_means_cpu_count(self, monkeypatch, value):
        monkeypatch.setenv(shard.SHARDS_ENV, value)
        assert shard_count() >= 1

    @pytest.mark.parametrize("value", ["several", "-2", "1.5"])
    def test_garbage_rejected(self, monkeypatch, value):
        monkeypatch.setenv(shard.SHARDS_ENV, value)
        with pytest.raises(ValueError, match=shard.SHARDS_ENV):
            shard_count()

    def test_policy_default(self):
        assert shard_policy() == shard.DEFAULT_POLICY

    @pytest.mark.parametrize("value", POLICIES)
    def test_policy_values(self, monkeypatch, value):
        monkeypatch.setenv(shard.POLICY_ENV, value)
        assert shard_policy() == value

    def test_policy_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(shard.POLICY_ENV, "round-robin")
        with pytest.raises(ValueError, match=shard.POLICY_ENV):
            shard_policy()


class TestPartition:
    def test_every_cell_assigned_once(self):
        for policy in POLICIES:
            plan = partition(CELLS, 3, policy)
            assert plan.n_cells == len(CELLS)
            assert sum(plan.counts()) == len(CELLS)
            assert all(0 <= s < 3 for s in plan.assignment)

    def test_shards_clamped_to_cell_count(self):
        plan = partition([1, 2], 8, "range")
        assert plan.n_shards == 2

    def test_range_is_contiguous_and_balanced(self):
        plan = partition(CELLS, 5, "range")
        assert list(plan.assignment) == sorted(plan.assignment)
        counts = plan.counts()
        assert max(counts) - min(counts) <= 1

    def test_hash_is_stable_under_reorder(self):
        cells = ["a", "b", "c", "d", "e"]
        fwd = partition(cells, 3, "hash")
        rev = partition(list(reversed(cells)), 3, "hash")
        for i, cell in enumerate(cells):
            j = len(cells) - 1 - i
            assert fwd.assignment[i] == rev.assignment[j], cell

    def test_size_balances_skewed_costs(self):
        costs = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0]
        plan = partition(list(range(10)), 2, "size", costs=costs)
        loads = [0.0, 0.0]
        for i, s in enumerate(plan.assignment):
            loads[s] += costs[i]
        assert abs(loads[0] - loads[1]) <= 1.0

    def test_size_cost_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="costs length"):
            partition([1, 2, 3], 2, "size", costs=[1.0])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown shard policy"):
            partition(CELLS, 2, "modulo")

    def test_deterministic(self):
        for policy in POLICIES:
            assert partition(CELLS, 4, policy) \
                == partition(CELLS, 4, policy)


#: Twelve cells of four programs, interleaved the way a suite sweep
#: lays them out (spec-major), plus the group key of each.
GROUPED = [(spec, name) for spec in range(3) for name in "abcd"]
KEYS = [name for _, name in GROUPED]


class TestGroupedPartition:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n_shards", [2, 3, 4])
    def test_every_group_on_one_shard(self, policy, n_shards):
        plan = partition(GROUPED, n_shards, policy, groups=KEYS)
        homes = {}
        for key, home in zip(KEYS, plan.assignment):
            assert homes.setdefault(key, home) == home, key
        assert plan.n_shards == n_shards
        assert all(0 <= s < n_shards for s in plan.assignment)

    def test_shards_clamped_to_group_count(self):
        plan = partition(GROUPED, 8, "range", groups=KEYS)
        assert plan.n_shards == 4

    @pytest.mark.parametrize("policy", ["range", "size"])
    def test_range_and_size_leave_no_shard_empty(self, policy):
        # One heavy group ahead of light ones must not starve a shard.
        keys = ["big"] * 9 + ["x", "y", "z"]
        plan = partition(list(range(12)), 3, policy, groups=keys)
        assert all(plan.counts())

    def test_size_balances_group_loads(self):
        keys = ["a"] * 6 + ["b"] * 3 + ["c"] * 3
        plan = partition(list(range(12)), 2, "size", groups=keys)
        assert plan.counts() == [6, 6]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_unkeyed_cells_place_as_before(self, policy):
        # A cell without a key is its own group: all-None keys, and no
        # keys at all, give today's per-cell plan.
        plain = partition(CELLS, 5, policy)
        keyed = partition(CELLS, 5, policy, groups=[None] * len(CELLS))
        assert keyed.assignment == plain.assignment
        assert plain.drain_order(CELLS) == CELLS

    def test_range_unkeyed_blocks_unchanged(self):
        plan = partition(list(range(7)), 3, "range")
        assert plan.assignment == (0, 0, 0, 1, 1, 2, 2)

    def test_groups_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="groups length"):
            partition([1, 2, 3], 2, "size", groups=["a"])


class TestGroupMajorDrain:
    def _drain(self, plan, n_workers=1):
        outcomes = [CellOutcome(i) for i in range(plan.n_cells)]
        sched = ShardScheduler(plan, list(range(plan.n_cells)), n_workers,
                               0, clock=lambda: 0.0, outcomes=outcomes)
        order = []
        while not sched.finished:
            order.append(sched.acquire(0).cell)
            sched.complete(0)
        return order

    def test_single_queue_drains_group_by_group(self):
        plan = partition(GROUPED, 1, "size", groups=KEYS)
        order = self._drain(plan)
        assert [KEYS[i] for i in order] == \
            ["a"] * 3 + ["b"] * 3 + ["c"] * 3 + ["d"] * 3
        # Within a group, cells keep index order.
        assert order[:3] == [0, 4, 8]

    def test_each_shard_queue_drains_group_by_group(self):
        plan = partition(GROUPED, 2, "size", groups=KEYS)
        order = self._drain(plan, n_workers=1)
        runs = [KEYS[order[0]]]
        for i in order[1:]:
            if KEYS[i] != runs[-1]:
                runs.append(KEYS[i])
        assert sorted(runs) == ["a", "b", "c", "d"]  # no group split

    def test_mixed_keys_keep_unkeyed_cells_in_index_order(self):
        keys = [None, "p", None, "p", None]
        plan = partition(list(range(5)), 1, "size", groups=keys)
        assert self._drain(plan) == [0, 1, 3, 2, 4]

    def test_ungrouped_drain_order_is_index_order(self):
        plan = partition(CELLS, 1, "size")
        assert self._drain(plan) == CELLS


def _scheduler(n_cells=8, n_shards=4, n_workers=2, retries=1,
               clock=lambda: 0.0, backoff=None):
    plan = partition(list(range(n_cells)), n_shards, "range")
    outcomes = [CellOutcome(i) for i in range(n_cells)]
    sched = ShardScheduler(plan, list(range(n_cells)), n_workers,
                           retries, clock=clock, outcomes=outcomes,
                           backoff=backoff)
    return sched, outcomes


class TestScheduler:
    def test_home_shards_cover_all_shards(self):
        owned = [home_shards(w, 5, 2) for w in range(2)]
        assert sorted(s for shards in owned for s in shards) \
            == list(range(5))

    def test_acquire_prefers_home_shards(self):
        sched, _ = _scheduler()
        a = sched.acquire(0)
        assert a.shard in sched.home_shards(0)
        assert not a.stolen

    def test_double_acquire_rejected(self):
        sched, _ = _scheduler()
        sched.acquire(0)
        with pytest.raises(ShardStateError, match="acquired twice"):
            sched.acquire(0)

    def test_steals_from_longest_queue_when_homes_empty(self):
        # Worker 1 owns shards 1 and 3 (2 cells each with range over
        # 8 cells x 4 shards); drain them, then the next acquire must
        # steal from the longest remaining queue.
        sched, _ = _scheduler()
        for _ in range(4):
            a = sched.acquire(1)
            assert a.shard in (1, 3)
            sched.complete(1)
        stolen = sched.acquire(1)
        assert stolen.stolen
        assert len(sched.steals) == 1
        record = sched.steals[0]
        assert record.depths[record.shard] == max(record.depths)

    def test_fail_retries_then_gives_up(self):
        now = {"t": 0.0}
        sched, outcomes = _scheduler(retries=1, clock=lambda: now["t"],
                                     backoff=lambda _n: 5.0)
        a = sched.acquire(0)
        assert sched.fail(0, "boom") == RETRY
        # The retry is backing off: not dispatchable until the clock
        # passes ready_at.
        assert sched.acquire(0).cell != a.cell
        sched.complete(0)
        assert sched.next_ready_at() == 5.0
        now["t"] = 6.0
        again = sched.acquire(0)
        assert again.cell == a.cell
        assert again.attempt == 1
        assert sched.fail(0, "boom again") == GAVE_UP
        assert outcomes[a.cell].status == FAILED
        assert outcomes[a.cell].error == "boom again"

    def test_unacquire_restores_fifo_and_attempt_count(self):
        sched, outcomes = _scheduler()
        a = sched.acquire(0)
        sched.unacquire(0)
        assert outcomes[a.cell].attempts == 0
        assert sched.acquire(0).cell == a.cell

    def test_abandon_requeues_with_attempt_counted(self):
        sched, outcomes = _scheduler()
        a = sched.acquire(0)
        sched.abandon(0)
        assert outcomes[a.cell].attempts == 1
        assert a.cell in sched.remaining()
        assert not sched.inflight

    def test_duplicate_completion_rejected(self):
        sched, _ = _scheduler(n_cells=2, n_shards=1, n_workers=2)
        a = sched.acquire(0)
        sched.complete(0)
        b = sched.acquire(0)
        assert b.cell != a.cell
        with pytest.raises(ShardStateError,
                           match="no in-flight cell"):
            sched.complete(1)

    def test_finished_after_all_terminal(self):
        sched, _ = _scheduler(n_cells=3, n_shards=2, n_workers=1,
                              retries=0)
        while not sched.finished:
            assignment = sched.acquire(0)
            assert assignment is not None
            sched.complete(0)
        assert sched.completed == [0, 1, 2]
        assert sched.remaining() == []


def _grouped_scheduler(keys):
    """Two workers over a 2-shard ``range`` plan of keyed cells."""
    cells = list(range(len(keys)))
    plan = partition(cells, 2, "range", groups=keys)
    outcomes = [CellOutcome(i) for i in cells]
    return ShardScheduler(plan, cells, 2, 1, clock=lambda: 0.0,
                          outcomes=outcomes), outcomes


class TestGroupedSteal:
    """Grouped plans steal whole groups, so fronts stay on one worker."""

    # Shard 0 holds groups a (cells 0-2) and b (3-5), shard 1 group c.
    KEYS = ["a"] * 3 + ["b"] * 3 + ["c"] * 2

    def _drain_home(self, sched, worker, cells):
        for cell in cells:
            assert sched.acquire(worker).cell == cell
            sched.complete(worker)

    def test_steals_last_unstarted_group_whole(self):
        sched, _ = _grouped_scheduler(self.KEYS)
        assert sched.acquire(0).cell == 0  # group a has started
        self._drain_home(sched, 1, [6, 7])
        stolen = sched.acquire(1)
        assert (stolen.cell, stolen.stolen) == (3, True)
        assert [(r.cell, r.shard, r.depths) for r in sched.steals] \
            == [(3, 0, (5, 0))]
        sched.complete(1)
        # The rest of group b belongs to the thief: no further steal.
        rest = sched.acquire(1)
        assert (rest.cell, rest.stolen) == (4, True)
        assert len(sched.steals) == 1
        sched.complete(0)
        self._drain_home(sched, 0, [1, 2])
        # Every queue is empty: the idle worker splits the thief's
        # group from the back.
        split = sched.acquire(0)
        assert split.cell == 5
        assert sched.steals[-1].split_from == 1
        assert sched.steals[-1].depths == (0, 0)
        sched.complete(0)
        sched.complete(1)
        assert sched.acquire(1) is None
        assert sched.finished

    def test_splits_started_group_from_the_back(self):
        sched, _ = _grouped_scheduler(["a"] * 4 + ["c"])
        assert sched.acquire(0).cell == 0
        self._drain_home(sched, 1, [4])
        assert sched.acquire(1).cell == 3
        sched.complete(1)
        assert sched.acquire(1).cell == 2
        assert [r.split_from for r in sched.steals] == [None, None]
        sched.complete(0)
        assert sched.acquire(0).cell == 1

    def test_unacquired_stolen_cell_returns_to_the_thief(self):
        sched, outcomes = _grouped_scheduler(self.KEYS)
        sched.acquire(0)
        self._drain_home(sched, 1, [6, 7])
        stolen = sched.acquire(1)
        sched.unacquire(1)
        assert outcomes[stolen.cell].attempts == 0
        again = sched.acquire(1)
        assert (again.cell, again.attempt) == (stolen.cell, 0)
        assert len(sched.steals) == 1

    def test_ungrouped_steal_takes_the_queue_front(self):
        sched, _ = _scheduler()
        for _ in range(4):
            sched.acquire(1)
            sched.complete(1)
        stolen = sched.acquire(1)
        assert stolen.cell == sched.plan.cells_in(stolen.shard)[0]
        assert sched.steals[0].split_from is None


class TestShardedExecution:
    def test_sharded_matches_serial_bit_exact(self):
        serial = run_resilient(_square, CELLS, jobs=1)
        sharded = run_resilient(_square, CELLS, jobs=2, shards=3)
        assert sharded.results == serial.results == EXPECTED
        info = sharded.report.shards
        assert info is not None
        assert info.n_shards == 3
        assert sum(info.cells_done.values()) == len(CELLS)
        assert "sharded 3x" in sharded.report.summary()

    def test_env_routes_through_shards(self, monkeypatch):
        monkeypatch.setenv(shard.SHARDS_ENV, "2")
        monkeypatch.setenv(shard.POLICY_ENV, "range")
        swept = run_resilient(_square, CELLS, jobs=2)
        assert swept.results == EXPECTED
        assert swept.report.shards.policy == "range"

    def test_fault_retry_recovers_bit_exact(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=5,times=1")
        monkeypatch.setenv(resilience.RETRIES_ENV, "2")
        faults.reset()
        swept = run_resilient(_square, CELLS, jobs=2, shards=2)
        assert swept.results == EXPECTED
        assert swept.report.outcomes[5].status == resilience.RETRIED

    def test_unpicklable_work_degrades_to_serial(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            swept = run_resilient(lambda x: x + 1, CELLS, jobs=1,
                                  shards=4)
        assert swept.results == [x + 1 for x in CELLS]
        assert swept.report.shards is None

    def test_single_shard_uses_flat_path(self):
        swept = run_resilient(_square, CELLS, jobs=1, shards=1)
        assert swept.results == EXPECTED
        assert swept.report.shards is None


class TestShardResume:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_journal_layout_is_per_shard(self, cache_dir, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=7")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        faults.reset()
        with pytest.raises(SweepError):
            run_resilient(_square, CELLS, jobs=2, label="layout",
                          shards=3)
        entries = sorted((cache_dir / "journal").rglob("cell-*.pkl"))
        assert entries, "completed cells must be journaled"
        assert all(p.parent.name.startswith("shard-") for p in entries)

    def test_kill_then_resume_with_different_shard_count(
            self, cache_dir, monkeypatch):
        baseline = run_resilient(_square, CELLS, jobs=1)

        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=4")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        faults.reset()
        with pytest.raises(SweepError) as exc_info:
            run_resilient(_square, CELLS, jobs=2, label="resume-x",
                          shards=2)
        assert exc_info.value.report.failed_cells == [4]
        assert list((cache_dir / "journal").iterdir()), \
            "journal must survive a failed sweep"

        monkeypatch.delenv(faults.FAULTS_ENV)
        monkeypatch.setenv(resilience.RETRIES_ENV, "2")
        faults.reset()
        resumed = run_resilient(_square, CELLS, jobs=2,
                                label="resume-x", shards=5)
        assert resumed.results == baseline.results == EXPECTED
        report = resumed.report
        assert report.resumed_cells, \
            "the second run must reuse journaled cells"
        assert 4 not in report.resumed_cells
        assert not list((cache_dir / "journal").iterdir()), \
            "journal must be discarded after success"

    def test_sharded_journal_resumes_serially_too(self, cache_dir,
                                                  monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=2")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        faults.reset()
        with pytest.raises(SweepError):
            run_resilient(_square, CELLS, jobs=2, label="to-serial",
                          shards=4)
        monkeypatch.delenv(faults.FAULTS_ENV)
        faults.reset()
        resumed = run_resilient(_square, CELLS, jobs=1,
                                label="to-serial")
        assert resumed.results == EXPECTED
        assert resumed.report.resumed_cells


class TestFig6Sharded:
    """The PR's acceptance scenario at unit-test scale."""

    BUDGET = 2_000

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_sharded_fig6_bit_identical_to_serial(self, monkeypatch):
        from repro.experiments.fig6 import run_fig6

        serial = run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        drain_reports()
        monkeypatch.setenv(shard.SHARDS_ENV, "2")
        monkeypatch.setenv(resilience.JOBS_ENV
                           if hasattr(resilience, "JOBS_ENV")
                           else JOBS_ENV, "2")
        sharded = run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        assert sharded == serial
        report = next(r for r in drain_reports() if r.label == "fig6")
        assert report.shards is not None
        assert report.shards.n_shards == 2

    def test_kill_resume_cycle_stays_bit_exact(self, cache_dir,
                                               monkeypatch):
        from repro.experiments.fig6 import run_fig6

        serial = run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        drain_reports()

        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=2")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        monkeypatch.setenv(JOBS_ENV, "2")
        monkeypatch.setenv(shard.SHARDS_ENV, "2")
        faults.reset()
        with pytest.raises(SweepError):
            run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        assert list((cache_dir / "journal").iterdir())
        drain_reports()

        monkeypatch.delenv(faults.FAULTS_ENV)
        monkeypatch.setenv(resilience.RETRIES_ENV, "2")
        monkeypatch.setenv(shard.SHARDS_ENV, "3")
        faults.reset()
        resumed = run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        assert resumed == serial
        report = next(r for r in drain_reports() if r.label == "fig6")
        assert report.resumed_cells, "resume must reuse journaled cells"
