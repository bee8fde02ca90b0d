"""Fault-tolerant sweep execution: retries, deadlines, checkpoint/resume.

The plain executor of :mod:`repro.runtime.executor` is all-or-nothing: a
single worker crash raises ``BrokenProcessPool`` and discards every
finished cell, a hung interpreter stalls the sweep forever, and an
interrupted run restarts from zero.  This module wraps sweep execution
in a recovery loop that never changes a reported number — every
recovered cell re-runs the same deterministic simulation — but survives
the faults a long campaign actually hits:

* **Per-cell deadline** (``REPRO_CELL_TIMEOUT``, seconds): a parallel
  cell that exceeds it has its worker killed and is retried.  Serial
  execution has no preemption boundary, so deadlines only apply to
  parallel sweeps.
* **Bounded retries** (``REPRO_RETRIES``, default 2) with exponential
  backoff: a failed, crashed or timed-out cell is re-run up to the
  budget, after which the sweep raises :class:`SweepError` carrying the
  full :class:`SweepReport`.
* **Crash recovery**: each worker slot owns a single-worker
  ``ProcessPoolExecutor``, so a dead interpreter breaks exactly one
  cell's pool — the pool is respawned and only the lost cell re-runs.
  When pools keep dying (or cannot be spawned at all) the sweep degrades
  to serial execution with an explicit ``RuntimeWarning``, never
  silently.
* **Checkpoint/resume**: labeled sweeps journal every completed cell's
  result to ``<cache-dir>/journal/<label>-<digest>/`` (atomic,
  checksummed); an interrupted rerun skips finished cells
  (``REPRO_RESUME``, default on) and merges bit-identically with an
  uninterrupted run.  The journal is deleted when the sweep completes.

Every sweep runs through one driver,
:func:`repro.runtime.shard.run_sweep_loop`, which hands cells to workers
through the shard scheduler.  A flat sweep is a 1-shard plan; a sweep
with one effective worker, and the remainder of a degraded sweep, run
on one in-process worker (:func:`_serial_cell`).  Per-cell outcomes (ok
/ retried / timed-out / failed, plus resumed) are recorded in a
:class:`SweepReport`; the CLI prints a summary for any sweep that
degraded and exits non-zero when cells were dropped.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, Iterator,
                    List, Mapping, Optional, Sequence)

from . import cache, faults, profile

if TYPE_CHECKING:
    from .shard import ShardInfo

#: Environment variable: per-cell deadline in seconds (parallel sweeps).
TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
#: Environment variable: retry budget per cell.
RETRIES_ENV = "REPRO_RETRIES"
#: Environment variable: resume labeled sweeps from their journal.
RESUME_ENV = "REPRO_RESUME"

DEFAULT_RETRIES = 2

#: Exponential backoff between retries of one cell: BASE * 2**attempts,
#: capped.  Tests may patch BACKOFF_BASE to 0.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Pool respawns tolerated before the sweep degrades to serial.
POOL_RESPAWN_BUDGET = 8

_OFF = {"", "0", "off", "none", "disable", "disabled"}
_FALSE = {"0", "off", "no", "false"}
_TRUE = {"1", "on", "yes", "true"}

#: Pickle protocol for journal entries and sweep keys — pinned so the
#: digest of an unchanged sweep is stable across interpreter runs.
_PICKLE_PROTOCOL = 4

#: Cell outcome statuses.
OK = "ok"
RETRIED = "retried"
TIMED_OUT = "timed-out"
FAILED = "failed"


def cell_timeout() -> Optional[float]:
    """Per-cell deadline from ``REPRO_CELL_TIMEOUT`` (None = no limit)."""
    raw = os.environ.get(TIMEOUT_ENV)
    if raw is None or raw.strip().lower() in _OFF:
        return None
    try:
        value = float(raw.strip())
    except ValueError:
        raise ValueError(
            f"{TIMEOUT_ENV} must be a positive number of seconds or "
            f"'off', got {raw!r}") from None
    if value <= 0:
        raise ValueError(
            f"{TIMEOUT_ENV} must be positive, got {value}")
    return value


def retry_limit() -> int:
    """Retry budget per cell from ``REPRO_RETRIES``."""
    raw = os.environ.get(RETRIES_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_RETRIES
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{RETRIES_ENV} must be a non-negative integer, "
            f"got {raw!r}") from None
    if value < 0:
        raise ValueError(
            f"{RETRIES_ENV} must not be negative, got {value}")
    return value


def resume_enabled() -> bool:
    """Whether labeled sweeps resume from journals (``REPRO_RESUME``)."""
    raw = os.environ.get(RESUME_ENV)
    if raw is None or not raw.strip():
        return True
    text = raw.strip().lower()
    if text in _FALSE:
        return False
    if text in _TRUE:
        return True
    raise ValueError(
        f"{RESUME_ENV} must be a boolean ('1'/'0', 'on'/'off'), "
        f"got {raw!r}")


def _backoff(attempts_done: int) -> float:
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempts_done))


@contextmanager
def scoped_environ(overrides: Mapping[str, Optional[str]],
                   ) -> Iterator[None]:
    """Temporarily set (or, with ``None``, unset) environment variables.

    The sanctioned way for callers outside the runtime config entry
    points (notably :mod:`repro.serve`) to scope runtime knobs like
    ``REPRO_CELL_TIMEOUT`` or ``REPRO_FAULT_SPEC`` around one dispatch:
    the previous values are restored on exit even when the body raises.
    Worker pools forked inside the scope inherit the overridden values.
    """
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# ----------------------------------------------------------------------
# Outcomes and reports
# ----------------------------------------------------------------------

@dataclass
class CellOutcome:
    """Recovery record for one sweep cell."""

    index: int
    status: str = OK      #: ok | retried | timed-out | failed
    attempts: int = 0     #: executions actually started
    timeouts: int = 0     #: attempts killed by the cell deadline
    resumed: bool = False  #: result loaded from the sweep journal
    error: str = ""       #: last failure, for failed cells
    shard: Optional[int] = None  #: home shard under a sharded sweep
    stolen: bool = False  #: some attempt ran on a stealing worker

    def finish(self) -> None:
        """Set the final status after a successful attempt."""
        if self.timeouts:
            self.status = TIMED_OUT
        elif self.attempts > 1:
            self.status = RETRIED
        else:
            self.status = OK


@dataclass
class SweepReport:
    """Structured account of one sweep's execution and recoveries."""

    label: Optional[str]
    n_cells: int
    jobs: int   #: workers the sweep ran on (1: in-process)
    outcomes: List[CellOutcome] = field(default_factory=list)
    degraded_serial: bool = False  #: parallel execution was abandoned
    pool_respawns: int = 0         #: worker pools killed and respawned
    #: Shard-scheduler account (:class:`repro.runtime.shard.ShardInfo`)
    #: when the sweep ran sharded; ``None`` for flat sweeps.
    shards: Optional["ShardInfo"] = None
    #: Wall-clock per phase spent on the sweep (``REPRO_PROFILE=1``),
    #: worker cells included; empty when profiling is off.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def _with_status(self, status: str) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def n_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.status != FAILED)

    @property
    def failed_cells(self) -> List[int]:
        return [o.index for o in self._with_status(FAILED)]

    @property
    def retried_cells(self) -> List[int]:
        return [o.index for o in self._with_status(RETRIED)]

    @property
    def timed_out_cells(self) -> List[int]:
        return [o.index for o in self._with_status(TIMED_OUT)]

    @property
    def resumed_cells(self) -> List[int]:
        return [o.index for o in self.outcomes if o.resumed]

    @property
    def clean(self) -> bool:
        """True when nothing degraded — no retries, kills or failures."""
        return (not self.failed_cells and not self.retried_cells
                and not self.timed_out_cells and not self.resumed_cells
                and not self.degraded_serial and not self.pool_respawns)

    def summary(self) -> str:
        """One-line human summary, printed by the CLI on degradation."""
        name = self.label or "<sweep>"
        bits = [f"sweep {name}: {self.n_ok}/{self.n_cells} cells ok"]
        if self.shards is not None:
            bits.append(self.shards.describe())
        if self.resumed_cells:
            bits.append(f"{len(self.resumed_cells)} resumed from journal")
        if self.retried_cells:
            bits.append(f"{len(self.retried_cells)} retried "
                        f"(cells {self.retried_cells})")
        if self.timed_out_cells:
            bits.append(f"{len(self.timed_out_cells)} timed out and "
                        f"recovered (cells {self.timed_out_cells})")
        if self.pool_respawns:
            bits.append(f"{self.pool_respawns} worker respawn(s)")
        if self.degraded_serial:
            bits.append("degraded to serial execution")
        if self.failed_cells:
            bits.append(f"{len(self.failed_cells)} FAILED "
                        f"(cells {self.failed_cells})")
        if self.phase_seconds:
            from . import profile

            bits.append(f"phases: "
                        f"{profile.format_phases(self.phase_seconds)}")
        return "; ".join(bits)


class SweepError(RuntimeError):
    """A sweep dropped cells after exhausting every recovery path."""

    def __init__(self, report: SweepReport):
        self.report = report
        failed = report.failed_cells
        super().__init__(
            f"sweep {report.label or '<unlabeled>'}: {len(failed)} of "
            f"{report.n_cells} cells failed after retries "
            f"(cells {failed}); completed cells are journaled — rerun "
            f"to resume")


@dataclass
class SweepResult:
    """Results (in cell order) plus the execution report."""

    results: List
    report: SweepReport


#: Reports of completed sweeps, drained by the CLI for its summary.
_reports: List[SweepReport] = []


def drain_reports() -> List[SweepReport]:
    """Return and clear the accumulated sweep reports."""
    out = list(_reports)
    _reports.clear()
    return out


# ----------------------------------------------------------------------
# Journaled checkpoint/resume
# ----------------------------------------------------------------------

class Journal:
    """Digest-keyed directory of per-cell results under the cache dir.

    Each completed cell is written atomically as ``cell-<index>.pkl``
    (a SHA-256 header followed by the pickled result), so an interrupted
    sweep can resume: entries are self-verifying, torn writes are
    impossible, and a corrupt entry is simply recomputed.

    Sharded sweeps checkpoint into per-shard subdirectories
    (``shard-<k>/cell-<index>.pkl``); entries stay keyed by the *global*
    cell index, so :meth:`load` merges flat and shard entries alike and
    a resume may use a different shard count (or none) and still merge
    bit-exact.
    """

    def __init__(self, directory: Path, n_cells: int):
        self.directory = directory
        self.n_cells = n_cells

    @staticmethod
    def sweep_key(label: str, fn: Callable, cells: Sequence) -> \
            Optional[str]:
        """Stable digest of the sweep identity, or None if unkeyable."""
        h = hashlib.sha256()
        h.update(label.encode())
        h.update(b"\x00")
        h.update(f"{getattr(fn, '__module__', '?')}."
                 f"{getattr(fn, '__qualname__', '?')}".encode())
        h.update(b"\x00")
        try:
            h.update(pickle.dumps(list(cells), protocol=_PICKLE_PROTOCOL))
        except Exception:
            return None
        return h.hexdigest()[:16]

    @classmethod
    def open(cls, label: Optional[str], fn: Callable,
             cells: Sequence) -> Optional["Journal"]:
        """Journal for this sweep, or None when journaling is off."""
        if label is None:
            return None
        root = cache.cache_dir()
        if root is None:
            return None
        key = cls.sweep_key(label, fn, cells)
        if key is None:
            return None
        return cls(root / "journal" / f"{label}-{key}", len(cells))

    def _entry(self, index: int, shard: Optional[int] = None) -> Path:
        if shard is None:
            return self.directory / f"cell-{index}.pkl"
        return self.directory / f"shard-{shard:02d}" / f"cell-{index}.pkl"

    def load(self) -> Dict[int, object]:
        """Verified completed-cell results from a previous run."""
        if not self.directory.is_dir():
            return {}
        loaded: Dict[int, object] = {}
        entries = (sorted(self.directory.glob("cell-*.pkl"))
                   + sorted(self.directory.glob("shard-*/cell-*.pkl")))
        for path in entries:
            try:
                index = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if not 0 <= index < self.n_cells:
                continue
            try:
                blob = path.read_bytes()
                digest, payload = blob[:32], blob[32:]
                if hashlib.sha256(payload).digest() != digest:
                    path.unlink(missing_ok=True)  # torn entry: recompute
                    continue
                loaded[index] = pickle.loads(payload)
            except Exception:
                path.unlink(missing_ok=True)
        return loaded

    def record(self, index: int, result: object,
               shard: Optional[int] = None) -> None:
        """Atomically append one completed cell to the journal."""
        try:
            payload = pickle.dumps(result, protocol=_PICKLE_PROTOCOL)
        except Exception:
            return  # unjournalable result: resume simply recomputes it
        path = self._entry(index, shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(hashlib.sha256(payload).digest() + payload)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)

    def discard(self) -> None:
        """Remove the journal (the sweep completed)."""
        shutil.rmtree(self.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Cell attempts (in-process and worker-side)
# ----------------------------------------------------------------------

def _pool_cell(fn: Callable, cell, index: int, attempt: int,
               inject: bool):
    """Worker-side shim: apply injected faults, then run the cell.

    Under ``REPRO_PROFILE=1`` the result comes back as a
    :class:`~repro.runtime.profile.Captured` carrying the cell's phase
    delta and per-cell lines; :func:`_record_success` replays them in
    the parent.
    """
    if inject:
        faults.apply_cell_faults(index, attempt, isolated=True)
    if profile.enabled():
        return profile.capture(fn, cell)
    return fn(cell)


def _serial_cell(fn: Callable, cell, index: int, attempt: int,
                 inject: bool):
    """In-process attempt: hard faults degrade to retryable errors."""
    if inject:
        faults.apply_cell_faults(index, attempt, isolated=False)
    return fn(cell)


# ----------------------------------------------------------------------
# The resilient executor
# ----------------------------------------------------------------------

def _new_pool() -> ProcessPoolExecutor:
    """One single-worker pool per slot (patchable in tests).

    A slot owning its own worker makes fault attribution exact: a dead
    interpreter breaks exactly one in-flight cell, so only that cell is
    retried — innocent neighbours keep their results.
    """
    return ProcessPoolExecutor(max_workers=1)


def _terminate_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Kill a pool's worker processes (hung or already broken)."""
    if pool is None:
        return
    processes = list(getattr(pool, "_processes", {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in processes:
        try:
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def run_resilient(fn: Callable, cells, jobs: Optional[int] = None,
                  label: Optional[str] = None,
                  inject_faults: bool = True,
                  shards: Optional[int] = None,
                  groups: Optional[Sequence[Optional[Hashable]]] = None,
                  ) -> SweepResult:
    """Order-preserving resilient map of ``fn`` over ``cells``.

    Semantics match :func:`repro.runtime.executor.execute` — results in
    cell order, parallel bit-identical to serial — plus the recovery
    behaviour documented in the module docstring.  Raises
    :class:`SweepError` when a cell fails after exhausting its retries;
    completed cells stay journaled so a rerun resumes.

    The sweep runs on ``min(jobs, pending)`` workers, one of which
    means in-process.  ``shards`` (default ``REPRO_SHARDS``) > 1
    partitions the cells by ``REPRO_SHARD_POLICY``: workers drain their
    home shards and steal from stragglers, journaled sweeps checkpoint
    per shard, and ``jobs=1`` runs one worker per shard.  Results and
    recovery semantics are identical either way — sharding only moves
    wall-clock, never numbers.

    ``groups`` gives one key per cell (``None``: a group of its own).
    Cells sharing a key stay on one shard and run back to back, so a
    worker resolves each shared input once; a keyed sweep on several
    workers defaults to one shard per worker instead of one shared
    queue.  Keys change placement and order only: cell indices, journal
    entries and fault targets keep their meaning.
    """
    from . import shard as shard_mod
    from .executor import n_jobs, unpicklable_reason

    cells = list(cells)
    timeout = cell_timeout()
    retries = retry_limit()
    resume = resume_enabled()
    cache.max_cache_bytes()  # validate eagerly, before any simulation
    profiling = profile.enabled()
    profile_base = profile.snapshot() if profiling else None
    if inject_faults:
        faults.validate()

    jobs = n_jobs() if jobs is None else jobs
    if shards is None:
        shards = shard_mod.shard_count(
            default=jobs if groups is not None else 1)
    n_shards = max(1, shards)
    policy = shard_mod.shard_policy()  # validated even when unsharded
    report = SweepReport(label=label, n_cells=len(cells), jobs=jobs,
                         outcomes=[CellOutcome(i)
                                   for i in range(len(cells))])
    results: List = [None] * len(cells)
    done = [False] * len(cells)

    journal = Journal.open(label, fn, cells)
    if journal is not None and resume:
        for index, value in journal.load().items():
            results[index] = value
            done[index] = True
            outcome = report.outcomes[index]
            outcome.resumed = True
            outcome.status = OK

    pending = [i for i in range(len(cells)) if not done[i]]
    sharded = n_shards > 1 and len(pending) > 1
    plan = shard_mod.partition(cells, n_shards if sharded else 1, policy,
                               groups=groups)
    workers = plan.n_shards if sharded and jobs <= 1 else jobs
    workers = max(1, min(workers, len(pending)))

    try:
        if workers > 1:
            reason = unpicklable_reason(fn, cells)
            if reason is not None:
                warnings.warn(
                    f"sweep {label or '<unlabeled>'} falls back to "
                    f"serial execution: {reason}",
                    RuntimeWarning, stacklevel=3)
                workers = 1
                plan = shard_mod.partition(cells, 1, policy,
                                           groups=groups)
        report.jobs = workers
        if plan.n_shards > 1:
            report.shards = shard_mod.ShardInfo(
                n_shards=plan.n_shards, policy=plan.policy,
                n_workers=workers)
        shard_mod.run_sweep_loop(fn, cells, pending, results, done,
                                 report, plan, workers, retries, timeout,
                                 inject_faults, journal)
    finally:
        if profiling:
            report.phase_seconds = profile.delta_since(profile_base)
        _reports.append(report)
        if label is not None:
            try:
                cache.evict()
            except (OSError, ValueError):
                pass

    if report.failed_cells:
        raise SweepError(report)
    if journal is not None:
        journal.discard()
    return SweepResult(results=results, report=report)


def _record_success(index: int, value, results, done, report, journal,
                    shard: Optional[int] = None) -> None:
    if isinstance(value, profile.Captured):
        value = value.replay(shard)
    results[index] = value
    done[index] = True
    outcome = report.outcomes[index]
    outcome.finish()
    if journal is not None:
        journal.record(index, value, shard=shard)
