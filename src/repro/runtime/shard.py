"""Sweep scheduling: partitioning, work stealing, the one sweep driver.

Every sweep runs through :func:`run_sweep_loop`.  A sweep's cells are
first *partitioned* into shards (:func:`partition`); a flat sweep is a
single shard, a sharded one (``REPRO_SHARDS`` > 1) uses the policy from
``REPRO_SHARD_POLICY``.  The unit of placement is a *group*: cells that
share a group key (the suite sweeps key by program, so one program's
cells share its fetch input and PHT fronts) always land on one shard,
and a cell without a key is a group of its own.  The policies:

* ``hash`` — a group lands on ``sha256(pickle(key)) % n`` (an unkeyed
  cell hashes itself); stable under reordering of the sweep, so the same
  group always homes on the same shard across runs.
* ``range`` — contiguous runs of groups in first-appearance order,
  balanced by cell count (for unkeyed cells: index blocks with sizes
  differing by at most one).
* ``size`` (default) — deterministic longest-processing-time greedy over
  per-group cost estimates (the sum of the cells' estimates, uniform
  when none are known), which keeps shard loads balanced when costs are
  skewed.

Each shard queue drains group by group, groups in first-appearance
order and cells by index within a group, so a worker finishes one
program before it starts the next.

Execution then goes through :class:`ShardScheduler` — a *pure* decision
core with an injected clock and no I/O, shared verbatim between the real
driver (:func:`run_sweep_loop`) and the discrete-event testbed of
:mod:`repro.runtime.sim`.  Each worker drains its *home* shards
(``shard % n_workers == worker``; a single shard is everyone's home) in
FIFO order and, when those are empty, **steals from the longest
remaining queue** (ties to the lowest shard id) so one straggler shard
cannot serialize the sweep.  Without groups a steal takes that queue's
next cell.  With groups it takes the queue's last group that no worker
has started, whole, so a program's shared fronts stay on one worker;
only when every group left there has started does it split the last
one from the back, and once every queue is empty an idle worker splits
the longest group another worker stole, from the back.  Every steal is
recorded with a queue-depth snapshot, which is how the sim asserts the
steal policy as an invariant rather than trusting it.

Fault recovery is :mod:`repro.runtime.resilience`'s: with several
workers the driver runs each slot on a single-worker process pool, with
the same retry budget, per-cell deadline kills, pool-respawn budget and
serial degradation; with one worker it runs cells in-process.  Journaled
sharded sweeps checkpoint per shard (``shard-<k>/cell-<i>.pkl`` under
the sweep journal); entries are keyed by *global* cell index, so a
resume may use a different shard count and still merge bit-exact with
the serial path.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import warnings
from bisect import bisect_right
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, Hashable, Iterable, List,
                    Optional, Sequence, Tuple)

from .executor import count_from_env
from .resilience import FAILED

#: Environment variable: shard count for sweeps (int or 'auto').
SHARDS_ENV = "REPRO_SHARDS"
#: Environment variable: cell->shard partition policy.
POLICY_ENV = "REPRO_SHARD_POLICY"

#: Recognised partition policies.
POLICIES = ("hash", "range", "size")
DEFAULT_POLICY = "size"

#: Pickle protocol for hash-policy cell digests (stable across runs).
_PICKLE_PROTOCOL = 4

#: Group-key tag of a cell without a key: a group of its own.
_OWN = object()

#: Scheduler verdicts returned by :meth:`ShardScheduler.fail`.
RETRY = "retry"
GAVE_UP = "gave-up"


def shard_count(default: int = 1) -> int:
    """Shard count from ``REPRO_SHARDS`` (unset: ``default``, unsharded)."""
    return count_from_env(SHARDS_ENV, default)


def shard_policy() -> str:
    """Partition policy from ``REPRO_SHARD_POLICY`` (default ``size``)."""
    raw = os.environ.get(POLICY_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_POLICY
    text = raw.strip().lower()
    if text not in POLICIES:
        raise ValueError(
            f"{POLICY_ENV} must be one of {'/'.join(POLICIES)}, "
            f"got {raw!r}")
    return text


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardPlan:
    """A fixed cell->shard assignment for one sweep."""

    n_shards: int
    policy: str
    assignment: Tuple[int, ...]   #: shard id per global cell index
    #: Group rank per global cell index (groups numbered in order of
    #: first appearance); empty when every cell is its own group.
    groups: Tuple[int, ...] = ()

    @property
    def n_cells(self) -> int:
        return len(self.assignment)

    def drain_order(self, cells: Iterable[int]) -> List[int]:
        """``cells`` group by group, by index within a group."""
        if not self.groups:
            return sorted(cells)
        return sorted(cells, key=lambda i: (self.groups[i], i))

    def shard_of(self, index: int) -> int:
        return self.assignment[index]

    def cells_in(self, shard: int) -> List[int]:
        return [i for i, s in enumerate(self.assignment) if s == shard]

    def counts(self) -> List[int]:
        out = [0] * self.n_shards
        for s in self.assignment:
            out[s] += 1
        return out


def _cell_digest(cell: object, index: int) -> int:
    """Stable 64-bit digest of one cell (index fallback if unpicklable)."""
    try:
        blob = pickle.dumps(cell, protocol=_PICKLE_PROTOCOL)
    except Exception:
        blob = str(index).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def partition(cells: Sequence, n_shards: int,
              policy: str = DEFAULT_POLICY,
              costs: Optional[Sequence[float]] = None,
              groups: Optional[Sequence[Optional[Hashable]]] = None,
              ) -> ShardPlan:
    """Assign every group of cells to a shard under ``policy``.

    ``groups`` (one key per cell, ``None`` for a cell of its own) keeps
    cells sharing a key on one shard; without it every cell is its own
    group and placement is per cell.  ``costs`` (per-cell cost
    estimates, same length as ``cells``) steer the ``size`` policy; the
    other policies ignore them.  The shard count is clamped to the group
    count.  Deterministic: the same cells, keys and costs always give the
    same plan.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown shard policy {policy!r}; expected one of "
            f"{'/'.join(POLICIES)}")
    n = len(cells)
    if n == 0:
        return ShardPlan(n_shards=1, policy=policy, assignment=())
    keys = [None] * n if groups is None else list(groups)
    if len(keys) != n:
        raise ValueError(f"groups length {len(keys)} != cell count {n}")
    # Groups are ranked by first appearance; an unkeyed cell gets a
    # private key no caller can pass.
    rank_of: Dict[Hashable, int] = {}
    ranks = [rank_of.setdefault(key if key is not None else (_OWN, i),
                                len(rank_of))
             for i, key in enumerate(keys)]
    members: List[List[int]] = [[] for _ in rank_of]
    for i, rank in enumerate(ranks):
        members[rank].append(i)
    n_groups = len(members)
    n_shards = max(1, min(int(n_shards), n_groups))
    if n_shards == 1:
        placed = [0] * n_groups
    elif policy == "hash":
        placed = [_cell_digest(cells[m[0]] if keys[m[0]] is None
                               else keys[m[0]], m[0]) % n_shards
                  for m in members]
    elif policy == "range":
        # A group goes to the shard whose index block holds its first
        # cell count, advancing at most one shard per group and leaving
        # enough groups for every later shard.
        base, extra = divmod(n, n_shards)
        starts = [s * base + min(s, extra) for s in range(n_shards)]
        placed, seen, prev = [], 0, -1
        for g, m in enumerate(members):
            block = bisect_right(starts, seen) - 1
            prev = max(n_shards - (n_groups - g), min(block, prev + 1))
            placed.append(prev)
            seen += len(m)
    else:  # size: LPT greedy — heaviest group first, least-loaded shard
        weights = ([float(c) for c in costs] if costs is not None
                   else [1.0] * n)
        if len(weights) != n:
            raise ValueError(
                f"costs length {len(weights)} != cell count {n}")
        load = [sum(weights[i] for i in m) for m in members]
        order = sorted(range(n_groups), key=lambda g: (-load[g], g))
        loads = [0.0] * n_shards
        placed = [0] * n_groups
        for g in order:
            s = min(range(n_shards), key=lambda k: (loads[k], k))
            placed[g] = s
            loads[s] += load[g]
    return ShardPlan(n_shards=n_shards, policy=policy,
                     assignment=tuple(placed[r] for r in ranks),
                     groups=tuple(ranks) if groups is not None else ())


# ----------------------------------------------------------------------
# The pure scheduler core (shared by the process driver and the sim)
# ----------------------------------------------------------------------

def home_shards(worker: int, n_shards: int, n_workers: int
                ) -> Tuple[int, ...]:
    """Shards worker ``worker`` owns: ``shard % n_workers == worker``.

    A 1-shard plan (a flat sweep) is every worker's home, so its workers
    share one FIFO queue and never steal.
    """
    if n_shards == 1:
        return (0,)
    return tuple(s for s in range(n_shards) if s % n_workers == worker)


@dataclass(frozen=True)
class Assignment:
    """One cell handed to one worker for one attempt."""

    cell: int
    shard: int
    worker: int
    attempt: int
    stolen: bool


@dataclass(frozen=True)
class StealRecord:
    """Audit record of one steal, with the queue depths that justified it."""

    worker: int
    cell: int
    shard: int                 #: victim shard the cell was taken from
    depths: Tuple[int, ...]    #: per-shard queue depth at steal time
    #: Worker whose stolen group the cell was split from (queues empty),
    #: or ``None`` for a steal from a shard queue.
    split_from: Optional[int] = None


class ShardStateError(RuntimeError):
    """The scheduler was driven through an impossible transition."""


class ShardScheduler:
    """Work-stealing dispatch over a fixed :class:`ShardPlan`.

    Pure decision logic: no processes, no sleeping, no wall clock — time
    enters only through the injected ``clock`` callable, which is how
    the discrete-event testbed (:mod:`repro.runtime.sim`) runs this
    exact class under a virtual clock.  The scheduler owns per-shard
    FIFO queues, the retry/backoff bookkeeping of the ``outcomes`` it is
    given, the groups workers stole, and the steal audit trail; callers
    own execution.

    Dispatch order is deterministic given the plan, the pending set and
    the sequence of ``acquire``/``complete``/``fail`` calls: queues start
    in the plan's :meth:`~ShardPlan.drain_order`, a worker finishes a
    group it stole before anything else, home shards are scanned in
    ascending id, steals take from the longest queue with ties to the
    lowest shard id (then from the longest stolen group, ties to the
    lowest worker id), and deferred retries re-enter their home queue
    in ``(ready_at, cell)`` order.
    """

    def __init__(self, plan: ShardPlan, pending: Sequence[int],
                 n_workers: int, retries: int,
                 clock: Callable[[], float],
                 outcomes: Sequence,
                 backoff: Optional[Callable[[int], float]] = None):
        self.plan = plan
        self.n_workers = max(1, n_workers)
        self.retries = retries
        self.clock = clock
        self.outcomes = outcomes
        self.backoff = backoff if backoff is not None else (lambda _: 0.0)
        self._cells = set(pending)
        self._queues: List[Deque[int]] = [deque()
                                          for _ in range(plan.n_shards)]
        for index in plan.drain_order(self._cells):
            self._queues[plan.assignment[index]].append(index)
        #: (ready_at, cell) retries deferred for backoff.
        self._waiting: List[Tuple[float, int]] = []
        self._inflight: Dict[int, Assignment] = {}
        self._completed: set = set()
        self._failed: set = set()
        #: Per worker, the not-yet-acquired rest of a group it stole.
        self._adopted: Dict[int, Deque[int]] = {}
        #: Group ranks with at least one acquired cell.
        self._started: set = set()
        self.steals: List[StealRecord] = []

    # -- queue maintenance ---------------------------------------------

    def _promote_ripe(self) -> None:
        """Move retries whose backoff has elapsed back into their queue."""
        if not self._waiting:
            return
        now = self.clock()
        ripe = sorted((r, c) for r, c in self._waiting if r <= now)
        if not ripe:
            return
        self._waiting = [(r, c) for r, c in self._waiting if r > now]
        for _, cell in ripe:
            self._queues[self.plan.assignment[cell]].append(cell)

    def home_shards(self, worker: int) -> Tuple[int, ...]:
        return home_shards(worker % self.n_workers, self.plan.n_shards,
                           self.n_workers)

    # -- worker protocol -----------------------------------------------

    def acquire(self, worker: int) -> Optional[Assignment]:
        """Next cell for ``worker``, or ``None`` when nothing is ready.

        The rest of a group the worker stole first, then its home shards
        (ascending id); otherwise steal (:meth:`_steal`), recording the
        decision.  ``None`` does not mean the sweep is finished —
        retries may still be backing off and other workers may still be
        running (:meth:`next_ready_at`, :attr:`finished`).
        """
        if worker in self._inflight:
            raise ShardStateError(
                f"worker {worker} acquired twice without completing")
        self._promote_ripe()
        adopted = self._adopted.get(worker)
        if adopted:
            cell, stolen = adopted.popleft(), True
        else:
            chosen = next((s for s in self.home_shards(worker)
                           if self._queues[s]), None)
            if chosen is not None:
                cell, stolen = self._queues[chosen].popleft(), False
            else:
                cell, stolen = self._steal(worker), True
                if cell is None:
                    return None
        if self.plan.groups:
            self._started.add(self.plan.groups[cell])
        outcome = self.outcomes[cell]
        attempt = outcome.attempts
        outcome.attempts += 1
        if self.plan.n_shards > 1:
            outcome.shard = self.plan.assignment[cell]
        if stolen:
            outcome.stolen = True
        assignment = Assignment(cell=cell,
                                shard=self.plan.assignment[cell],
                                worker=worker, attempt=attempt,
                                stolen=stolen)
        self._inflight[worker] = assignment
        return assignment

    def _steal(self, worker: int) -> Optional[int]:
        """Take a cell for ``worker``, whose home shards are empty."""
        depths = tuple(len(q) for q in self._queues)
        deepest = max(depths, default=0)
        groups = self.plan.groups
        if deepest == 0:
            return self._split_adopted(worker, depths) if groups else None
        victim = depths.index(deepest)
        queue = self._queues[victim]
        unstarted = next((groups[c] for c in reversed(queue)
                          if groups[c] not in self._started),
                         None) if groups else None
        if unstarted is not None:
            # Take the whole group; its rest waits for this worker.
            taken = [c for c in queue if groups[c] == unstarted]
            rest = [c for c in queue if groups[c] != unstarted]
            queue.clear()
            queue.extend(rest)
            cell = taken[0]
            self._adopted[worker] = deque(taken[1:])
        elif groups:
            cell = queue.pop()  # split a started group from the back
        else:
            cell = queue.popleft()
        self.steals.append(StealRecord(worker=worker, cell=cell,
                                       shard=victim, depths=depths))
        return cell

    def _split_adopted(self, worker: int,
                       depths: Tuple[int, ...]) -> Optional[int]:
        """Split the longest group another worker stole, from the back."""
        owners = [w for w in sorted(self._adopted)
                  if w != worker and self._adopted[w]]
        if not owners:
            return None
        # max() keeps the first of equals: ties go to the lowest worker.
        owner = max(owners, key=lambda w: len(self._adopted[w]))
        cell = self._adopted[owner].pop()
        self.steals.append(StealRecord(
            worker=worker, cell=cell, shard=self.plan.assignment[cell],
            depths=depths, split_from=owner))
        return cell

    def unacquire(self, worker: int) -> None:
        """Hand a cell back unrun (e.g. the worker pool failed to spawn).

        The attempt is uncounted and the cell returns to the *front* of
        its home queue, preserving FIFO order — or, for a stolen cell of
        a grouped plan, to the front of the worker's stolen group.
        """
        assignment = self._pop_inflight(worker)
        self.outcomes[assignment.cell].attempts -= 1
        if assignment.stolen and self.plan.groups:
            self._adopted.setdefault(worker, deque()).appendleft(
                assignment.cell)
        else:
            self._queues[assignment.shard].appendleft(assignment.cell)

    def abandon(self, worker: int) -> Assignment:
        """Requeue a worker's in-flight cell without judging the attempt.

        The degrade path: execution was interrupted mid-cell, so the
        attempt stays counted (it was real work) but the cell goes back
        to its home queue for the serial finisher instead of burning a
        retry verdict here.
        """
        assignment = self._pop_inflight(worker)
        self._queues[assignment.shard].append(assignment.cell)
        return assignment

    def complete(self, worker: int) -> Assignment:
        """Record ``worker``'s in-flight cell as done, exactly once."""
        assignment = self._pop_inflight(worker)
        if assignment.cell in self._completed:
            raise ShardStateError(
                f"cell {assignment.cell} completed twice")
        self._completed.add(assignment.cell)
        return assignment

    def fail(self, worker: int, error: str,
             timed_out: bool = False) -> str:
        """Record a failed attempt; schedule a retry or give the cell up.

        Returns :data:`RETRY` when the cell will re-run after backoff,
        :data:`GAVE_UP` when its retry budget is exhausted (the outcome
        is marked failed with ``error``).
        """
        assignment = self._pop_inflight(worker)
        outcome = self.outcomes[assignment.cell]
        if timed_out:
            outcome.timeouts += 1
        if outcome.attempts <= self.retries:
            ready_at = self.clock() + self.backoff(outcome.attempts - 1)
            self._waiting.append((ready_at, assignment.cell))
            return RETRY
        outcome.status = FAILED
        outcome.error = error
        self._failed.add(assignment.cell)
        return GAVE_UP

    def _pop_inflight(self, worker: int) -> Assignment:
        assignment = self._inflight.pop(worker, None)
        if assignment is None:
            raise ShardStateError(
                f"worker {worker} has no in-flight cell")
        return assignment

    # -- progress ------------------------------------------------------

    def next_ready_at(self) -> Optional[float]:
        """Earliest backoff expiry among deferred retries, or ``None``."""
        if not self._waiting:
            return None
        return min(r for r, _ in self._waiting)

    def has_ready(self) -> bool:
        """Whether any queue holds a cell ready to dispatch right now."""
        self._promote_ripe()
        return any(self._queues) or any(self._adopted.values())

    @property
    def inflight(self) -> Dict[int, Assignment]:
        return dict(self._inflight)

    @property
    def completed(self) -> List[int]:
        return sorted(self._completed)

    @property
    def failed(self) -> List[int]:
        return sorted(self._failed)

    @property
    def finished(self) -> bool:
        """Every pending cell reached a terminal state, nothing running."""
        return (not self._inflight
                and len(self._completed) + len(self._failed)
                == len(self._cells))

    def remaining(self) -> List[int]:
        """Cells not yet terminal (queued, backing off, or in flight)."""
        return sorted(self._cells - self._completed - self._failed)

    def shard_progress(self) -> Dict[int, int]:
        """Completed-cell count per shard (only shards with progress)."""
        out: Dict[int, int] = {}
        for cell in sorted(self._completed):
            shard = self.plan.assignment[cell]
            out[shard] = out.get(shard, 0) + 1
        return out


# ----------------------------------------------------------------------
# Report vocabulary
# ----------------------------------------------------------------------

@dataclass
class ShardInfo:
    """Shard-scheduler account attached to a ``SweepReport``."""

    n_shards: int
    policy: str
    n_workers: int
    steals: int = 0
    #: Completed cells per shard id (filled as the sweep finishes).
    cells_done: Dict[int, int] = field(default_factory=dict)

    def describe(self) -> str:
        return (f"sharded {self.n_shards}x{self.policy} over "
                f"{self.n_workers} worker(s), {self.steals} steal(s)")


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------

@dataclass
class _Worker:
    """One worker slot: a single-worker process pool, or this process.

    An in-process slot runs its cell synchronously inside :meth:`start`,
    so its future is already done when the loop waits on it; it has no
    deadline and no pool to respawn.
    """

    in_process: bool
    pool: Optional[ProcessPoolExecutor] = None
    future: Optional[Future] = None
    deadline: Optional[float] = None

    def start(self, fn: Callable, cell: object, assignment: Assignment,
              inject: bool, timeout: Optional[float]) -> None:
        from . import resilience as res

        if self.in_process:
            self.future = Future()
            try:
                value = res._serial_cell(fn, cell, assignment.cell,
                                         assignment.attempt, inject)
            except Exception as exc:
                self.future.set_exception(exc)
            else:
                self.future.set_result(value)
            return
        if self.pool is None:
            self.pool = res._new_pool()
        self.future = self.pool.submit(
            res._pool_cell, fn, cell, assignment.cell, assignment.attempt,
            inject)
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)

    def kill(self) -> None:
        """Kill the slot's worker; its pool respawns on the next start."""
        from . import resilience as res

        res._terminate_pool(self.pool)
        self.pool, self.future = None, None


def run_sweep_loop(fn: Callable, cells: Sequence,
                   pending: Sequence[int], results: List,
                   done: List[bool], report, plan: ShardPlan,
                   n_workers: int, retries: int,
                   timeout: Optional[float], inject: bool,
                   journal) -> None:
    """Run ``pending`` cells of a sweep: the one sweep driver.

    :class:`ShardScheduler` decides which worker runs which cell.  With
    more than one worker each slot owns a single-worker process pool,
    with the retry budget, per-cell deadline kills and pool-respawn
    budget of :mod:`repro.runtime.resilience`.  A single worker runs
    cells in this process through ``_serial_cell``, with no deadline.
    A flat sweep is a 1-shard plan: its workers share one queue, never
    steal, and journal and label cells without a shard.  When pools keep
    dying the sweep degrades: the remaining cells finish flat on one
    in-process worker, as a serial sweep would.
    """
    from . import resilience as res

    sharded = plan.n_shards > 1
    scheduler = ShardScheduler(plan, pending, n_workers, retries,
                               clock=time.monotonic,
                               outcomes=report.outcomes,
                               backoff=res._backoff)
    slots = [_Worker(in_process=n_workers == 1) for _ in range(n_workers)]
    # Respawns this loop may add before degrading; an in-process worker
    # adds none.
    budget = (report.pool_respawns
              + max(res.POOL_RESPAWN_BUDGET, 2 * n_workers))

    while not scheduler.finished and report.pool_respawns <= budget:
        # Fill idle worker slots from the scheduler.
        for worker, slot in enumerate(slots):
            if slot.future is not None:
                continue
            assignment = scheduler.acquire(worker)
            if assignment is None:
                continue
            try:
                slot.start(fn, cells[assignment.cell], assignment, inject,
                           timeout)
            except (BrokenProcessPool, OSError, RuntimeError):
                scheduler.unacquire(worker)
                report.pool_respawns += 1
                slot.kill()
                if report.pool_respawns > budget:
                    break
        if report.pool_respawns > budget:
            break

        busy = [(w, s) for w, s in enumerate(slots)
                if s.future is not None]
        if not busy:
            ready_at = scheduler.next_ready_at()
            if ready_at is None:
                if scheduler.has_ready():
                    continue  # a cell was handed back; redispatch
                break  # nothing queued, waiting or running
            time.sleep(max(0.0, ready_at - time.monotonic()) + 0.001)
            continue

        wait_for = None
        deadlines = [slot.deadline for _, slot in busy
                     if slot.deadline is not None]
        if deadlines:
            wait_for = max(0.0, min(deadlines) - time.monotonic())
        next_retry = scheduler.next_ready_at()
        if next_retry is not None and len(busy) < len(slots):
            soonest = max(0.0, next_retry - time.monotonic())
            wait_for = soonest if wait_for is None \
                else min(wait_for, soonest)
        finished, _ = wait([slot.future for _, slot in busy],
                           timeout=wait_for,
                           return_when=FIRST_COMPLETED)

        now = time.monotonic()
        for worker, slot in busy:
            if slot.future in finished:
                exc = slot.future.exception()
                if exc is None:
                    assignment = scheduler.complete(worker)
                    res._record_success(
                        assignment.cell, slot.future.result(), results,
                        done, report, journal,
                        shard=assignment.shard if sharded else None)
                else:
                    if (isinstance(exc, BrokenProcessPool)
                            and slot.pool is not None):
                        # The slot's lone worker died mid-cell: respawn
                        # the pool, re-run only this cell.
                        report.pool_respawns += 1
                        slot.kill()
                    scheduler.fail(worker, repr(exc))
                slot.future = None
            elif slot.deadline is not None and now >= slot.deadline:
                # Hung worker: kill it; the slot's pool respawns lazily.
                report.pool_respawns += 1
                slot.kill()
                scheduler.fail(worker,
                               f"cell exceeded {timeout}s deadline",
                               timed_out=True)

    remaining: List[int] = []
    if report.pool_respawns > budget:
        for slot in slots:
            slot.kill()
        for worker in list(scheduler.inflight):
            scheduler.abandon(worker)
        report.degraded_serial = True
        warnings.warn(
            f"sweep {report.label or '<unlabeled>'} degraded to serial "
            f"execution: {report.pool_respawns} worker-pool failures",
            RuntimeWarning, stacklevel=3)
        remaining = scheduler.remaining()
    else:
        for slot in slots:
            if slot.pool is not None:
                slot.pool.shutdown(wait=True)
    if sharded and report.shards is not None:
        report.shards.steals = len(scheduler.steals)
        report.shards.cells_done = scheduler.shard_progress()
    if remaining:
        run_sweep_loop(fn, cells, remaining, results, done, report,
                       partition(cells, 1, plan.policy,
                                 groups=plan.groups or None), 1, retries,
                       None, inject, journal)
