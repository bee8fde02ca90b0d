"""Process-parallel sweep execution.

Every paper artifact is a sweep over (engine configuration x workload)
cells, and every cell is independent: the engines are deterministic,
cold-started per program, and share nothing but read-only fetch inputs.
This module fans those cells out over worker processes and merges the
per-cell results back **in submission order**, so a parallel sweep is
bit-identical to the serial one — parallelism only moves wall-clock,
never numbers.

The worker count is an argument; left out, it comes from the
``REPRO_JOBS`` environment variable (:func:`n_jobs`), whose default of 1
short-circuits to a plain serial loop.  The CLI passes one worker per
CPU unless told otherwise.  Execution itself is delegated to
:mod:`repro.runtime.resilience`, which adds per-cell deadlines, bounded
retries, crash recovery and journaled resume without changing any
result.  Suite sweeps key their cells by program, so all of one
program's cells run back to back on one worker: no two workers
interpret, load or resolve fronts for the same program, and the
persistent cache of :mod:`repro.runtime.cache` is populated once per
input.

Imports of :mod:`repro.workloads` and :mod:`repro.experiments` are kept
inside functions: the workload registry itself layers on
:mod:`repro.runtime.cache`, and a module-level import in either direction
would be circular.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import (Callable, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

#: Environment variable selecting the worker count.
JOBS_ENV = "REPRO_JOBS"

#: Errors a pickling probe can legitimately raise for unpicklable work.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError,
                  NotImplementedError)


def parse_count(raw: Optional[str], name: str, default: int = 1) -> int:
    """A positive count from the text ``raw`` of setting ``name``.

    Accepted values: a positive integer, or ``auto``/``0`` for one per
    CPU.  ``None`` (or empty) falls back to ``default``.  Anything else
    raises a :class:`ValueError` naming the setting.
    """
    if raw is None or not raw.strip():
        return default
    text = raw.strip().lower()
    if text == "auto":
        return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive integer or 'auto', "
            f"got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must not be negative, got {value}")
    if value == 0:
        return os.cpu_count() or 1
    return value


def count_from_env(env: str, default: int = 1) -> int:
    """A positive count from environment variable ``env``."""
    return parse_count(os.environ.get(env), env, default)


def n_jobs(default: int = 1) -> int:
    """Worker count from ``REPRO_JOBS`` (unset: ``default``, serial)."""
    return count_from_env(JOBS_ENV, default)


def unpicklable_reason(fn: Callable, cells: Sequence) -> Optional[str]:
    """Why this sweep cannot cross a process boundary, or ``None``.

    Names the offending object so a parallel sweep that silently ran
    serially is diagnosable from its warning alone.
    """
    try:
        pickle.dumps(fn)
    except _PICKLE_ERRORS as exc:
        return f"sweep function {fn!r} is not picklable ({exc})"
    try:
        pickle.dumps(list(cells))
    except _PICKLE_ERRORS as exc:
        for i, cell in enumerate(cells):
            try:
                pickle.dumps(cell)
            except _PICKLE_ERRORS:
                return f"sweep cell {i} ({cell!r}) is not picklable"
        return f"sweep cells are not picklable ({exc})"
    return None


def execute(fn: Callable, cells: Iterable, jobs: Optional[int] = None,
            label: Optional[str] = None,
            inject_faults: bool = True,
            shards: Optional[int] = None,
            groups: Optional[Sequence[Optional[Hashable]]] = None,
            ) -> List:
    """Order-preserving map of ``fn`` over ``cells``.

    With one job (or one cell) this is a plain serial loop.  Otherwise
    the cells are dispatched to worker processes and the results are
    returned in cell order, which keeps any downstream aggregation
    deterministic.  ``groups`` (one key per cell) keeps cells sharing a
    key on one worker, back to back; see
    :func:`~repro.runtime.resilience.run_resilient`.

    Execution goes through :func:`repro.runtime.resilience.run_resilient`
    — cells run under the ``REPRO_CELL_TIMEOUT`` deadline with
    ``REPRO_RETRIES`` retries, worker crashes respawn the pool and re-run
    only the lost cells, and ``label``-ed sweeps checkpoint completed
    cells to a journal so interrupted runs resume.  Work that cannot be
    pickled — e.g. an ad-hoc lambda engine factory — falls back to the
    serial loop with an explicit ``RuntimeWarning`` naming the
    unpicklable object.

    ``shards`` (default ``REPRO_SHARDS``) > 1 dispatches through the
    work-stealing shard scheduler of :mod:`repro.runtime.shard` — same
    results, sharded wall-clock.
    """
    from . import resilience

    return resilience.run_resilient(fn, cells, jobs=jobs, label=label,
                                    inject_faults=inject_faults,
                                    shards=shards, groups=groups).results


# ----------------------------------------------------------------------
# Suite sweeps: (engine config x workload) cells
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteSpec:
    """One suite-level simulation request inside a sweep.

    ``engine_factory`` must be a picklable callable ``(config) -> engine``
    (a class, a top-level function, or ``functools.partial`` of either);
    ``None`` selects the dual-block engine.
    """

    suite: str
    config: object          # EngineConfig (kept untyped to avoid cycles)
    budget: int
    engine_factory: Optional[Callable] = None


def _suite_names(suite: str) -> List[str]:
    from ..workloads import SPECFP95, SPECINT95

    names = {"int": SPECINT95, "fp": SPECFP95}
    return names[suite]


def _run_engine_cell(cell: Tuple[SuiteSpec, str]):
    """Worker: run one (spec, workload) cell, returning its FetchStats.

    Under ``REPRO_PROFILE=1`` the cell's phase breakdown (trace /
    segment / compile / engine) is printed to stderr as it completes —
    by the sweep's parent process when the cell ran in a worker —
    followed by ``front=hit`` when the fast engine replayed a shared PHT
    front for the whole cell, or ``front=miss`` when it resolved one.
    """
    spec, name = cell
    from ..core import fast
    from ..core.dual import DualBlockEngine
    from ..workloads import load_fetch_input
    from . import profile

    profiling = profile.enabled()
    base = profile.snapshot() if profiling else None
    lookups = fast.front_lookups()
    fetch_input = load_fetch_input(name, spec.config.geometry, spec.budget)
    factory = spec.engine_factory or DualBlockEngine
    with profile.phase("engine"):
        stats = factory(spec.config).run(fetch_input)
    if profiling:
        engine_name = getattr(factory, "__name__",
                              factory.__class__.__name__)
        front = fast.front_outcome(lookups)
        profile.emit_cell(f"{engine_name}/{name}",
                          profile.delta_since(base),
                          {"front": front} if front else None)
    return stats


def run_suite_specs(specs: Iterable[SuiteSpec],
                    jobs: Optional[int] = None,
                    label: Optional[str] = None) -> List:
    """Run a batch of suite sweeps, fanning out every cell at once.

    Returns one ``SuiteAggregate`` per spec, in spec order; the aggregate
    folds per-program ``FetchStats`` in the suite's canonical program
    order, exactly as the serial runner does.  ``label`` names the sweep
    in reports and keys its checkpoint journal.  Cells are keyed by
    program name, so each program's cells run back to back on one
    worker and share its fetch input and PHT fronts.
    """
    from ..experiments.common import SuiteAggregate
    from . import profile

    specs = list(specs)
    cells = [(spec, name) for spec in specs
             for name in _suite_names(spec.suite)]
    results = execute(_run_engine_cell, cells, jobs, label=label,
                      groups=[name for _, name in cells])
    with profile.phase("aggregate"):
        aggregates: List[SuiteAggregate] = []
        cursor = 0
        for spec in specs:
            aggregate = SuiteAggregate()
            for name in _suite_names(spec.suite):
                aggregate.add(name, results[cursor])
                cursor += 1
            aggregates.append(aggregate)
    return aggregates
