"""Shared plumbing for the per-figure/table experiment runners.

Every runner follows one shape: sweep a parameter, run the relevant engine
over both SPEC95 sub-suites, aggregate, and return printable row objects.
The instruction budget per workload defaults to ``REPRO_TRACE_LEN``
(120 000) — the stand-in for the paper's 10^9 instructions per program —
so benchmarks can trade fidelity for wall-clock from the environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import envvars
from ..core.config import EngineConfig, FetchInput
from ..core.single import SingleBlockEngine
from ..core.stats import FetchStats
from ..icache.geometry import CacheGeometry
from ..runtime.executor import SuiteSpec, run_suite_specs
from ..workloads import SPECFP95, SPECINT95, load_fetch_input

DEFAULT_BUDGET = 120_000

SUITES: Dict[str, List[str]] = {"int": SPECINT95, "fp": SPECFP95}


def instruction_budget(default: int = DEFAULT_BUDGET) -> int:
    """Per-workload dynamic instruction budget (env ``REPRO_TRACE_LEN``)."""
    raw = envvars.read("REPRO_TRACE_LEN")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_TRACE_LEN must be an integer instruction count, "
            f"got {raw!r}") from None
    if value < 1_000:
        raise ValueError(
            f"REPRO_TRACE_LEN must be at least 1000, got {value}")
    return value


def suite_inputs(suite: str, geometry: CacheGeometry,
                 budget: int) -> Iterable[Tuple[str, FetchInput]]:
    """Yield (name, fetch input) for every program of one sub-suite."""
    for name in SUITES[suite]:
        yield name, load_fetch_input(name, geometry, budget)


@dataclass
class SuiteAggregate:
    """Suite-level totals from per-program fetch statistics.

    Aggregation sums raw counts across programs — the suite IPC_f is
    "instructions fetched across the suite / cycles spent across the
    suite", and suite BEP is total penalty cycles over total branches —
    matching how a single simulation of the concatenated workloads would
    report.
    """

    n_instructions: int = 0
    n_blocks: int = 0
    n_branches: int = 0
    n_cond: int = 0
    fetch_cycles: int = 0
    penalty_cycles: int = 0
    per_program: Dict[str, FetchStats] = None

    def __post_init__(self):
        if self.per_program is None:
            self.per_program = {}

    def add(self, name: str, stats: FetchStats) -> None:
        """Fold one program's statistics into the suite totals."""
        self.n_instructions += stats.n_instructions
        self.n_blocks += stats.n_blocks
        self.n_branches += stats.n_branches
        self.n_cond += stats.n_cond
        self.fetch_cycles += stats.fetch_cycles
        self.penalty_cycles += stats.penalty_cycles
        self.per_program[name] = stats

    @property
    def ipc_f(self) -> float:
        """Suite-level effective fetch rate."""
        return self.n_instructions / self.fetch_cycles \
            if self.fetch_cycles else 0.0

    @property
    def bep(self) -> float:
        """Suite-level branch execution penalty."""
        return self.penalty_cycles / self.n_branches \
            if self.n_branches else 0.0

    @property
    def ipb(self) -> float:
        """Suite-level instructions per block."""
        return self.n_instructions / self.n_blocks if self.n_blocks else 0.0

    def penalty_share(self, kind) -> float:
        """Fraction of total BEP contributed by one penalty kind."""
        total = sum(s.event_cycles.get(kind, 0)
                    for s in self.per_program.values())
        return total / self.penalty_cycles if self.penalty_cycles else 0.0

    def penalty_bep(self, kind) -> float:
        """Suite BEP contribution of one penalty kind."""
        total = sum(s.event_cycles.get(kind, 0)
                    for s in self.per_program.values())
        return total / self.n_branches if self.n_branches else 0.0


def run_suite(suite: str, config: EngineConfig, budget: int,
              engine_factory: Callable = None,
              label: str = None) -> SuiteAggregate:
    """Run one engine configuration over a full sub-suite.

    ``engine_factory`` defaults to the dual-block engine; pass
    ``SingleBlockEngine`` for single-block experiments.  A fresh engine
    (cold tables) is created per program, as in per-benchmark simulation.

    The cells go through :func:`repro.runtime.executor.run_suite_specs`,
    so ``REPRO_JOBS`` fans them out over worker processes; results are
    merged in suite order and identical to a serial run.
    """
    return run_suite_batch(
        [SuiteSpec(suite=suite, config=config, budget=budget,
                   engine_factory=engine_factory)], label=label)[0]


def run_suite_batch(specs: List[SuiteSpec], label: str = None,
                    jobs: Optional[int] = None) -> List[SuiteAggregate]:
    """Run several suite sweeps as one fan-out (one aggregate per spec).

    Batching lets ``jobs`` workers (default ``REPRO_JOBS``) drain the
    cells of *all* requested configurations, program by program, instead
    of synchronising per configuration.  ``label`` names the sweep in
    :class:`~repro.runtime.resilience.SweepReport`\\ s and keys its
    checkpoint journal, so an interrupted labeled run resumes from its
    completed cells.
    """
    return run_suite_specs(specs, jobs=jobs, label=label)


def run_single_block_suite(suite: str, config: EngineConfig,
                           budget: int) -> SuiteAggregate:
    """Suite run on the single-block engine."""
    return run_suite(suite, config, budget,
                     engine_factory=SingleBlockEngine)


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Minimal fixed-width table formatter for benchmark output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
