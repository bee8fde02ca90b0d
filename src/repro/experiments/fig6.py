"""Figure 6 — conditional branch accuracy: blocked PHT vs scalar PHT.

"The branch history length varied from 6 to 12, and the results were
compared to a scalar PHT.  The scalar scheme used a per-addr PHT with 8
PHTs to give it equal size of a blocked PHT for B = 8."

For each history length and sub-suite, the runner reports the blocked
misprediction rate and the improvement (in percentage points) of the
blocked scheme over the equal-sized scalar scheme.  The paper's finding:
the difference is tiny (hundredths of a percent for fp, tenths for int),
usually favouring the blocked PHT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..icache.geometry import CacheGeometry
from ..predictors.evaluate import direction_accuracy_sweep
from ..runtime.executor import execute
from ..workloads import load_fetch_input
from .common import SUITES, format_table, instruction_budget


@dataclass(frozen=True)
class Fig6Row:
    """One (suite, history length) point of Figure 6."""

    suite: str
    history_length: int
    blocked_rate: float       #: blocked-PHT misprediction rate
    scalar_rate: float        #: equal-sized scalar misprediction rate

    @property
    def improvement(self) -> float:
        """Percentage-point improvement of blocked over scalar."""
        return self.scalar_rate - self.blocked_rate


def _fig6_cell(cell: Tuple[str, int, int, Tuple[int, ...]]):
    """Worker: one workload's full history-length sweep, both schemes."""
    name, budget, block_width, history_lengths = cell
    geometry = CacheGeometry.normal(block_width)
    fetch_input = load_fetch_input(name, geometry, budget)
    return direction_accuracy_sweep(fetch_input.trace, fetch_input.blocks,
                                    history_lengths, block_width)


def run_fig6(history_lengths: Iterable[int] = range(6, 13),
             budget: int = None,
             block_width: int = 8,
             jobs: Optional[int] = None) -> List[Fig6Row]:
    """Reproduce Figure 6's sweep.

    One cell per workload — each runs the vectorized
    :func:`direction_accuracy_sweep` over every history length for both
    schemes — fanned out over ``jobs`` workers (default ``REPRO_JOBS``),
    keyed by program, and merged per (suite, history length) in
    canonical order, so parallel results match serial ones.
    """
    budget = budget or instruction_budget()
    hs = tuple(history_lengths)
    names = [name for suite_names in SUITES.values()
             for name in suite_names]
    cells = [(name, budget, block_width, hs) for name in names]
    sweeps = dict(zip(names, execute(_fig6_cell, cells, jobs,
                                     label="fig6", groups=names)))

    rows = []
    for suite, suite_names in SUITES.items():
        for h in hs:
            blocked_miss = blocked_cond = 0
            scalar_miss = scalar_cond = 0
            for name in suite_names:
                blocked, scalar = sweeps[name][h]
                blocked_miss += blocked.mispredicts
                blocked_cond += blocked.n_cond
                scalar_miss += scalar.mispredicts
                scalar_cond += scalar.n_cond
            rows.append(Fig6Row(
                suite=suite,
                history_length=h,
                blocked_rate=blocked_miss / blocked_cond,
                scalar_rate=scalar_miss / scalar_cond,
            ))
    return rows


def format_fig6(rows: List[Fig6Row]) -> str:
    """Render rows the way the paper's Figure 6 reads."""
    table = [[row.suite, str(row.history_length),
              f"{100 * row.blocked_rate:.2f}%",
              f"{100 * row.scalar_rate:.2f}%",
              f"{100 * row.improvement:+.3f}pp"]
             for row in rows]
    return format_table(
        ["suite", "hist", "blocked miss", "scalar miss", "improvement"],
        table)
