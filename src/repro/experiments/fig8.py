"""Figure 8 — single vs double selection across GHR lengths and ST counts.

"The global history register length varies from 9 to 12.  There can be 1,
2, 4, or 8 STs. ... increasing the number of STs improves performance as
well as increasing the branch history length.  The extra penalties from
using double selection significantly reduced performance, roughly 10% for
most cases."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..core.config import EngineConfig
from ..core.penalties import DOUBLE_SELECT, SINGLE_SELECT
from ..icache.geometry import CacheGeometry
from ..runtime.executor import SuiteSpec
from .common import (SUITES, format_table, instruction_budget,
                     run_suite_batch)

DEFAULT_HISTORY = (9, 10, 11, 12)
DEFAULT_TABLES = (1, 2, 4, 8)


@dataclass(frozen=True)
class Fig8Row:
    """One (suite, selection, history, #STs) point of Figure 8."""

    suite: str
    selection: str
    history_length: int
    n_select_tables: int
    ipc_f: float
    bep: float


def run_fig8(history_lengths: Iterable[int] = DEFAULT_HISTORY,
             table_counts: Iterable[int] = DEFAULT_TABLES,
             budget: int = None,
             jobs: Optional[int] = None) -> List[Fig8Row]:
    """Reproduce Figure 8's sweep (dual-block engine, normal cache)."""
    budget = budget or instruction_budget()
    geometry = CacheGeometry.normal(8)
    history_lengths = tuple(history_lengths)
    table_counts = tuple(table_counts)
    selections = (SINGLE_SELECT, DOUBLE_SELECT)
    # Cells run history-major: the eight configurations of one PHT
    # front (selection x #ST) follow each other, so a worker that takes
    # the back of a program's cells shares at most one front with the
    # worker running the front of them.
    runs = [(suite, selection, h, n_st)
            for suite in SUITES
            for h in history_lengths
            for selection in selections
            for n_st in table_counts]
    aggregates = dict(zip(runs, run_suite_batch([
        SuiteSpec(suite=suite,
                  config=EngineConfig(geometry=geometry,
                                      history_length=h,
                                      n_select_tables=n_st,
                                      selection=selection),
                  budget=budget)
        for suite, selection, h, n_st in runs], label="fig8",
        jobs=jobs)))
    return [Fig8Row(
        suite=suite,
        selection=selection,
        history_length=h,
        n_select_tables=n_st,
        ipc_f=agg.ipc_f,
        bep=agg.bep,
    ) for suite in SUITES
        for selection in selections
        for h in history_lengths
        for n_st in table_counts
        for agg in (aggregates[suite, selection, h, n_st],)]


def format_fig8(rows: List[Fig8Row]) -> str:
    """Render the rows as the paper's Figure 8 reads."""
    table = [[row.suite, row.selection,
              f"{row.history_length}/{row.n_select_tables}",
              f"{row.ipc_f:.2f}", f"{row.bep:.3f}"]
             for row in rows]
    return format_table(["suite", "selection", "hist/#ST", "IPC_f", "BEP"],
                        table)
