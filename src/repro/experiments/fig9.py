"""Figure 9 — per-program BEP broken down by misprediction category.

"Using a self-aligned cache, 8 STs, and a branch history length of 10,
Figure 9 shows the BEP of each program and the contribution of BEP by each
type of misprediction. ... The most significant BEP contribution is from
misprediction of conditional branches.  Misselection is the next most
significant contribution."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.config import EngineConfig
from ..core.penalties import PenaltyKind
from ..icache.geometry import CacheGeometry
from ..runtime.executor import SuiteSpec
from ..workloads import SPECFP95, SPECINT95
from .common import format_table, instruction_budget, run_suite_batch

#: Stacking order used in the paper's legend (bottom to top).
STACK_ORDER = (
    PenaltyKind.COND,
    PenaltyKind.MISSELECT,
    PenaltyKind.GHR,
    PenaltyKind.MISFETCH_IMMEDIATE,
    PenaltyKind.MISFETCH_INDIRECT,
    PenaltyKind.RETURN,
    PenaltyKind.BANK_CONFLICT,
)


@dataclass(frozen=True)
class Fig9Row:
    """One program's stacked BEP bar."""

    program: str
    suite: str
    bep: float
    components: Dict[PenaltyKind, float]  #: BEP contribution per category


def run_fig9(budget: int = None,
             jobs: Optional[int] = None) -> List[Fig9Row]:
    """Reproduce Figure 9 (two-block single-selection, self-aligned)."""
    budget = budget or instruction_budget()
    config = EngineConfig(
        geometry=CacheGeometry.self_aligned(8),
        history_length=10,
        n_select_tables=8,
    )
    suites = (("fp", SPECFP95), ("int", SPECINT95))
    aggregates = run_suite_batch([
        SuiteSpec(suite=suite, config=config, budget=budget)
        for suite, _ in suites], label="fig9", jobs=jobs)
    rows = []
    for (suite, names), aggregate in zip(suites, aggregates):
        for name in names:
            stats = aggregate.per_program[name]
            components = {
                kind: stats.bep_component(kind) for kind in STACK_ORDER
            }
            rows.append(Fig9Row(program=name, suite=suite, bep=stats.bep,
                                components=components))
    return rows


def format_fig9(rows: List[Fig9Row]) -> str:
    """Render the rows as the paper's Figure 9 reads."""
    headers = ["program", "suite", "BEP"] + \
        [kind.value for kind in STACK_ORDER]
    table = []
    for row in rows:
        table.append([row.program, row.suite, f"{row.bep:.3f}"] +
                     [f"{row.components[kind]:.3f}"
                      for kind in STACK_ORDER])
    return format_table(headers, table)
