"""Table 5 — target array configurations (SPECint95, dual block).

Sweeps BTB block-entry counts {8, 16, 32, 64} (4-way, LRU) and NLS entry
counts {64, 128, 256, 512}, each with near-block encoding off and on,
reporting the share of BEP due to immediate and indirect misfetches plus
total BEP and IPC_f.  The paper's findings: roughly eight NLS block
entries match one 4-way BTB entry, ~70% of conditional branches are
near-block, and near-block encoding halves the required entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..core.config import EngineConfig, TARGET_BTB, TARGET_NLS
from ..core.penalties import PenaltyKind
from ..icache.geometry import CacheGeometry
from ..runtime.executor import SuiteSpec
from .common import format_table, instruction_budget, run_suite_batch

DEFAULT_BTB_SIZES = (8, 16, 32, 64)

#: The paper sweeps NLS sizes 64..512 against SPEC95-scale code
#: footprints; our analogs keep ~8x fewer lines hot, so the default NLS
#: sweep is scaled down by NLS_FOOTPRINT_SCALE (the BTB sweep needs no
#: scaling — its capacity misses depend on entry count, not footprint).
NLS_FOOTPRINT_SCALE = 8
PAPER_NLS_SIZES = (64, 128, 256, 512)
DEFAULT_NLS_SIZES = tuple(s // NLS_FOOTPRINT_SCALE for s in PAPER_NLS_SIZES)


@dataclass(frozen=True)
class Table5Row:
    """One target-array configuration row of Table 5."""

    target_kind: str
    n_block_entries: int
    paper_equivalent: int    #: paper-sweep size this row stands in for
    near_block: bool
    misfetch_immediate_share: float  #: %BEP from immediate misfetches
    misfetch_indirect_share: float   #: %BEP from indirect misfetches
    bep: float
    ipc_f: float


def run_table5(btb_sizes: Iterable[int] = DEFAULT_BTB_SIZES,
               nls_sizes: Iterable[int] = DEFAULT_NLS_SIZES,
               budget: int = None,
               jobs: Optional[int] = None) -> List[Table5Row]:
    """Reproduce Table 5 (SPECint95, dual block, single selection)."""
    budget = budget or instruction_budget()
    geometry = CacheGeometry.normal(8)
    points = [(target_kind, size, near_block)
              for target_kind, size in
              ([(TARGET_BTB, s) for s in btb_sizes] +
               [(TARGET_NLS, s) for s in nls_sizes])
              for near_block in (False, True)]
    aggregates = run_suite_batch([
        SuiteSpec(suite="int",
                  config=EngineConfig(geometry=geometry,
                                      target_kind=target_kind,
                                      target_entries=size,
                                      near_block=near_block),
                  budget=budget)
        for target_kind, size, near_block in points], label="table5",
        jobs=jobs)
    rows = []
    for (target_kind, size, near_block), agg in zip(points, aggregates):
        scale = (NLS_FOOTPRINT_SCALE if target_kind == TARGET_NLS
                 else 1)
        rows.append(Table5Row(
            target_kind=target_kind,
            n_block_entries=size,
            paper_equivalent=size * scale,
            near_block=near_block,
            misfetch_immediate_share=agg.penalty_share(
                PenaltyKind.MISFETCH_IMMEDIATE),
            misfetch_indirect_share=agg.penalty_share(
                PenaltyKind.MISFETCH_INDIRECT),
            bep=agg.bep,
            ipc_f=agg.ipc_f,
        ))
    return rows


def format_table5(rows: List[Table5Row]) -> str:
    """Render the rows as the paper's Table 5 reads."""
    table = [[row.target_kind.upper(),
              (str(row.n_block_entries)
               if row.paper_equivalent == row.n_block_entries
               else f"{row.n_block_entries} (~{row.paper_equivalent})"),
              "yes" if row.near_block else "no",
              f"{100 * row.misfetch_immediate_share:.1f}",
              f"{100 * row.misfetch_indirect_share:.1f}",
              f"{row.bep:.3f}", f"{row.ipc_f:.2f}"]
             for row in rows]
    return format_table(
        ["type", "# blk entries", "near-block?", "%BEP imm", "%BEP ind",
         "BEP", "IPC_f"], table)
