"""Figure 7 — BIT table size: BEP contribution and fetch rate.

"Different BIT table sizes were simulated to evaluate its impact.  Using
single block fetching, Figure 7 shows the BEP contribution from inaccurate
BIT information (bar).  Also shown is the IPC_f (line).  Small sized BIT
tables result in poor performance.  Only until about 2048 entries does the
percentage of BEP drop below 5%."

**Footprint scaling.**  The BIT-size experiment only bites while the table
holds fewer lines than the workload's active code footprint.  SPEC95
binaries keep thousands of i-cache lines hot; our analog programs average
~40 lines of text.  The sweep therefore runs at sizes scaled down by
``FOOTPRINT_SCALE`` (64x), and each row records the paper-equivalent size
it stands in for — the *shape* (BIT share of BEP falling below 5% two
steps before the top of the sweep) is the reproduced result.  Pass
``scaled=False`` to sweep the paper's literal sizes instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..core.config import EngineConfig
from ..core.penalties import PenaltyKind
from ..core.single import SingleBlockEngine
from ..icache.geometry import CacheGeometry
from ..runtime.executor import SuiteSpec
from .common import (
    SUITES,
    format_table,
    instruction_budget,
    run_suite_batch,
)

#: The paper's swept sizes.
PAPER_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)

#: Ratio of SPEC95 active code footprint to our analogs' (~2500 vs ~40
#: hot lines).
FOOTPRINT_SCALE = 64

#: Scaled sweep reproducing the figure's shape at our footprint.
DEFAULT_SIZES = tuple(max(1, s // FOOTPRINT_SCALE) for s in PAPER_SIZES)


@dataclass(frozen=True)
class Fig7Row:
    """One (suite, BIT entries) point of Figure 7."""

    suite: str
    bit_entries: int
    paper_equivalent: Optional[int]  #: the paper size this stands in for
    bit_share_of_bep: float          #: fraction of BEP due to stale BIT
    ipc_f: float
    bep: float


def run_fig7(sizes: Iterable[int] = None, budget: int = None,
             scaled: bool = True,
             jobs: Optional[int] = None) -> List[Fig7Row]:
    """Reproduce Figure 7's sweep (single-block engine, separate BIT)."""
    budget = budget or instruction_budget()
    if sizes is None:
        sizes = DEFAULT_SIZES if scaled else PAPER_SIZES
    sizes = tuple(sizes)
    geometry = CacheGeometry.normal(8)
    points = [(suite, entries) for suite in SUITES for entries in sizes]
    aggregates = run_suite_batch([
        SuiteSpec(suite=suite,
                  config=EngineConfig(geometry=geometry,
                                      bit_entries=entries),
                  budget=budget,
                  engine_factory=SingleBlockEngine)
        for suite, entries in points], label="fig7", jobs=jobs)
    rows = []
    for (suite, entries), agg in zip(points, aggregates):
        rows.append(Fig7Row(
            suite=suite,
            bit_entries=entries,
            paper_equivalent=(entries * FOOTPRINT_SCALE
                              if scaled else None),
            bit_share_of_bep=agg.penalty_share(PenaltyKind.BIT),
            ipc_f=agg.ipc_f,
            bep=agg.bep,
        ))
    return rows


def format_fig7(rows: List[Fig7Row]) -> str:
    """Render the rows as the paper's Figure 7 reads."""
    table = []
    for row in rows:
        label = str(row.bit_entries)
        if row.paper_equivalent is not None:
            label = f"{row.bit_entries} (~{row.paper_equivalent})"
        table.append([row.suite, label,
                      f"{100 * row.bit_share_of_bep:.1f}%",
                      f"{row.bep:.3f}", f"{row.ipc_f:.2f}"])
    return format_table(
        ["suite", "BIT entries (paper-eq)", "%BEP from BIT", "BEP",
         "IPC_f"], table)
