"""One-shot report generator: every paper artifact in one markdown file.

``python -m repro report`` (or :func:`generate_report`) runs all seven
figure/table runners at the configured budget and renders a single
markdown document with the regenerated tables, suitable for committing
next to EXPERIMENTS.md after a long high-budget run.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

from .common import instruction_budget
from .fig6 import format_fig6, run_fig6
from .fig7 import format_fig7, run_fig7
from .fig8 import format_fig8, run_fig8
from .fig9 import format_fig9, run_fig9
from .table5 import format_table5, run_table5
from .table6 import format_table6, run_table6
from .table7 import format_table7, run_multi_block_extrapolation, \
    run_table7

_SECTIONS = (
    ("Figure 6 — blocked vs scalar conditional accuracy",
     run_fig6, format_fig6),
    ("Figure 7 — separate BIT table size (footprint-scaled)",
     run_fig7, format_fig7),
    ("Figure 8 — single vs double selection",
     run_fig8, format_fig8),
    ("Table 5 — target-array configurations (SPECint95)",
     run_table5, format_table5),
    ("Table 6 — cache types, one vs two blocks",
     run_table6, format_table6),
    ("Figure 9 — per-program BEP breakdown",
     run_fig9, format_fig9),
)


def generate_report(budget: Optional[int] = None,
                    verbose: bool = False,
                    jobs: Optional[int] = None) -> str:
    """Run every experiment and return the rendered markdown.

    ``jobs`` is each sweep's worker count (default ``REPRO_JOBS``).
    """
    budget = budget or instruction_budget()
    parts = [
        "# Regenerated evaluation — Multiple Branch and Block Prediction",
        "",
        f"Instruction budget: {budget} per workload "
        f"(paper: 10^9).  See EXPERIMENTS.md for the paper-vs-measured "
        f"discussion and DESIGN.md for the substitutions.",
    ]
    for title, runner, formatter in _SECTIONS:
        started = time.time()
        rows = runner(budget=budget, jobs=jobs)
        elapsed = time.time() - started
        if verbose:
            print(f"{title}: {elapsed:.1f}s")
        parts.append(f"\n## {title}\n")
        parts.append("```")
        parts.append(formatter(rows))
        parts.append("```")
    parts.append("\n## Table 7 — hardware cost estimates\n")
    parts.append("```")
    parts.append(format_table7(run_table7()))
    parts.append("")
    parts.append(format_table7(run_multi_block_extrapolation(4)))
    parts.append("```")
    return "\n".join(parts) + "\n"


def write_report(path: str, budget: Optional[int] = None,
                 verbose: bool = False, jobs: Optional[int] = None) -> Path:
    """Generate the report and write it to ``path``."""
    target = Path(path)
    target.write_text(generate_report(budget=budget, verbose=verbose,
                                      jobs=jobs))
    return target
