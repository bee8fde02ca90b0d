"""Phase timing for sweeps (``REPRO_PROFILE=1``).

When enabled, the runtime accounts wall-clock per phase — trace
generation, block segmentation, kernel compilation, engine execution and
aggregation — prints a per-cell breakdown to stderr as cells finish, and
attaches the sweep-level totals to the
:class:`~repro.runtime.resilience.SweepReport`.

A worker process runs each cell under :func:`capture`, which holds the
cell's phase delta and per-cell lines back and returns them with the
result as a :class:`Captured`; the sweep's parent process replays them
(:meth:`Captured.replay`), so the per-cell lines all come from one
process and the report covers worker phases as well as its own.

Profiling never changes a simulated number; it only reads clocks around
existing work.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Environment variable enabling phase timing.
PROFILE_ENV = "REPRO_PROFILE"

#: Canonical phase order for display.
PHASES = ("trace", "segment", "compile", "engine", "aggregate")

_FALSE = {"", "0", "off", "no", "false", "none"}
_TRUE = {"1", "on", "yes", "true"}

_totals: Dict[str, float] = {}

#: One per-cell line: label, phase seconds, tags.
CellLine = Tuple[str, Dict[str, float], Optional[Dict[str, str]]]

#: Per-cell lines held back by :func:`capture` (``None``: print them).
_held: Optional[List[CellLine]] = None


def enabled() -> bool:
    """Whether phase timing is on (``REPRO_PROFILE``).

    Unset/empty/0/off = disabled; 1/on/yes/true = enabled.  Anything
    else raises a :class:`ValueError` naming the variable, so typos fail
    eagerly like every other runtime knob.
    """
    raw = os.environ.get(PROFILE_ENV)
    if raw is None:
        return False
    text = raw.strip().lower()
    if text in _FALSE:
        return False
    if text in _TRUE:
        return True
    raise ValueError(
        f"{PROFILE_ENV} must be a boolean ('1'/'0', 'on'/'off'), "
        f"got {raw!r}")


def record(name: str, seconds: float) -> None:
    """Accumulate ``seconds`` against phase ``name``."""
    _totals[name] = _totals.get(name, 0.0) + seconds


@contextmanager
def phase(name: str):
    """Time the enclosed work as one slice of phase ``name``.

    A no-op (beyond one env read) when profiling is off, so call sites
    can wrap hot paths unconditionally.
    """
    if not enabled():
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        record(name, time.perf_counter() - t0)


def snapshot() -> Dict[str, float]:
    """Copy of the phase totals accumulated so far in this process."""
    return dict(_totals)


def delta_since(base: Dict[str, float]) -> Dict[str, float]:
    """Phase seconds accumulated since ``base`` (a prior snapshot)."""
    out = {}
    for name, total in _totals.items():
        diff = total - base.get(name, 0.0)
        if diff > 0.0:
            out[name] = diff
    return out


def reset() -> None:
    """Drop all accumulated totals (tests)."""
    _totals.clear()


@dataclass
class Captured:
    """A cell's result travelling with the profile it produced."""

    value: Any
    phases: Dict[str, float]
    lines: List[CellLine]

    def replay(self, shard: Optional[int] = None) -> Any:
        """Account the phases here, print the lines, return the value.

        Under a sharded sweep ``shard`` labels each line (``s<k>/``), so
        every cell stays attributable to its home shard.
        """
        for name, seconds in self.phases.items():
            record(name, seconds)
        for label, phases, tags in self.lines:
            emit_cell(label, phases, tags, shard=shard)
        return self.value


def capture(fn: Callable[[Any], Any], cell: Any) -> Captured:
    """Run ``fn(cell)``, holding back its profile for the parent."""
    global _held
    base = snapshot()
    held: List[CellLine] = []
    _held = held
    try:
        value = fn(cell)
    finally:
        _held = None
    return Captured(value, delta_since(base), held)


def format_phases(phases: Dict[str, float]) -> str:
    """Render phase seconds in canonical order, e.g. ``engine=1.203s``."""
    names = [p for p in PHASES if p in phases]
    names += [p for p in sorted(phases) if p not in PHASES]
    return " ".join(f"{name}={phases[name]:.3f}s" for name in names)


def emit_cell(label: str, phases: Dict[str, float],
              tags: Optional[Dict[str, str]] = None,
              shard: Optional[int] = None) -> None:
    """Print one cell's phase breakdown to stderr.

    ``tags`` follow the phases as ``name=value`` (e.g. ``front=hit``);
    ``shard`` prefixes the label with ``s<k>/``.  Inside :func:`capture`
    the line is held back for the parent instead of printed.
    """
    if _held is not None:
        _held.append((label, phases, tags))
        return
    if shard is not None:
        label = f"s{shard}/{label}"
    text = format_phases(phases)
    if tags:
        text = " ".join([text] + [f"{k}={v}" for k, v in tags.items()])
    print(f"[profile] {label}: {text}", file=sys.stderr)
