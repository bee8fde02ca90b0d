"""The default pure-numpy backend (``REPRO_BACKEND=numpy``).

Runs the shared vectorized front half of :mod:`repro.core.fast` and
then the reference serial residual loops (select tables, target
arrays) exactly as the fast tier always has — this backend *is* the
pre-backend behaviour, preserved bit for bit.
"""

from __future__ import annotations

from typing import Any

from .base import KernelBackend


class NumpyBackend(KernelBackend):
    """Baseline backend: the pure-numpy kernels."""

    name = "numpy"

    def run_single(self, engine: Any, fetch_input: Any) -> Any:
        from .. import fast
        run, stats = fast._prep_single(engine, fetch_input)
        if run.n == 0:
            return stats
        return fast._residual_single_numpy(engine, run, stats)

    def run_dual(self, engine: Any, fetch_input: Any) -> Any:
        from .. import fast
        run, stats = fast._prep_dual(engine, fetch_input)
        if run.n == 0:
            return stats
        return fast._residual_dual_numpy(engine, run, stats)

    def run_multi(self, engine: Any, fetch_input: Any) -> Any:
        from .. import fast
        run, stats = fast._prep_multi(engine, fetch_input)
        if run.n == 0:
            return stats
        return fast._residual_multi_numpy(engine, run, stats)

    def run_two_ahead(self, engine: Any, fetch_input: Any) -> Any:
        from .. import fast
        run, stats = fast._prep_two_ahead(engine, fetch_input)
        if run.n == 0:
            return stats
        return fast._residual_two_ahead_numpy(engine, run, stats)
