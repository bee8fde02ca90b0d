"""Kernel-backend ABI for the vectorized fetch engines.

A backend implements the narrow kernel contract the fast tier is built
from — counter-bank scan, walk resolution, selector decode, penalty
bulk-charge, and the keyed last-write replay that resolves select-table
and target-array aliasing — behind the existing ``FetchInput`` ->
``FetchStats`` boundary.  The four engines never see a backend: they
call ``repro.core.fast.run_*_fast``, which dispatches to
:func:`repro.core.backends.active_backend`, so new tiers slot in
without touching the engines.

:func:`replay_last_write` is the primitive that removes the fast
tier's remaining per-block Python loops.  Select tables and target
arrays are tag-less direct-mapped stores, so one engine run is a
time-ordered stream of (key, observe, maybe-write) events; the
vectorized form groups events by key with a stable argsort and
resolves each observation to the latest preceding write inside its key
segment — the same segmented-maximum idiom as
``kernels.stale_bit_windows``.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np
from numpy import typing as npt

IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]

#: (observed, final_keys, final_values) of one replayed event stream.
ReplayResult = Tuple[IntArray, IntArray, IntArray]


def replay_last_write(keys: IntArray, values: IntArray,
                      writes: BoolArray, init: IntArray) -> ReplayResult:
    """Replay a keyed observe-then-maybe-write event stream.

    Event ``i`` (in time order) observes the state stored under
    ``keys[i]`` *before* the event, then — when ``writes[i]`` — stores
    ``values[i]`` there.  Returns the per-event observations plus the
    final state of every key that received at least one write event
    (``final_keys`` ascending).  A write event always counts, even when
    it stores the value already present: the scalar engines replace
    cold ``None`` entries with real objects on every write, and state
    parity requires mirroring that.
    """
    m = int(keys.shape[0])
    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    from ...predictors.evaluate import _grouping_order
    order = _grouping_order(keys)
    k_s = keys[order]
    w_s = writes[order]
    v_s = values[order]
    idx = np.arange(m, dtype=np.int64)
    seg_start = np.ones(m, dtype=bool)
    seg_start[1:] = k_s[1:] != k_s[:-1]
    # Index of each event's segment start (its key's first event).
    seg_first = np.maximum.accumulate(np.where(seg_start, idx, np.int64(0)))
    # Index of the latest write event at or before each position.
    wpos = np.where(w_s, idx, np.int64(-1))
    last_w = np.maximum.accumulate(wpos)
    prev = np.empty(m, dtype=np.int64)
    prev[0] = -1
    prev[1:] = last_w[:-1]
    # A preceding write is visible only when it falls inside the same
    # key segment; otherwise the event reads the seeded initial state.
    valid = prev >= seg_first
    observed_s = np.where(valid, v_s[np.maximum(prev, np.int64(0))],
                          init[k_s])
    observed = np.empty(m, dtype=np.int64)
    observed[order] = observed_s
    seg_end = np.ones(m, dtype=bool)
    seg_end[:-1] = seg_start[1:]
    written = seg_end & (last_w >= seg_first)
    final_keys = np.asarray(k_s[written], dtype=np.int64)
    final_values = np.asarray(v_s[np.maximum(last_w, np.int64(0))][written],
                              dtype=np.int64)
    return np.asarray(observed, dtype=np.int64), final_keys, final_values


class KernelBackend:
    """The kernel contract every ``REPRO_BACKEND`` tier implements.

    The four ``run_*`` entry points share the vectorized front half of
    ``repro.core.fast`` (counter scan, walk resolution, divergence
    charges, RAS replay); backends differ in how they execute the
    residual select-table / target-array replay.  The narrow helper
    methods exist so generated kernels (and future tiers) route every
    primitive through the backend object.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    # -- narrow kernel contract ----------------------------------------

    def scan_counters(self, *args: Any, **kwargs: Any) -> Any:
        """Counter-bank scan (see :func:`repro.core.kernels.scan_counters`)."""
        from ..kernels import scan_counters
        return scan_counters(*args, **kwargs)

    def resolve_walks(self, *args: Any, **kwargs: Any) -> Any:
        """Block-walk resolution (see :func:`repro.core.kernels.resolve_walks`)."""
        from ..kernels import resolve_walks
        return resolve_walks(*args, **kwargs)

    def decode_select_entry(self, width: int, sel: int, pay: int) -> Any:
        """Selector decode back into a ``SelectEntry``."""
        from ..fast import _decode_select_entry
        return _decode_select_entry(width, sel, pay)

    def charge(self, stats: Any, kind: Any, count: int,
               cycles: int) -> None:
        """Penalty bulk-charge (pre-summed events, no zero-count keys)."""
        from ..fast import _charge_bulk
        _charge_bulk(stats, kind, count, cycles)

    def replay(self, keys: IntArray, values: IntArray,
               writes: BoolArray, init: IntArray) -> ReplayResult:
        """Keyed last-write replay; see :func:`replay_last_write`."""
        return replay_last_write(keys, values, writes, init)

    # -- engine entry points --------------------------------------------

    def run_single(self, engine: Any, fetch_input: Any) -> Any:
        """Vectorized ``SingleBlockEngine.run``."""
        raise NotImplementedError

    def run_dual(self, engine: Any, fetch_input: Any) -> Any:
        """Vectorized ``DualBlockEngine.run``."""
        raise NotImplementedError

    def run_multi(self, engine: Any, fetch_input: Any) -> Any:
        """Vectorized ``MultiBlockEngine.run``."""
        raise NotImplementedError

    def run_two_ahead(self, engine: Any, fetch_input: Any) -> Any:
        """Vectorized ``TwoBlockAheadEngine.run``."""
        raise NotImplementedError
