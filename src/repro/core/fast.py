"""Vectorized fetch-engine runs (``REPRO_ENGINE=fast``).

Each ``run_*_fast`` function replays one engine's whole block stream
with the batched kernels of :mod:`repro.core.kernels`, falling back to
plain Python only at true serialization points: select-table and
target-array state (aliasing reads depend on earlier writes) and the
return-address stack.  Every number charged — and every piece of
predictor state left behind (PHT counters, select tables, target
arrays, RAS, BIT table) — is bit-identical to the scalar engines,
which ``tests/core/test_engine_parity.py`` locks down.

The scalar loops in ``single.py``/``dual.py``/``multi.py``/
``two_ahead.py`` remain the readable ground truth; the engines
dispatch here based on :func:`repro.core.engine_mode.use_fast_engine`.

Each run is split into a ``_prep_*`` front half (counter scan,
divergence charges, RAS replay — everything vectorizable without
aliasing state) and a ``_residual_*`` back half that replays the
select-table and target-array event streams through the keyed
last-write replay (:func:`repro.core.kernels.replay_last_write`), one
stream per table.  The PHT and RAS part of the front half is shared
across runs that differ only in selection scheme or select tables, and
so is everything derived from it that no configuration changes: the
divergence masks and the replays of select tables and target arrays
that start fresh (see *Shared PHT front* below and
``docs/performance.md``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..icache.geometry import SELF_ALIGNED
from ..predictors.evaluate import _grouping_order, packed_history
from ..predictors.ghr import BlockOutcomes
from ..targets.bit import BitCode
from ..targets.btb import BlockBTB
from ..targets.nls import DualNLSTargetArray, NLSTargetArray
from .engine_common import K_CALL, K_COND, K_INDIRECT, K_JUMP, K_RETURN
from .kernels import (
    CODE_COND_LONG,
    CompiledBlocks,
    WalkArrays,
    compile_fetch_input,
    decode_selector,
    encode_selector,
    pair_conflicts,
    replay_last_write,
    resolve_walks,
    scan_counters,
    stale_bit_windows,
)
from .penalties import (
    DOUBLE_SELECT,
    PenaltyKind,
    SINGLE_SELECT,
    penalty_cycles,
    penalty_cycles_slot,
)
from .select_table import DualSelectEntry, SelectEntry
from .selection import SRC_NEAR
from .stats import FetchStats

_GEOMETRY_ERROR = ("fetch input was segmented under a different "
                   "cache geometry")


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

def _charge_bulk(stats: FetchStats, kind: PenaltyKind, count: int,
                 cycles: int) -> None:
    """Fold ``count`` pre-summed events into the stats dicts.

    Matches ``count`` scalar ``charge`` calls; like them, it never
    creates a key for categories that did not occur.
    """
    if count:
        stats.event_counts[kind] = stats.event_counts.get(kind, 0) + count
        stats.event_cycles[kind] = (stats.event_cycles.get(kind, 0)
                                    + cycles)


# ----------------------------------------------------------------------
# Shared PHT front
# ----------------------------------------------------------------------
#
# The counter scan, walks, PHT bases and PHT write-back depend only on
# the compiled block stream, the PHT shape and its starting counters;
# the RAS replay only on the block stream and the starting stack.
# Neither reads the select tables, the target arrays or the selection
# scheme, so a sweep that varies only those (Figure 8's selection x
# #ST axes) resolves each (input, history length) front once and
# replays it from this LRU.  Entries are compact and read-only; each
# holds its ``CompiledBlocks``, so the ``id`` in its key is never
# reused while the entry lives.
#
# A walk front also carries what later phases derive from it alone
# (``_WalkFront.derived``): the divergence masks, and the residual
# replays of select tables and target arrays that start fresh.  Those
# keys name the engine's slot layout (``_Layout``) and the table or
# array shape, since engines that share a walk do not share slots.  A
# table that does not start fresh is replayed afresh, and runs with a
# separate BIT table (no front) share nothing.

#: Front LRU bound: one walk and one RAS entry for every program of one
#: spec stride over the largest suite (the 10 SPECfp95 analogs), so
#: consecutive sweep specs over the same inputs hit.
FRONT_CAP = 2 * 10

_front: "OrderedDict[tuple, object]" = OrderedDict()
_front_lookups = {"hit": 0, "miss": 0}
#: Per residual kind: [shared results reused, replays computed].
_residual_lookups = {"select": [0, 0], "target": [0, 0]}


@dataclass(frozen=True)
class _WalkFront:
    """A resolved PHT front: walks, bases and the counter write-back."""

    compiled: CompiledBlocks
    walk: WalkArrays
    base: np.ndarray          #: int32[n] flat PHT entry base per block
    final_slots: np.ndarray   #: int32 written PHT slots, ascending
    final_states: np.ndarray  #: int8 their post-run counter states
    #: Configuration-independent results derived from this front.
    derived: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class _RasFront:
    """A replayed RAS: return-exit peeks and the stack's end state."""

    compiled: CompiledBlocks
    ret_peeks: np.ndarray     #: int64 top of stack at each return exit
    slots: Tuple[int, ...]
    top: int
    depth: int


@dataclass(frozen=True)
class _Layout:
    """How an engine maps blocks to fetch slots and anchors."""

    kind: str    #: engine family ("single", "dual", "multi", "two_ahead")
    group: int   #: blocks fetched together (= fetch slots)
    ahead: bool  #: blocks index through the previous block's address


@dataclass(frozen=True)
class _Divergence:
    """Per-block walk-vs-actual classes, fixed by the front."""

    match: np.ndarray      #: bool[n] predicted exit == actual exit
    early: np.ndarray      #: bool[n] predicted exit before the actual
    late: np.ndarray       #: bool[n] predicted exit after the actual
    remaining: np.ndarray  #: bool[n] instructions follow the predicted exit
    near_ok: np.ndarray    #: bool[n] match served by a near-block target
    mf: np.ndarray         #: uint8[n] misfetch kind (``misfetch_kinds``)


def _frozen(array: np.ndarray, dtype=None) -> np.ndarray:
    """``array`` (cast to ``dtype`` when given), marked read-only."""
    out = array if dtype is None else array.astype(dtype)
    out.flags.writeable = False
    return out


def _front_get(key: tuple):
    entry = _front.get(key)
    if entry is None:
        _front_lookups["miss"] += 1
    else:
        _front.move_to_end(key)
        _front_lookups["hit"] += 1
    return entry


def _front_put(key: tuple, entry) -> None:
    _front[key] = entry
    while len(_front) > FRONT_CAP:
        _front.popitem(last=False)


def clear_front_cache() -> None:
    """Drop every shared front and what was derived from it
    (``repro.workloads.clear_caches``)."""
    _front.clear()


def front_lookups() -> Tuple[int, int]:
    """``(hits, misses)`` of front lookups so far in this process."""
    return _front_lookups["hit"], _front_lookups["miss"]


def residual_lookups() -> Dict[str, Tuple[int, int]]:
    """``{"select"|"target": (shared, replayed)}`` so far in this process.

    ``select`` counts one per table stream, ``target`` one per target
    array replay; ``shared`` are results reused from a walk front,
    ``replayed`` those computed (to share, or afresh).
    """
    return {kind: (counts[0], counts[1])
            for kind, counts in _residual_lookups.items()}


def front_outcome(since: Tuple[int, int]) -> Optional[str]:
    """Front reuse since ``since``, a :func:`front_lookups` snapshot.

    ``"miss"`` if any lookup missed, ``"hit"`` if all of them hit,
    ``None`` if there were none.
    """
    hits, misses = front_lookups()
    if misses > since[1]:
        return "miss"
    return "hit" if hits > since[0] else None


class _Run:
    """Per-run bundle: compiled arrays, resolved walks, actuals."""

    def __init__(self, engine, fetch_input, ahead: bool = False) -> None:
        config = engine.config
        geometry = config.geometry
        if geometry != fetch_input.geometry:
            raise ValueError(_GEOMETRY_ERROR)
        self.config = config
        self.geometry = geometry
        self.width = geometry.block_width
        self.line_size = geometry.line_size
        self.pht = engine.pht
        self.compiled: CompiledBlocks = compile_fetch_input(
            fetch_input, config.near_block)
        self.n = self.compiled.n_blocks
        self.trace = fetch_input.trace
        self.ahead = ahead
        # With ``ahead`` indexing (two-block-ahead), block ``i`` indexes
        # the PHT and target arrays through block ``i-1``'s address.
        start = self.compiled.start
        self.anchor_start = (np.concatenate([start[:1], start[:-1]])
                             if ahead else start)
        self.walk: WalkArrays = None  # set by resolve()
        self.base = None
        self.front: Optional[_WalkFront] = None  # shared walk, if any
        self.stale_walk = None
        self.stale = None
        self.match = None    # divergence masks the residual replay
        self.near_ok = None  # reads, set by classify()
        self.mf = None

    def derive(self, key: tuple, compute: Callable, counter: str = None):
        """``compute()``, shared through the walk front under ``key``.

        Runs without a front (separate BIT table) and ``key=None``
        compute afresh.  ``counter`` names the :func:`residual_lookups`
        tally the lookup lands in.
        """
        derived = None if self.front is None or key is None \
            else self.front.derived
        value = None if derived is None else derived.get(key)
        hit = value is not None
        if not hit:
            value = compute()
            if derived is not None:
                derived[key] = value
        if counter is not None:
            _residual_lookups[counter][0 if hit else 1] += 1
        return value

    # -- PHT base indices ------------------------------------------------

    def pht_bases(self) -> np.ndarray:
        """Flat PHT entry base of every block (gshare over block addr).

        With ``ahead`` indexing, block ``i`` indexes through block
        ``i-1``'s address and pre-block GHR.
        """
        compiled = self.compiled
        pht = self.pht
        packed = packed_history(compiled.cond_taken,
                                self.config.history_length)
        before = compiled.conds_before
        if self.ahead:
            before = np.concatenate([before[:1], before[:-1]])
        ghr_vals = packed[before]
        addr = self.anchor_start // self.width
        entry = (ghr_vals ^ addr) & pht.mask
        return (addr % pht.n_tables * pht.n_entries + entry) * pht.block_width

    # -- counter scan + walks -------------------------------------------

    def resolve(self, bit_table=None) -> None:
        """Resolve every PHT read, walk every block, train, write back.

        With ``bit_table`` (single engine, Figure 7) the stale windows
        are resolved in the same scan and ``self.stale_walk`` is set;
        such runs never share a front.  Every other run looks its front
        up in the shared LRU first.
        """
        pht = self.pht
        if bit_table is not None:
            final_slots, final_states = self._scan(
                np.asarray(pht._counters, dtype=np.int64), bit_table)
        else:
            raw = bytes(pht._counters)
            key = ("walk", id(self.compiled), self.config.history_length,
                   pht.n_tables, pht.n_entries, pht.block_width,
                   self.width, self.ahead,
                   hashlib.blake2b(raw, digest_size=16).digest())
            front = _front_get(key)
            if front is None:
                final_slots, final_states = self._scan(
                    np.frombuffer(raw, dtype=np.uint8).astype(np.int64))
                front = _WalkFront(
                    self.compiled, self.walk, self.base,
                    _frozen(final_slots, np.int32),
                    _frozen(final_states, np.int8))
                _front_put(key, front)
            self.front = front
            self.walk = front.walk
            self.base = front.base
            final_slots, final_states = front.final_slots, front.final_states
        store = pht._counters
        for slot, state in zip(final_slots.tolist(), final_states.tolist()):
            store[slot] = state

    def _scan(self, counters: np.ndarray, bit_table=None):
        """Counter scan + walks from ``counters``; sets ``walk``/``base``.

        Returns the ``(final_slots, final_states)`` write-back.
        """
        compiled = self.compiled
        width = self.width
        self.base = _frozen(self.pht_bases(), np.int32)

        rb, cb = np.nonzero(compiled.window >= CODE_COND_LONG)
        read_blocks = rb
        read_slots = self.base[rb] + (compiled.start[rb] + cb) % width
        n_true = len(rb)
        srb = scb = None
        if bit_table is not None:
            init_lines = np.array(
                [-1 if line is None else line for line in bit_table._lines],
                dtype=np.int64)
            init_codes = np.zeros((bit_table.n_entries, self.line_size),
                                  dtype=np.uint8)
            for i, stored in enumerate(bit_table._codes):
                if stored is not None:
                    init_codes[i] = [int(code) for code in stored]
            self.stale = stale_bit_windows(
                compiled, self.line_size, bit_table.n_entries, width,
                init_lines, init_codes)
            srb, scb = np.nonzero(self.stale.window >= CODE_COND_LONG)
            read_blocks = np.concatenate([rb, srb])
            read_slots = np.concatenate(
                [read_slots,
                 self.base[srb] + (compiled.start[srb] + scb) % width])

        write_slots = self.base[compiled.cond_block] + compiled.cond_pos
        preds, final_slots, final_states = scan_counters(
            counters, read_blocks, read_slots, compiled.cond_block,
            write_slots, compiled.cond_taken)

        pred_mat = np.zeros(compiled.window.shape, dtype=bool)
        pred_mat[rb, cb] = preds[:n_true]
        self.walk = resolve_walks(compiled.window, width, pred_mat)
        _frozen(self.walk.sel)
        _frozen(self.walk.pay)
        if bit_table is not None:
            stale_mat = np.zeros(compiled.window.shape, dtype=bool)
            stale_mat[srb, scb] = preds[n_true:]
            self.stale_walk = resolve_walks(self.stale.window, width,
                                            stale_mat)
        return final_slots, final_states

    # -- divergence classes ---------------------------------------------

    def classify(self) -> _Divergence:
        """Divergence classes (halt blocks are never charged).

        Sets the ``match``/``near_ok``/``mf`` inputs of the residual
        replay; the classes depend only on the front, so they are
        derived once per front.
        """
        div = self.derive(("divergence",), self._divergence)
        self.match, self.near_ok, self.mf = div.match, div.near_ok, div.mf
        return div

    def _divergence(self) -> _Divergence:
        compiled = self.compiled
        walk = self.walk
        p = walk.pred_exit
        act = compiled.act_exit
        live = ~compiled.is_halt
        match = p == act
        return _Divergence(
            match=_frozen(match),
            early=_frozen((p < act) & live),
            late=_frozen((p > act) & live),
            remaining=_frozen((compiled.n_instr - 1 - p) > 0),
            near_ok=_frozen(match & (walk.src == SRC_NEAR)),
            mf=_frozen(self.misfetch_kinds()))

    @staticmethod
    def cond_charges(div: _Divergence, slot_arr, base_arr, slot2_extra,
                     late_extra: bool):
        """COND count/cycles per the engines' shared footnote rules.

        ``slot2_extra`` marks blocks that always pay +1 (second-slot
        re-fetch); first-slot EARLY blocks pay +1 when valid
        instructions remained; ``late_extra`` adds +1 on LATE when
        not-taken targets are untracked.
        """
        early, late = div.early, div.late
        charged = early | late
        cycles = base_arr[slot_arr] + slot2_extra.astype(np.int64)
        cycles += (~slot2_extra) & early & div.remaining
        if late_extra:
            cycles += late
        count = int(np.count_nonzero(charged))
        total = int(cycles[charged].sum()) if count else 0
        return count, total

    # -- RAS replay ------------------------------------------------------

    def replay_ras(self, ras) -> np.ndarray:
        """Drive the engine's RAS through the run's call/return exits.

        Returns each return-exit block's top-of-stack at its analysis
        point (-1 encodes an empty stack, which never matches a target).
        The replay depends only on the block stream and the starting
        stack, so it is shared through the front LRU.
        """
        compiled = self.compiled
        is_ret = compiled.has_exit & (compiled.exit_kind == K_RETURN)
        self.is_ret = is_ret
        key = ("ras", id(compiled), ras.size, tuple(ras._slots), ras._top,
               ras._depth)
        front = _front_get(key)
        if front is None:
            is_call = compiled.has_exit & (compiled.exit_kind == K_CALL)
            peeks = np.full(self.n, -1, dtype=np.int64)
            exit_pc = compiled.exit_pc.tolist()
            ret_flags = is_ret.tolist()
            for b in np.nonzero(is_ret | is_call)[0].tolist():
                if ret_flags[b]:
                    top = ras.peek(0)
                    if top is not None:
                        peeks[b] = top
                    ras.pop()
                else:
                    ras.push(exit_pc[b] + 1)
            _front_put(key, _RasFront(
                compiled, _frozen(peeks[is_ret]), tuple(ras._slots),
                ras._top, ras._depth))
            return peeks
        ras._slots = list(front.slots)
        ras._top = front.top
        ras._depth = front.depth
        peeks = np.full(self.n, -1, dtype=np.int64)
        peeks[is_ret] = front.ret_peeks
        return peeks

    # -- misfetch kinds --------------------------------------------------

    def misfetch_kinds(self) -> np.ndarray:
        """1 = immediate, 2 = indirect, 0 = none (returns excluded)."""
        compiled = self.compiled
        kind = compiled.exit_kind
        mf = np.zeros(self.n, dtype=np.uint8)
        mf[compiled.has_exit & (kind == K_COND)] = 1
        jump_call = compiled.has_exit & ((kind == K_JUMP)
                                         | (kind == K_CALL))
        mf[jump_call & (compiled.exit_direct >= 0)] = 1
        mf[jump_call & (compiled.exit_direct < 0)] = 2
        mf[compiled.has_exit & (kind == K_INDIRECT)] = 2
        return mf


def _empty_stats(engine_input_trace, n_blocks: int,
                 base_cycles: int) -> FetchStats:
    return FetchStats(
        n_blocks=n_blocks,
        n_instructions=engine_input_trace.n_instructions,
        n_branches=engine_input_trace.n_branches,
        n_cond=engine_input_trace.n_cond,
        base_cycles=base_cycles,
    )


def _line_codes_tuple(compiled: CompiledBlocks, line: int,
                      line_size: int):
    """True BIT codes of one full line (BIT-table write-back)."""
    coa = compiled.code_of_addr
    n_static = len(coa)
    base = line * line_size
    return tuple(
        BitCode(int(coa[addr])) if addr < n_static else BitCode.NONBRANCH
        for addr in range(base, base + line_size))


# ----------------------------------------------------------------------
# Residual replay: select tables and target arrays
# ----------------------------------------------------------------------
#
# After the prep front half, what remains of every run is two keyed
# event streams: select-table verifications (observe the stored
# selection, then overwrite it) and target-array probes (observe the
# stored target where the walk used it, then train it).  Tag-less
# tables resolve both in one :func:`replay_last_write` each; only the
# set-associative BTB targets, whose LRU lookups side-effect, keep a
# per-event loop.  A replay of a table that starts fresh depends only
# on the front, the engine's layout and the table shape, so it is
# shared through the walk front as per-slot charge counts plus the
# final (key, value) write-back.

def _charge_counts(stats: FetchStats, kind: PenaltyKind,
                   counts: np.ndarray, cycles: np.ndarray) -> None:
    """Charge ``counts[s]`` events in fetch slot ``s`` at ``cycles[s]``."""
    _charge_bulk(stats, kind, int(counts.sum()), int(counts @ cycles))


def _is_fresh(store: list) -> bool:
    """Whether a table's entry list has never been written."""
    return store.count(None) == len(store)


def _slot_cycles(cost, scheme: str, n_slots: int, kind: PenaltyKind,
                 first: int = 1) -> np.ndarray:
    """``cost(scheme, s, kind)`` for fetch slots 1..n_slots, 0-indexed.

    Slots before ``first`` never see ``kind`` and read 0: Table 3 marks
    slot-1 MISSELECT and GHR N/A under single selection.  Engines bind
    the first three arguments once (``partial``) and pass the result as
    their ``cycles`` table.
    """
    return np.array([cost(scheme, s, kind) if s >= first else 0
                     for s in range(1, n_slots + 1)], dtype=np.int64)


def _seed_targets(store: List[Optional[int]]) -> np.ndarray:
    """Encoded NLS target store; -1 marks cold slots (targets are >= 0)."""
    return np.array([-1 if t is None else t for t in store], dtype=np.int64)


def _btb_misses(targets, args, probe: np.ndarray, values: np.ndarray,
                writes: np.ndarray) -> np.ndarray:
    """Per-event replay through a set-associative BTB.

    A BTB lookup refreshes LRU order, so lookups happen exactly where
    the scalar engines make them (``probe``), in event order.
    """
    lookup = targets.lookup
    update = targets.update
    missed = np.zeros(len(values), dtype=bool)
    for i, (key, target, look, write) in enumerate(
            zip(args, values.tolist(), probe.tolist(), writes.tolist())):
        if look and lookup(*key) != target:
            missed[i] = True
        if write:
            update(*key, target)
    return missed


@dataclass(frozen=True)
class _TargetReplay:
    """A replayed target array: misfetches per slot and its write-back."""

    immediate: np.ndarray  #: int64[slots] missed immediate targets
    indirect: np.ndarray   #: int64[slots] missed indirect targets
    keys: np.ndarray       #: int32 written slots across the halves
    values: np.ndarray     #: int64 their final targets


def _target_residual(run: _Run, stats: FetchStats, layout: _Layout,
                     targets, arrays, events: Callable, cycles) -> None:
    """Replay the target array over every non-return taken exit.

    ``events()`` returns ``(todo, slot, anchor)``: the exiting blocks in
    time order, their 0-based fetch slot (which also picks the
    dual/multi array half) and the line indexing their entry.
    ``arrays`` lists the NLS halves backing ``targets``, or is ``None``
    for a BTB.  Mispredicted targets charge misfetch ``cycles`` per
    slot.
    """
    n_slots = layout.group
    size = 0 if arrays is None else len(arrays[0]._targets)

    def replay(init: Optional[np.ndarray]) -> _TargetReplay:
        """The array's replay; ``init=None`` seeds fresh NLS halves."""
        todo, slot, anchor = events()
        compiled = run.compiled
        position = compiled.exit_pc[todo] % run.line_size
        values = compiled.exit_target[todo]
        writes = ~run.near_ok[todo]
        probe = run.match[todo] & writes
        if arrays is None:
            lines = anchor.tolist()
            positions = position.tolist()
            args = (zip(lines, positions) if isinstance(targets, BlockBTB)
                    else zip((slot + 1).tolist(), lines, positions))
            missed = _btb_misses(targets, args, probe, values, writes)
            fin_k = fin_v = np.zeros(0, dtype=np.int64)
        else:
            first = arrays[0]
            if init is None:
                init = np.full(size * len(arrays), -1, dtype=np.int64)
            keys = slot * size \
                + (anchor % first.n_block_entries) * first.line_size \
                + position
            observed, fin_k, fin_v = replay_last_write(keys, values,
                                                       writes, init)
            missed = probe & (observed != values)
        kind = run.mf[todo]
        return _TargetReplay(
            *(_frozen(np.bincount(slot[missed & (kind == code)],
                                  minlength=n_slots))
              for code in (1, 2)),
            _frozen(fin_k, np.int32), _frozen(fin_v))

    if arrays is None:
        result = run.derive(None, partial(replay, None), "target")
    else:
        first = arrays[0]
        if all(_is_fresh(a._targets) for a in arrays):
            key = ("target", layout, len(arrays), first.n_block_entries,
                   first.line_size)
            result = run.derive(key, partial(replay, None), "target")
        else:
            result = run.derive(None, partial(replay, np.concatenate(
                [_seed_targets(a._targets) for a in arrays])), "target")
        for k, v in zip(result.keys.tolist(), result.values.tolist()):
            arrays[k // size]._targets[k % size] = v
    _charge_counts(stats, PenaltyKind.MISFETCH_IMMEDIATE, result.immediate,
                   cycles(PenaltyKind.MISFETCH_IMMEDIATE))
    _charge_counts(stats, PenaltyKind.MISFETCH_INDIRECT, result.indirect,
                   cycles(PenaltyKind.MISFETCH_INDIRECT))


def _payload_levels(width: int) -> int:
    """Distinct payload codes: ``pay < 2 * width + 4`` always holds."""
    return 2 * width + 4


def _encode_select_entry(width: int, entry: SelectEntry) -> int:
    """A select entry packed as ``selector * levels + payload``."""
    sel = encode_selector(width, *entry.selector)
    pay = entry.outcomes.n_not_taken * 2 + int(entry.outcomes.ends_taken)
    return sel * _payload_levels(width) + pay


_DECODED: Dict[Tuple[int, int], SelectEntry] = {}


def _decode_select_entry(width: int, packed: int) -> SelectEntry:
    """Inverse of :func:`_encode_select_entry`, memoized.

    Select entries are replaced whole, never mutated, and the
    (width, packed) space is tiny, so write-back shares instances.
    """
    entry = _DECODED.get((width, packed))
    if entry is None:
        sel, pay = divmod(packed, _payload_levels(width))
        entry = SelectEntry(decode_selector(width, sel),
                            BlockOutcomes(pay // 2, bool(pay % 2)))
        _DECODED[(width, packed)] = entry
    return entry


def _seed_select(width: int, entries) -> np.ndarray:
    """Packed select-table contents.

    Cold entries pack to 0 — exactly the fall-through default a cold
    read returns — so reads need no presence check.
    """
    return np.array([0 if e is None else _encode_select_entry(width, e)
                     for e in entries], dtype=np.int64)


@dataclass(frozen=True)
class _SelectReplay:
    """One select-table stream replayed: its charges and write-back."""

    mis: int              #: MISSELECT verifications
    ghr: int              #: payload-only (GHR) mismatches
    keys: np.ndarray      #: int32 written table slots, ascending
    values: np.ndarray    #: int32 their final packed entries


def _select_residual(run: _Run, stats: FetchStats, layout: _Layout,
                     select, streams, tables, double: bool,
                     cycles) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Replay select-table verifications, one event stream per table.

    Stream ``(offset, paired)`` verifies the blocks at group offset
    ``offset`` (fetch slot ``offset + 1``) against its table at their
    group anchor's slot, then overwrites it — only once the pair
    completes when ``paired``.  ``tables`` lists each stream's table as
    select entries, shaped like ``select``, or is ``None`` when every
    table starts fresh.  A selector mismatch charges MISSELECT, a
    payload-only mismatch GHR, at ``cycles`` per slot; slot 1 is
    verified only under ``double`` selection.  Returns each stream's
    written ``(keys, packed entries)``.
    """
    width = run.width
    levels = _payload_levels(width)
    group = layout.group
    n_tables = select.n_tables
    n_entries = select.n_entries
    walk = run.walk

    def replay(offset: int, paired: bool,
               init: Optional[np.ndarray]) -> _SelectReplay:
        """One stream's replay; ``init=None`` seeds a fresh table."""
        if init is None:
            init = np.zeros(n_tables * n_entries, dtype=np.int64)
        blocks = np.arange(offset, run.n, group, dtype=np.int64)
        anchor = blocks - offset
        keys = run.base[anchor].astype(np.int64) & (n_entries - 1)
        # Events grouped by (base & mask) once per stream; the table
        # index refines that grouping into the full key order.
        order = run.derive(("select-order", layout, offset, n_entries),
                           lambda low=keys: _frozen(_grouping_order(low),
                                                    np.int32))
        if n_tables > 1:
            line_table = (run.anchor_start[anchor] % run.line_size) \
                % n_tables
            keys = keys + line_table * n_entries
            order = order[np.argsort(line_table.astype(np.uint8)[order],
                                     kind="stable")]
        sel = walk.sel[blocks].astype(np.int64)
        packed = sel * levels + walk.pay[blocks]
        writes = (blocks + 1 < run.n) if paired \
            else np.ones(len(blocks), dtype=bool)
        observed, fin_k, fin_v = replay_last_write(keys, packed, writes,
                                                   init, order=order)
        mis = observed // levels != sel
        return _SelectReplay(
            int(np.count_nonzero(mis)),
            int(np.count_nonzero(~mis & (observed != packed))),
            _frozen(fin_k, np.int32), _frozen(fin_v, np.int32))

    first = 1 if double else 2
    mis_cycles = cycles(PenaltyKind.MISSELECT, first)
    ghr_cycles = cycles(PenaltyKind.GHR, first)
    mis = np.zeros(group, dtype=np.int64)
    ghr = np.zeros(group, dtype=np.int64)
    out = []
    for i, (offset, paired) in enumerate(streams):
        if tables is None:
            result = run.derive(
                ("select", layout, offset, paired, n_tables, n_entries),
                partial(replay, offset, paired, None), "select")
        else:
            result = run.derive(None, partial(
                replay, offset, paired, _seed_select(width, tables[i])),
                "select")
        mis[offset] += result.mis
        ghr[offset] += result.ghr
        out.append((result.keys, result.values))
    _charge_counts(stats, PenaltyKind.MISSELECT, mis, mis_cycles)
    _charge_counts(stats, PenaltyKind.GHR, ghr, ghr_cycles)
    return out


# ----------------------------------------------------------------------
# Single-block engine
# ----------------------------------------------------------------------

_SINGLE = _Layout("single", 1, False)


def run_single_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`SingleBlockEngine.run` (no recovery tracking)."""
    run, stats = _prep_single(engine, fetch_input)
    if run.n:
        _residual_single(engine, run, stats)
    return stats


def _prep_single(engine, fetch_input) -> tuple:
    """Front half of the single-block run.

    Runs every vectorized phase (counter scan, BIT handling, COND and
    RETURN charges, RAS replay) and all engine-state mutation *except*
    the target array, then returns ``(run, stats)`` with ``run.match``
    / ``run.near_ok`` / ``run.mf`` populated for the residual replay
    (``run.match`` stays ``None`` when ``run.n == 0``).
    """
    run = _Run(engine, fetch_input)
    compiled = run.compiled
    n = run.n
    stats = _empty_stats(run.trace, n, base_cycles=n)
    if n == 0:
        return run, stats
    scheme = SINGLE_SELECT
    run.resolve(bit_table=engine.bit_table)
    walk = run.walk

    # Separate BIT table: stale-walk mismatches, counters and state.
    if engine.bit_table is not None:
        mismatch = (run.stale_walk.sel != walk.sel) \
            | (run.stale_walk.pay != walk.pay)
        count = int(np.count_nonzero(mismatch))
        _charge_bulk(stats, PenaltyKind.BIT, count,
                     count * penalty_cycles(scheme, 1, PenaltyKind.BIT))
        bit = engine.bit_table
        bit.accesses += run.stale.accesses
        bit.stale_hits += run.stale.stale_hits
        for slot, line in zip(run.stale.final_slots.tolist(),
                              run.stale.final_lines.tolist()):
            bit._lines[slot] = line
            bit._codes[slot] = _line_codes_tuple(compiled, line,
                                                 run.line_size)

    div = run.classify()
    slot_arr = np.zeros(n, dtype=np.int64)
    base_arr = np.array([penalty_cycles(scheme, 1, PenaltyKind.COND)],
                        dtype=np.int64)
    count, cycles = run.cond_charges(
        div, slot_arr, base_arr, slot2_extra=np.zeros(n, dtype=bool),
        late_extra=not run.config.track_not_taken_targets)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(engine.ras)
    ret_bad = div.match & run.is_ret & (peeks != compiled.exit_target)
    count = int(np.count_nonzero(ret_bad))
    _charge_bulk(stats, PenaltyKind.RETURN, count,
                 count * penalty_cycles(scheme, 1, PenaltyKind.RETURN))
    return run, stats


def _residual_single(engine, run: _Run, stats: FetchStats) -> None:
    """Target array (tag-less NLS or set-associative BTB)."""
    compiled = run.compiled
    targets = engine.targets

    def events():
        todo = np.nonzero(compiled.has_exit & ~run.is_ret)[0]
        return (todo, np.zeros(len(todo), dtype=np.int64),
                compiled.exit_pc[todo] // run.line_size)

    _target_residual(
        run, stats, _SINGLE, targets,
        [targets] if type(targets) is NLSTargetArray else None, events,
        partial(_slot_cycles, penalty_cycles, SINGLE_SELECT, 1))


# ----------------------------------------------------------------------
# Dual-block engine
# ----------------------------------------------------------------------

_DUAL = _Layout("dual", 2, False)


def run_dual_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`DualBlockEngine.run` (no timeline recording)."""
    run, stats = _prep_dual(engine, fetch_input)
    if run.n:
        _residual_dual(engine, run, stats)
    return stats


def _pair_conflict_count(run: _Run) -> int:
    """Bank conflicts of pairs (i+1, i+2) for every completed (i, i+1)."""
    def count() -> int:
        conflicts = pair_conflicts(run.compiled, run.geometry)
        return int(np.count_nonzero(conflicts[1:run.n - 1:2]))
    return run.derive(("pair-conflicts",), count)


def _prep_dual(engine, fetch_input) -> tuple:
    """Front half of the dual-block run.

    Everything up to (and including) the bank-conflict charges; the
    residual select-table / dual-target replay is :func:`_residual_dual`.
    """
    run = _Run(engine, fetch_input)
    compiled = run.compiled
    n = run.n
    stats = _empty_stats(run.trace, n, base_cycles=1 + (n - 1 + 1) // 2)
    if n == 0:
        return run, stats
    scheme = DOUBLE_SELECT if engine.double else SINGLE_SELECT
    run.resolve()

    div = run.classify()
    slot_arr = ((np.arange(n, dtype=np.int64) % 2) == 1) \
        .astype(np.int64)  # 0=slot1, 1=slot2
    base_arr = np.array(
        [penalty_cycles(scheme, 1, PenaltyKind.COND),
         penalty_cycles(scheme, 2, PenaltyKind.COND)], dtype=np.int64)
    count, cycles = run.cond_charges(
        div, slot_arr, base_arr, slot2_extra=slot_arr.astype(bool),
        late_extra=not run.config.track_not_taken_targets)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(engine.ras)
    ret_bad = div.match & run.is_ret & (peeks != compiled.exit_target)
    for slot in (1, 2):
        in_slot = ret_bad & (slot_arr == slot - 1)
        count = int(np.count_nonzero(in_slot))
        _charge_bulk(stats, PenaltyKind.RETURN, count,
                     count * penalty_cycles(scheme, slot,
                                            PenaltyKind.RETURN))

    count = _pair_conflict_count(run)
    _charge_bulk(stats, PenaltyKind.BANK_CONFLICT, count,
                 count * penalty_cycles(scheme, 2,
                                        PenaltyKind.BANK_CONFLICT))
    return run, stats


def _residual_dual(engine, run: _Run, stats: FetchStats) -> None:
    """Select table (pairs anchored at even blocks) + dual targets."""
    compiled = run.compiled
    width = run.width
    double = engine.double
    cycles = partial(_slot_cycles, penalty_cycles,
                     DOUBLE_SELECT if double else SINGLE_SELECT, 2)
    select = engine.select
    entries = select._entries
    # The anchor's own (first-block) selection exists only under double
    # selection and is written only once the pair completes; the second
    # block's stream is the same under both schemes.
    streams = [(0, True), (1, False)] if double else [(1, False)]
    if _is_fresh(entries):
        tables = None
    elif double:
        tables = [[None if e is None else e.first for e in entries],
                  [None if e is None else e.second for e in entries]]
    else:
        tables = [entries]
    final = _select_residual(run, stats, _DUAL, select, streams, tables,
                             double, cycles)
    decode = partial(_decode_select_entry, width)
    if double:
        # Both halves are written at the same (completed-pair) anchors.
        (keys, firsts), (_, seconds) = final
        for k, a, b in zip(keys.tolist(), firsts.tolist(),
                           seconds.tolist()):
            entries[k] = DualSelectEntry(decode(a), decode(b))
    else:
        keys, values = final[0]
        for k, v in zip(keys.tolist(), values.tolist()):
            entries[k] = decode(v)

    targets = engine.targets

    def events():
        todo = np.nonzero(compiled.has_exit & ~run.is_ret)[0]
        slot = todo % 2
        return todo, slot, compiled.line0[todo - slot]

    _target_residual(
        run, stats, _DUAL, targets,
        [targets.first, targets.second]
        if type(targets) is DualNLSTargetArray else None, events, cycles)


# ----------------------------------------------------------------------
# Multi-block engine
# ----------------------------------------------------------------------

def run_multi_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`MultiBlockEngine.run`."""
    run, stats = _prep_multi(engine, fetch_input)
    if run.n:
        _residual_multi(engine, run, stats)
    return stats


def _bank_claims(run: _Run, group: int) -> np.ndarray:
    """Bank claim-set conflicts per fetch slot (index 1..group).

    Claim sets run over each group fetched together (a+1..a+n); they
    depend only on line geometry, so they are derived once per front.
    """
    def counts() -> np.ndarray:
        n = run.n
        line0 = run.compiled.line0.tolist()
        n_banks = run.geometry.n_banks
        self_aligned = run.geometry.kind == SELF_ALIGNED
        out = np.zeros(group + 2, dtype=np.int64)
        for a in range(0, n, group):
            claimed_lines = set()
            claimed_banks = set()
            slot_i = 0
            for b in range(a + 1, min(a + group + 1, n)):
                slot_i += 1
                first = line0[b]
                lines = (first, first + 1) if self_aligned else (first,)
                conflict = False
                for line in lines:
                    if line in claimed_lines:
                        continue
                    bank_of = line % n_banks
                    if bank_of in claimed_banks:
                        conflict = True
                    else:
                        claimed_lines.add(line)
                        claimed_banks.add(bank_of)
                if conflict and slot_i >= 2:
                    out[slot_i] += 1
        return _frozen(out)
    return run.derive(("bank-claims", group), counts)


def _prep_multi(engine, fetch_input) -> tuple:
    """Front half of the N-block run.

    Includes the bank claim-set charges (pure geometry, no predictor
    state); the select-table / target-array replay is
    :func:`_residual_multi`.
    """
    run = _Run(engine, fetch_input)
    compiled = run.compiled
    n = run.n
    group = engine.n
    stats = _empty_stats(
        run.trace, n,
        base_cycles=1 + (n - 2 + group) // group if n > 1 else 1)
    if n == 0:
        return run, stats
    scheme = DOUBLE_SELECT if engine.double else SINGLE_SELECT
    run.resolve()

    div = run.classify()
    slot_arr = np.arange(n, dtype=np.int64) % group  # slot - 1
    max_slot = group
    base_arr = np.array(
        [penalty_cycles_slot(scheme, s, PenaltyKind.COND)
         for s in range(1, max_slot + 1)], dtype=np.int64)
    count, cycles = run.cond_charges(
        div, slot_arr, base_arr, slot2_extra=slot_arr >= 1,
        late_extra=not run.config.track_not_taken_targets)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(engine.ras)
    ret_bad = div.match & run.is_ret & (peeks != compiled.exit_target)
    for slot in range(1, max_slot + 1):
        in_slot = ret_bad & (slot_arr == slot - 1)
        count = int(np.count_nonzero(in_slot))
        _charge_bulk(stats, PenaltyKind.RETURN, count,
                     count * penalty_cycles_slot(scheme, slot,
                                                 PenaltyKind.RETURN))

    bank = np.array([0] + [penalty_cycles_slot(scheme, s,
                                               PenaltyKind.BANK_CONFLICT)
                           for s in range(1, group + 2)], dtype=np.int64)
    _charge_counts(stats, PenaltyKind.BANK_CONFLICT,
                   _bank_claims(run, group), bank)
    return run, stats


def _residual_multi(engine, run: _Run, stats: FetchStats) -> None:
    """Select tables (one per predicted slot) + per-slot targets."""
    compiled = run.compiled
    group = engine.n
    layout = _Layout("multi", group, False)
    double = engine.double
    cycles = partial(_slot_cycles, penalty_cycles_slot,
                     DOUBLE_SELECT if double else SINGLE_SELECT, group)
    selects = engine.selects
    if selects:
        # Table t verifies the blocks at group offset t (double: the
        # anchor's own selection is t = 0) and overwrites every time.
        offset = 0 if double else 1
        entries = [t._entries for t in selects]
        tables = None if all(_is_fresh(e) for e in entries) else entries
        final = _select_residual(
            run, stats, layout, selects[0],
            [(t + offset, False) for t in range(len(selects))], tables,
            double, cycles)
        decode = partial(_decode_select_entry, run.width)
        for table, (keys, values) in zip(entries, final):
            for k, v in zip(keys.tolist(), values.tolist()):
                table[k] = decode(v)

    def events():
        todo = np.nonzero(compiled.has_exit & ~run.is_ret)[0]
        slot = todo % group
        return todo, slot, compiled.line0[todo - slot]

    _target_residual(run, stats, layout, engine.targets,
                     engine.targets._arrays, events, cycles)


# ----------------------------------------------------------------------
# Two-block-ahead engine
# ----------------------------------------------------------------------

_TWO_AHEAD = _Layout("two_ahead", 2, True)


def run_two_ahead_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`TwoBlockAheadEngine.run`."""
    run, stats = _prep_two_ahead(engine, fetch_input)
    if run.n:
        _residual_two_ahead(engine, run, stats)
    return stats


def _prep_two_ahead(engine, fetch_input) -> tuple:
    """Front half of the two-block-ahead run."""
    run = _Run(engine, fetch_input, ahead=True)
    compiled = run.compiled
    n = run.n
    stats = _empty_stats(run.trace, n, base_cycles=1 + n // 2)
    if n == 0:
        return run, stats
    scheme = SINGLE_SELECT
    run.resolve()

    div = run.classify()
    # Pairs are (odd, even): odd indices are slot 1, even are slot 2.
    index = np.arange(n, dtype=np.int64)
    slot_arr = (index % 2 == 0).astype(np.int64)  # 0=slot1, 1=slot2
    base_arr = np.array(
        [penalty_cycles(scheme, 1, PenaltyKind.COND),
         penalty_cycles(scheme, 2, PenaltyKind.COND)], dtype=np.int64)
    count, cycles = run.cond_charges(
        div, slot_arr, base_arr, slot2_extra=slot_arr.astype(bool),
        late_extra=False)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(engine.ras)
    ret_bad = div.match & run.is_ret & (peeks != compiled.exit_target)
    for slot in (1, 2):
        in_slot = ret_bad & (slot_arr == slot - 1)
        count = int(np.count_nonzero(in_slot))
        _charge_bulk(stats, PenaltyKind.RETURN, count,
                     count * penalty_cycles(scheme, slot,
                                            PenaltyKind.RETURN))

    if engine.serialization_penalty:
        count = int(np.count_nonzero((index % 2 == 0) & (index >= 2)))
        _charge_bulk(stats, PenaltyKind.MISSELECT, count,
                     count * engine.serialization_penalty)

    count = _pair_conflict_count(run)
    _charge_bulk(stats, PenaltyKind.BANK_CONFLICT, count,
                 count * penalty_cycles(scheme, 2,
                                        PenaltyKind.BANK_CONFLICT))
    return run, stats


def _residual_two_ahead(engine, run: _Run, stats: FetchStats) -> None:
    """Dual NLS targets indexed by each block's ahead (anchor) line."""
    compiled = run.compiled
    targets = engine.targets

    def events():
        todo = np.nonzero(compiled.has_exit & ~run.is_ret)[0]
        # Pairs are (odd, even): odd blocks are slot 1, even blocks slot 2.
        slot = (todo % 2 == 0).astype(np.int64)
        return todo, slot, run.anchor_start[todo] // run.line_size

    _target_residual(
        run, stats, _TWO_AHEAD, targets, [targets.first, targets.second],
        events, partial(_slot_cycles, penalty_cycles, SINGLE_SELECT, 2))
