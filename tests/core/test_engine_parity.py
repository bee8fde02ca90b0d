"""Scalar vs fast engine parity — the bit-exactness contract.

``REPRO_ENGINE=fast`` routes every engine's ``run`` through the
vectorized kernels of :mod:`repro.core.fast`.  The contract is strict:
for any workload and configuration the fast path must produce a
``FetchStats`` *equal* to the scalar reference loop's — same counts,
same cycles, same event breakdown — and must leave every predictor
structure (PHT counters, select tables, BIT, target arrays, BTB LRU
order, RAS) in the identical state, so interleaving scalar and fast
runs on one warm engine can never diverge.

The matrix below mirrors the paper's coverage: every engine, all three
cache organisations, single and double selection, BIT/BTB/near-block
variants, and warm re-runs (including cross-workload, which exercises
stale-BIT reconstruction from a previously trained table).
"""

import numpy as np
import pytest

from repro.core import (
    DOUBLE_SELECT,
    DualBlockEngine,
    EngineConfig,
    SingleBlockEngine,
)
from repro.core import fast
from repro.core.engine_mode import ENGINE_ENV
from repro.core.multi import MultiBlockEngine
from repro.core.two_ahead import TwoBlockAheadEngine
from repro.icache import CacheGeometry
from repro.qa.state import engine_state
from repro.workloads import load_fetch_input

BUDGET = 6_000

GEOMETRIES = {
    "normal": CacheGeometry.normal(8),
    "extend": CacheGeometry.extended(8),
    "align": CacheGeometry.self_aligned(8),
}


def _config(geometry, **kw):
    kw.setdefault("n_select_tables", 4)
    return EngineConfig(geometry=geometry, **kw)


#: (engine factory, config kwargs) cells.  Each factory takes a config
#: and returns a fresh engine.
ENGINES = {
    "single": (SingleBlockEngine, {}),
    "single-bit": (SingleBlockEngine, {"bit_entries": 8}),
    "single-near": (SingleBlockEngine, {"near_block": True}),
    "single-btb": (SingleBlockEngine,
                   {"target_kind": "btb", "target_entries": 64,
                    "btb_associativity": 4}),
    "single-nott": (SingleBlockEngine,
                    {"track_not_taken_targets": False}),
    "dual-single": (DualBlockEngine, {}),
    "dual-double": (DualBlockEngine, {"selection": DOUBLE_SELECT}),
    "dual-btb": (DualBlockEngine,
                 {"target_kind": "btb", "target_entries": 64,
                  "btb_associativity": 4}),
    "dual-btb-double": (DualBlockEngine,
                        {"selection": DOUBLE_SELECT, "target_kind": "btb",
                         "target_entries": 64, "btb_associativity": 4}),
    "dual-btb-near": (DualBlockEngine,
                      {"near_block": True, "target_kind": "btb",
                       "target_entries": 8, "btb_associativity": 4}),
    "multi-1": (lambda c: MultiBlockEngine(c, 1), {}),
    "multi-3": (lambda c: MultiBlockEngine(c, 3), {}),
    "multi-3-double": (lambda c: MultiBlockEngine(c, 3),
                       {"selection": DOUBLE_SELECT}),
    "two-ahead": (TwoBlockAheadEngine, {}),
    "two-ahead-ser": (lambda c: TwoBlockAheadEngine(
        c, serialization_penalty=1), {}),
}


# "Full engine state" is defined once, in repro.qa.state, shared by this
# fixed matrix and the fuzz oracle so the two can never drift apart.

def run_both(factory, cfg_kw, geometry, monkeypatch,
             workloads=("compress",)):
    """Run the same engine scalar and fast; return both (stats, state)."""
    out = []
    for mode in ("scalar", "fast"):
        monkeypatch.setenv(ENGINE_ENV, mode)
        config = _config(geometry, **cfg_kw)
        engine = factory(config)
        stats = [engine.run(load_fetch_input(name, geometry, BUDGET))
                 for name in workloads]
        out.append((stats, engine_state(engine)))
    return out


@pytest.mark.parametrize("geometry_name", sorted(GEOMETRIES))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_scalar_fast_parity(engine_name, geometry_name, monkeypatch):
    factory, cfg_kw = ENGINES[engine_name]
    geometry = GEOMETRIES[geometry_name]
    (scalar_stats, scalar_state), (fast_stats, fast_state) = run_both(
        factory, cfg_kw, geometry, monkeypatch)
    assert fast_stats == scalar_stats
    assert fast_state == scalar_state


@pytest.mark.parametrize("engine_name", [
    "single-bit", "single-btb", "dual-double", "dual-btb-double", "multi-3",
    "two-ahead"])
def test_warm_rerun_parity(engine_name, monkeypatch):
    """Warm tables: run li, then gcc, then li again on ONE engine.

    The cross-workload middle run plants foreign entries in every table
    (the BIT case is the sharpest: stale windows must be reconstructed
    from codes trained by a different program), so the final run starts
    from a genuinely dirty warm state.
    """
    factory, cfg_kw = ENGINES[engine_name]
    geometry = GEOMETRIES["normal"]
    (scalar_stats, scalar_state), (fast_stats, fast_state) = run_both(
        factory, cfg_kw, geometry, monkeypatch,
        workloads=("li", "gcc", "li"))
    assert fast_stats == scalar_stats
    assert fast_state == scalar_state


def test_btb_lookups_only_where_scalar_looks(monkeypatch):
    """Near-block exits neither look up nor train the BTB.

    A BTB lookup refreshes LRU order, so one made where the scalar
    engine makes none changes later evictions.  vortex under a small
    near-block BTB is a stream where that shows in stats and state.
    """
    factory, cfg_kw = ENGINES["dual-btb-near"]
    (scalar_stats, scalar_state), (fast_stats, fast_state) = run_both(
        factory, cfg_kw, GEOMETRIES["normal"], monkeypatch,
        workloads=("vortex",))
    assert fast_stats == scalar_stats
    assert fast_state == scalar_state


def test_mixed_mode_interleaving(monkeypatch):
    """Scalar and fast runs interleave on one engine without diverging."""
    geometry = GEOMETRIES["align"]
    fetch_input = load_fetch_input("go", geometry, BUDGET)

    monkeypatch.setenv(ENGINE_ENV, "scalar")
    reference = DualBlockEngine(_config(geometry))
    ref_stats = [reference.run(fetch_input) for _ in range(3)]

    mixed = DualBlockEngine(_config(geometry))
    mixed_stats = []
    for mode in ("fast", "scalar", "fast"):
        monkeypatch.setenv(ENGINE_ENV, mode)
        mixed_stats.append(mixed.run(fetch_input))

    assert mixed_stats == ref_stats
    monkeypatch.setenv(ENGINE_ENV, "scalar")
    assert engine_state(mixed) == engine_state(reference)


def test_track_recovery_matches_scalar(monkeypatch):
    """Recovery tracking needs the serial loop; fast mode defers to it."""
    geometry = GEOMETRIES["normal"]
    fetch_input = load_fetch_input("compress", geometry, BUDGET)

    monkeypatch.setenv(ENGINE_ENV, "scalar")
    scalar_engine = SingleBlockEngine(_config(geometry,
                                              track_recovery=True))
    scalar = scalar_engine.run(fetch_input)

    monkeypatch.setenv(ENGINE_ENV, "fast")
    fast_engine = SingleBlockEngine(_config(geometry,
                                            track_recovery=True))
    fast = fast_engine.run(fetch_input)
    assert fast == scalar
    assert fast_engine.recovery_log == scalar_engine.recovery_log
    assert fast_engine.recovery_log  # tracking actually happened


def test_timeline_recording_matches_scalar(monkeypatch):
    """Timeline recording also defers to the serial loop, identically."""
    geometry = GEOMETRIES["normal"]
    fetch_input = load_fetch_input("compress", geometry, BUDGET)

    monkeypatch.setenv(ENGINE_ENV, "scalar")
    scalar = DualBlockEngine(_config(geometry)).run(fetch_input,
                                                    record_timeline=True)
    monkeypatch.setenv(ENGINE_ENV, "fast")
    fast = DualBlockEngine(_config(geometry)).run(fetch_input,
                                                  record_timeline=True)
    assert fast == scalar
    assert fast.timeline == scalar.timeline


def test_engine_mode_validation(monkeypatch):
    from repro.core import engine_mode

    monkeypatch.setenv(ENGINE_ENV, "vectorised")
    with pytest.raises(ValueError, match=ENGINE_ENV):
        engine_mode.engine_mode()
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert engine_mode.engine_mode() == "fast"
    monkeypatch.setenv(ENGINE_ENV, "scalar")
    assert not engine_mode.use_fast_engine()


# ----------------------------------------------------------------------
# Shared PHT front: reuse across configurations, never across states
# ----------------------------------------------------------------------

#: (engine factory, config A kwargs, config B kwargs): B differs from A
#: only in ``selection`` / ``n_select_tables``, so it shares A's front.
FRONT_PAIRS = {
    "dual-single": (DualBlockEngine, {"n_select_tables": 1},
                    {"n_select_tables": 8}),
    "dual-double": (DualBlockEngine, {},
                    {"selection": DOUBLE_SELECT, "n_select_tables": 2}),
    "multi-3": (lambda c: MultiBlockEngine(c, 3), {},
                {"selection": DOUBLE_SELECT, "n_select_tables": 1}),
    "two-ahead": (TwoBlockAheadEngine, {"n_select_tables": 1},
                  {"n_select_tables": 8}),
}


def _fast_run(factory, config, fetch_input, monkeypatch, pht=None):
    """Fresh fast engine (PHT counters optionally preset) and its run."""
    monkeypatch.setenv(ENGINE_ENV, "fast")
    engine = factory(config)
    if pht is not None:
        engine.pht._counters = list(pht)
    before = fast.front_lookups()
    stats = engine.run(fetch_input)
    hits, misses = fast.front_lookups()
    return stats, engine_state(engine), (hits - before[0],
                                         misses - before[1])


def _scalar_run(factory, config, fetch_input, monkeypatch, pht=None):
    monkeypatch.setenv(ENGINE_ENV, "scalar")
    engine = factory(config)
    if pht is not None:
        engine.pht._counters = list(pht)
    return engine.run(fetch_input), engine_state(engine)


@pytest.mark.parametrize("engine_name", sorted(FRONT_PAIRS))
def test_front_shared_across_configs(engine_name, monkeypatch):
    """Config B replays config A's front and still equals scalar B.

    The front covers the PHT write-back and the RAS end state, so the
    hit must restore both: the full state comparison covers PHT, select
    tables, targets and RAS.
    """
    factory, kw_a, kw_b = FRONT_PAIRS[engine_name]
    geometry = GEOMETRIES["normal"]
    fetch_input = load_fetch_input("li", geometry, BUDGET)
    fast.clear_front_cache()
    _, _, (hits_a, misses_a) = _fast_run(
        factory, _config(geometry, **kw_a), fetch_input, monkeypatch)
    assert (hits_a, misses_a) == (0, 2)  # walk and RAS resolved

    config_b = _config(geometry, **kw_b)
    stats, state, (hits, misses) = _fast_run(factory, config_b,
                                             fetch_input, monkeypatch)
    assert (hits, misses) == (2, 0)
    scalar_stats, scalar_state = _scalar_run(factory, config_b,
                                             fetch_input, monkeypatch)
    assert stats == scalar_stats
    assert state == scalar_state


def test_trained_pht_misses_and_matches_scalar(monkeypatch):
    """A PHT trained by an earlier run has a different front."""
    factory = DualBlockEngine
    geometry = GEOMETRIES["normal"]
    config = _config(geometry)
    fetch_input = load_fetch_input("li", geometry, BUDGET)
    fast.clear_front_cache()
    monkeypatch.setenv(ENGINE_ENV, "fast")
    trainer = factory(config)
    trainer.run(fetch_input)
    trained = list(trainer.pht._counters)

    stats, state, (hits, misses) = _fast_run(
        factory, config, fetch_input, monkeypatch, pht=trained)
    assert (hits, misses) == (1, 1)  # fresh RAS hits, trained PHT misses
    assert (stats, state) == _scalar_run(factory, config, fetch_input,
                                         monkeypatch, pht=trained)


def test_front_lru_never_exceeds_cap(monkeypatch):
    geometry = GEOMETRIES["normal"]
    fetch_input = load_fetch_input("compress", geometry, BUDGET)
    fast.clear_front_cache()
    monkeypatch.setattr(fast, "FRONT_CAP", 3)
    for history in range(6, 12):
        _fast_run(DualBlockEngine, _config(geometry, history_length=history),
                  fetch_input, monkeypatch)
        assert len(fast._front) <= 3
    assert len(fast._front) == 3


def test_front_entries_are_compact_and_read_only(monkeypatch):
    geometry = GEOMETRIES["normal"]
    fetch_input = load_fetch_input("compress", geometry, BUDGET)
    fast.clear_front_cache()
    _fast_run(DualBlockEngine, _config(geometry), fetch_input, monkeypatch)
    arrays = []
    for front in fast._front.values():
        if isinstance(front, fast._WalkFront):
            assert front.walk.sel.dtype == np.int16
            assert front.walk.pay.dtype == np.int8
            assert front.base.dtype == np.int32
            assert front.final_slots.dtype == np.int32
            assert front.final_states.dtype == np.int8
            arrays += [front.walk.sel, front.walk.pay, front.base,
                       front.final_slots, front.final_states]
        else:
            arrays.append(front.ret_peeks)
    assert len(arrays) == 6
    for array in arrays:
        with pytest.raises(ValueError):
            array[:1] = 0



# ----------------------------------------------------------------------
# Shared residual replays: fresh tables only, never across layouts
# ----------------------------------------------------------------------

def _shared_run(factory, config, fetch_input, monkeypatch, engine=None):
    """Fast run (on ``engine`` if given) and its shared-residual tallies.

    Returns ``(stats, state, select, target)``, each tally a
    ``(shared, replayed)`` delta of :func:`fast.residual_lookups`.
    """
    monkeypatch.setenv(ENGINE_ENV, "fast")
    engine = engine if engine is not None else factory(config)
    before = fast.residual_lookups()
    stats = engine.run(fetch_input)
    after = fast.residual_lookups()
    select, target = (tuple(a - b for a, b in zip(after[k], before[k]))
                      for k in ("select", "target"))
    return stats, engine_state(engine), select, target


def _scalar_runs(factory, config, fetch_input, monkeypatch, times=1):
    monkeypatch.setenv(ENGINE_ENV, "scalar")
    engine = factory(config)
    stats = [engine.run(fetch_input) for _ in range(times)]
    return stats, engine_state(engine)


def _fresh_input(workload="li"):
    fast.clear_front_cache()
    return load_fetch_input(workload, GEOMETRIES["normal"], BUDGET)


_OTHER = {"single": DOUBLE_SELECT, DOUBLE_SELECT: "single"}


@pytest.mark.parametrize("n_tables", [1, 2, 4, 8])
@pytest.mark.parametrize("selection", ["single", DOUBLE_SELECT])
def test_dual_residual_shared_across_selection(selection, n_tables,
                                               monkeypatch):
    """B (this scheme) after A (the other scheme, same #ST) reuses A's
    second-block stream and target replay, and still equals scalar B."""
    fetch_input = _fresh_input()
    geometry = GEOMETRIES["normal"]
    config_a = _config(geometry, selection=_OTHER[selection],
                       n_select_tables=n_tables)
    config_b = _config(geometry, selection=selection,
                       n_select_tables=n_tables)
    _shared_run(DualBlockEngine, config_a, fetch_input, monkeypatch)
    stats, state, select, target = _shared_run(
        DualBlockEngine, config_b, fetch_input, monkeypatch)
    assert select == ((1, 0) if selection == "single" else (1, 1))
    assert target == (1, 0)
    (scalar_stats,), scalar_state = _scalar_runs(
        DualBlockEngine, config_b, fetch_input, monkeypatch)
    assert stats == scalar_stats
    assert state == scalar_state


@pytest.mark.parametrize("selection", ["single", DOUBLE_SELECT])
def test_multi_residual_shared_across_selection(selection, monkeypatch):
    """Multi-3 streams at offsets 1 and 2 serve both schemes."""
    factory = FRONT_PAIRS["multi-3"][0]
    fetch_input = _fresh_input()
    geometry = GEOMETRIES["normal"]
    _shared_run(factory, _config(geometry, selection=_OTHER[selection]),
                fetch_input, monkeypatch)
    config_b = _config(geometry, selection=selection)
    stats, state, select, target = _shared_run(factory, config_b,
                                               fetch_input, monkeypatch)
    assert select == ((2, 0) if selection == "single" else (2, 1))
    assert target == (1, 0)
    (scalar_stats,), scalar_state = _scalar_runs(factory, config_b,
                                                 fetch_input, monkeypatch)
    assert (stats, state) == (scalar_stats, scalar_state)


def test_two_ahead_targets_shared(monkeypatch):
    fetch_input = _fresh_input()
    geometry = GEOMETRIES["normal"]
    _shared_run(TwoBlockAheadEngine, _config(geometry, n_select_tables=1),
                fetch_input, monkeypatch)
    config_b = _config(geometry, n_select_tables=8)
    stats, state, select, target = _shared_run(
        TwoBlockAheadEngine, config_b, fetch_input, monkeypatch)
    assert (select, target) == ((0, 0), (1, 0))
    (scalar_stats,), scalar_state = _scalar_runs(
        TwoBlockAheadEngine, config_b, fetch_input, monkeypatch)
    assert (stats, state) == (scalar_stats, scalar_state)


def test_multi_group_sizes_share_the_walk_but_not_the_residual(
        monkeypatch):
    """Multi n=2 and n=3 resolve one walk front but lay out slots
    differently, so n=2 must replay its own tables."""
    fetch_input = _fresh_input()
    geometry = GEOMETRIES["normal"]
    config = _config(geometry, selection=DOUBLE_SELECT)
    _shared_run(lambda c: MultiBlockEngine(c, 3), config, fetch_input,
                monkeypatch)
    hits_before = fast.front_lookups()[0]
    stats, state, select, target = _shared_run(
        lambda c: MultiBlockEngine(c, 2), config, fetch_input, monkeypatch)
    assert fast.front_lookups()[0] - hits_before == 2  # walk and RAS
    assert (select, target) == ((0, 2), (0, 1))
    (scalar_stats,), scalar_state = _scalar_runs(
        lambda c: MultiBlockEngine(c, 2), config, fetch_input, monkeypatch)
    assert (stats, state) == (scalar_stats, scalar_state)


def test_target_shape_is_part_of_the_key(monkeypatch):
    fetch_input = _fresh_input()
    geometry = GEOMETRIES["normal"]
    _shared_run(DualBlockEngine, _config(geometry), fetch_input,
                monkeypatch)
    config_b = _config(geometry, target_entries=128)
    stats, state, select, target = _shared_run(
        DualBlockEngine, config_b, fetch_input, monkeypatch)
    assert (select, target) == ((1, 0), (0, 1))
    (scalar_stats,), scalar_state = _scalar_runs(
        DualBlockEngine, config_b, fetch_input, monkeypatch)
    assert (stats, state) == (scalar_stats, scalar_state)


@pytest.mark.parametrize("engine_name", ["dual-double", "multi-3-double",
                                         "two-ahead"])
def test_warm_tables_replay_afresh(engine_name, monkeypatch):
    """A second run on one engine starts from trained tables: it shares
    the (identical) front but none of the residual results."""
    factory, cfg_kw = ENGINES[engine_name]
    fetch_input = _fresh_input()
    config = _config(GEOMETRIES["normal"], **cfg_kw)
    monkeypatch.setenv(ENGINE_ENV, "fast")
    engine = factory(config)
    first = _shared_run(factory, config, fetch_input, monkeypatch, engine)
    second = _shared_run(factory, config, fetch_input, monkeypatch, engine)
    assert first[2][0] == first[3][0] == 0
    assert second[2][0] == second[3][0] == 0
    assert second[2][1] == first[2][1] and second[3] == (0, 1)
    scalar_stats, scalar_state = _scalar_runs(factory, config, fetch_input,
                                              monkeypatch, times=2)
    assert [first[0], second[0]] == scalar_stats
    assert second[1] == scalar_state


def test_shared_residuals_are_read_only(monkeypatch):
    fetch_input = _fresh_input()
    geometry = GEOMETRIES["normal"]
    for selection in ("single", DOUBLE_SELECT):
        _shared_run(DualBlockEngine,
                    _config(geometry, selection=selection), fetch_input,
                    monkeypatch)
    fronts = [f for f in fast._front.values()
              if isinstance(f, fast._WalkFront)]
    assert len(fronts) == 1
    derived = fronts[0].derived
    kinds = {key[0] for key in derived}
    assert {"divergence", "select", "select-order", "target"} <= kinds
    arrays = []
    for value in derived.values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif hasattr(value, "__dataclass_fields__"):
            arrays += [getattr(value, name) for name in
                       value.__dataclass_fields__
                       if isinstance(getattr(value, name), np.ndarray)]
    assert len(arrays) >= 10
    for array in arrays:
        assert not isinstance(array, list)
        with pytest.raises(ValueError):
            array[:1] = 0


def test_clear_caches_drops_shared_residuals(tmp_path, monkeypatch):
    from repro.workloads import clear_caches

    fetch_input = _fresh_input()
    config = _config(GEOMETRIES["normal"])
    _shared_run(DualBlockEngine, config, fetch_input, monkeypatch)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_caches()
    assert not fast._front
    _, _, select, target = _shared_run(DualBlockEngine, config,
                                       fetch_input, monkeypatch)
    assert (select, target) == ((0, 1), (0, 1))
