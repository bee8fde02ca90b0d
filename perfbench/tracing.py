"""Spans and counters around repro's layers, recorded from outside.

:func:`install` wraps the public entry point of each layer (and the few
private seams where a layer hands work to the next) and rebinds every
reference ``repro`` modules hold to them, so the program runs unedited
while each call records a span: name, start, end, parent span and pid.
Spans are kept in memory and written as JSON lines when the traced
process ends; :func:`layer_metrics` turns them into per-layer numbers.

Worker processes of a parallel sweep are forked from a traced process
(the default start method on Linux), so they inherit the wrappers.  A
worker ships the spans of each cell back with the cell's result, and the
parent files them under its dispatch span.  ``time.perf_counter`` reads
the system-wide monotonic clock on Linux, so spans from different
processes share one timeline.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_current: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_span", default=None)


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)

    def open(self, name: str) -> Tuple[Dict[str, Any], Any]:
        span = {"id": f"{os.getpid()}:{next(self._ids)}",
                "parent": _current.get(), "name": name,
                "start": time.perf_counter(), "end": None,
                "pid": os.getpid(), "attrs": {}}
        return span, _current.set(span["id"])

    def close(self, span: Dict[str, Any], token: Any) -> None:
        span["end"] = time.perf_counter()
        _current.reset(token)
        self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON lines."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({"type": "span", **span}) + "\n")
            for name, value in sorted(self.counters.items()):
                out.write(json.dumps({"type": "counter", "name": name,
                                      "value": value}) + "\n")


class Shipped:
    """A worker cell's result travelling with the spans it recorded."""

    def __init__(self, value: Any, spans: List[Dict[str, Any]],
                 counters: Dict[str, float]) -> None:
        self.value = value
        self.spans = spans
        self.counters = counters


Hook = Callable[[Dict[str, Any], Recorder, tuple, Any], None]


def _wrap(rec: Recorder, fn: Callable, name: str,
          before: Optional[Hook] = None,
          after: Optional[Hook] = None) -> Callable:
    """``fn`` recording a span per call; hooks fill the span's attrs."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            span, token = rec.open(name)
            if before is not None:
                before(span, rec, args, None)
            try:
                result = await fn(*args, **kwargs)
            finally:
                rec.close(span, token)
            return result
        return traced_async

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span, token = rec.open(name)
        if before is not None:
            before(span, rec, args, None)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            if after is not None and hasattr(exc, "report"):
                after(span, rec, args, exc)
            raise
        finally:
            rec.close(span, token)
        if after is not None:
            after(span, rec, args, result)
        return result
    return traced


# ----------------------------------------------------------------------
# Hooks: the counts each layer contributes
# ----------------------------------------------------------------------

def _instructions(span, rec, args, result) -> None:
    span["attrs"]["instr"] = int(getattr(result, "n_instructions", 0))


def _cache_hit(span, rec, args, result) -> None:
    hit = result is not None
    span["attrs"]["hit"] = hit
    rec.count("runtime.cache.hits" if hit else "runtime.cache.misses")


def _sweep_report(span, rec, args, result) -> None:
    report = result.report
    rec.count("runtime.retries", len(report.retried_cells))
    rec.count("runtime.timeouts", sum(o.timeouts for o in report.outcomes))
    rec.count("runtime.respawns", report.pool_respawns)


def _batch_admitted(span, rec, args, result) -> None:
    batch = args[1]
    now = time.monotonic()
    span["attrs"]["size"] = len(batch)
    span["attrs"]["waits"] = [now - pending.submitted for pending in batch]


def _ship(rec: Recorder, fn: Callable) -> Callable:
    """Worker side: run one pool cell and return its spans with it."""
    @functools.wraps(fn)
    def shipping(*args: Any, **kwargs: Any) -> Any:
        mark = len(rec.spans)
        base = dict(rec.counters)
        outer = _current.set(None)
        try:
            value = _wrap(rec, fn, "runtime.cell")(*args, **kwargs)
        finally:
            _current.reset(outer)
        spans = rec.spans[mark:]
        del rec.spans[mark:]
        counters = {k: v - base.get(k, 0) for k, v in rec.counters.items()
                    if v != base.get(k, 0)}
        return Shipped(value, spans, counters)
    return shipping


def _receive(rec: Recorder, fn: Callable) -> Callable:
    """Parent side: file a shipped cell's spans under the current span."""
    @functools.wraps(fn)
    def receiving(index: int, value: Any, *args: Any, **kwargs: Any) -> Any:
        if isinstance(value, Shipped):
            parent = _current.get()
            for span in value.spans:
                if span["parent"] is None:
                    span["parent"] = parent
            rec.spans.extend(value.spans)
            for name, delta in value.counters.items():
                rec.count(name, delta)
            value = value.value
        return fn(index, value, *args, **kwargs)
    return receiving


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

#: (module, attribute, span name, before hook, after hook).  Dotted
#: attributes are methods, wrapped on their class.
TARGETS: Tuple[Tuple[str, str, str, Optional[Hook], Optional[Hook]], ...] = (
    ("repro.workloads.base", "WorkloadRegistry.trace", "cpu.capture",
     None, _instructions),
    ("repro.trace.blocks", "segment_blocks", "trace.segment", None, None),
    ("repro.runtime.cache", "load_trace", "runtime.cache.load", None,
     _cache_hit),
    ("repro.runtime.cache", "load_chunked_trace", "runtime.cache.load", None,
     _cache_hit),
    ("repro.runtime.cache", "load_blocks", "runtime.cache.load", None,
     _cache_hit),
    ("repro.runtime.cache", "load_compiled", "runtime.cache.load", None,
     _cache_hit),
    ("repro.runtime.cache", "store_trace", "runtime.cache.store", None, None),
    ("repro.runtime.cache", "seal_chunked_trace", "runtime.cache.store", None,
     None),
    ("repro.runtime.cache", "store_blocks", "runtime.cache.store", None,
     None),
    ("repro.runtime.cache", "store_compiled", "runtime.cache.store", None,
     None),
    ("repro.core.kernels", "compile_fetch_input", "core.compile", None,
     None),
    ("repro.core.kernels", "scan_counters", "core.prep.scan", None, None),
    ("repro.core.kernels", "resolve_walks", "core.prep.walks", None, None),
    ("repro.core.single", "SingleBlockEngine.run", "core.engine", None,
     _instructions),
    ("repro.core.dual", "DualBlockEngine.run", "core.engine", None,
     _instructions),
    ("repro.core.multi", "MultiBlockEngine.run", "core.engine", None,
     _instructions),
    ("repro.core.two_ahead", "TwoBlockAheadEngine.run", "core.engine", None,
     _instructions),
    ("repro.predictors.evaluate", "direction_accuracy_sweep",
     "predictors.sweep", None, None),
    ("repro.runtime.resilience", "run_resilient", "runtime.dispatch", None,
     _sweep_report),
    ("repro.runtime.resilience", "_serial_cell", "runtime.cell", None, None),
    ("repro.experiments.fig6", "run_fig6", "experiments.figure", None, None),
    ("repro.experiments.fig8", "run_fig8", "experiments.figure", None, None),
    ("repro.experiments.fig9", "run_fig9", "experiments.figure", None, None),
    ("repro.serve.service", "PredictionService.submit", "serve.request",
     None, None),
    ("repro.serve.service", "PredictionService._process_batch",
     "serve.batch", _batch_admitted, None),
    ("repro.serve.store", "ResultStore.get", "serve.store.get", None, None),
    ("repro.serve.store", "ResultStore.put", "serve.store.put", None, None),
)

#: Imported before rebinding so every ``from x import f`` copy is found.
_PRELOAD = ("repro.__main__", "repro.core.fast", "repro.core.backends.base",
            "repro.core.backends.numpy_backend",
            "repro.core.backends.compiled", "repro.runtime.shard",
            "repro.serve.service", "repro.serve.traffic",
            "repro.serve.requests")


def _rebind(original: Callable, wrapper: Callable) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _lookup(module_name: str, attr: str) -> Tuple[Any, Optional[Callable]]:
    """The object owning ``attr`` and its current value, if both exist."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, getattr(owner, name, None)


def install() -> Recorder:
    """Wrap every layer of the already-importable ``repro`` package.

    A target the program no longer has is skipped with a warning on
    stderr, so a refactor degrades the per-layer split (the time counts
    toward the calling layer) instead of breaking the traced run.
    """
    rec = Recorder()
    for name in _PRELOAD:
        try:
            importlib.import_module(name)
        except ImportError:
            pass  # nothing there to hold a reference to a target
    wrapped: Dict[int, Callable] = {}
    missing: List[str] = []

    def patch(module_name: str, attr: str,
              build: Callable[[Callable], Callable]) -> None:
        owner, original = _lookup(module_name, attr)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            return
        wrapper = build(original)
        if "." in attr:
            setattr(owner, attr.rsplit(".", 1)[1], wrapper)
        else:
            wrapped[id(original)] = wrapper
            _rebind(original, wrapper)

    for module_name, attr, span, before, after in TARGETS:
        patch(module_name, attr,
              lambda fn: _wrap(rec, fn, span, before, after))
    patch("repro.runtime.resilience", "_pool_cell", lambda fn: _ship(rec, fn))
    patch("repro.runtime.resilience", "_record_success",
          lambda fn: _receive(rec, fn))
    # The CLI dispatches figures through a table of runner functions.
    table = getattr(sys.modules.get("repro.__main__"), "_EXPERIMENTS", {})
    for key, (runner, *rest) in list(table.items()):
        table[key] = (wrapped.get(id(runner), runner), *rest)
    if missing:
        print(f"perfbench: not traced, gone from the program: "
              f"{', '.join(missing)}", file=sys.stderr)
    return rec


# ----------------------------------------------------------------------
# Analysis (benchmark side)
# ----------------------------------------------------------------------

def read_jsonl(path: Path, tag: str) -> Tuple[List[Dict[str, Any]],
                                              Dict[str, float]]:
    """Spans and counters of one traced process; ids prefixed by ``tag``."""
    spans, counters = [], {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "span":
            record["id"] = f"{tag}/{record['id']}"
            if record["parent"] is not None:
                record["parent"] = f"{tag}/{record['parent']}"
            spans.append(record)
        elif record["type"] == "counter":
            counters[record["name"]] = record["value"]
    return spans, counters


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> its duration minus the time its children cover."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = _union((max(a, lo), min(b, hi))
                         for a, b in children[span["id"]] if b > lo and a < hi)
        out[span["id"]] = max(0.0, (hi - lo) - covered)
    return out


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: List[Dict[str, Any]], counters: Dict[str, float],
                  wall_s: float, untraced_wall_s: float,
                  service: Optional[Dict[str, Any]] = None,
                  ) -> Dict[str, float]:
    """Per-layer numbers from one traced pass (see README.md)."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def self_sum(name: str) -> float:
        return sum(own[s["id"]] for s in named[name])

    # A capture span that stored a trace missed the cache and ran the tracer.
    stores_under = {s["parent"] for s in named["runtime.cache.store"]}
    captures = [s for s in named["cpu.capture"] if s["id"] in stores_under]
    capture_s = sum(own[s["id"]] for s in captures)
    captured = sum(s["attrs"].get("instr", 0) for s in captures)

    def outer_engine(span: Dict[str, Any]) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == "core.engine":
                return False
            parent = by_id.get(parent["parent"])
        return True

    cells = [s for s in named["core.engine"] if outer_engine(s)]
    cell_ms = [(s["end"] - s["start"]) * 1e3 for s in cells]
    engine_instr = sum(s["attrs"].get("instr", 0) for s in cells)
    hits = counters.get("runtime.cache.hits", 0)
    loads = hits + counters.get("runtime.cache.misses", 0)

    batches = named["serve.batch"]
    waits_ms = [w * 1e3 for s in batches for w in s["attrs"]["waits"]]
    # Under the service every sweep is one batch's fast rung.
    batch_ms = [(s["end"] - s["start"]) * 1e3
                for s in named["runtime.dispatch"]] if batches else []
    gets = [(s["end"] - s["start"]) * 1e6 for s in named["serve.store.get"]]
    puts = [(s["end"] - s["start"]) * 1e6 for s in named["serve.store.put"]]
    metrics = service["metrics"] if service else {}
    served = metrics.get("served", 0)

    covered = _union((s["start"], s["end"]) for s in spans)
    return {
        "cpu.capture_s": capture_s,
        "cpu.instr_per_s": captured / capture_s if capture_s else 0.0,
        "trace.segment_s": self_sum("trace.segment"),
        "runtime.cache.load_s": self_sum("runtime.cache.load"),
        "runtime.cache.store_s": self_sum("runtime.cache.store"),
        "runtime.cache.hit_ratio": hits / loads if loads else 0.0,
        "core.compile_s": self_sum("core.compile"),
        "core.prep.scan_s": self_sum("core.prep.scan"),
        "core.prep.walks_s": self_sum("core.prep.walks"),
        "core.engine.self_s": self_sum("core.engine"),
        "core.engine.cells": float(len(cells)),
        "core.engine.cell_p50_ms": percentile(cell_ms, 50),
        "core.engine.cell_p99_ms": percentile(cell_ms, 99),
        "core.engine.ns_per_instr": (sum(cell_ms) * 1e6 / engine_instr
                                     if engine_instr else 0.0),
        "predictors.sweep_s": self_sum("predictors.sweep"),
        "runtime.dispatch_s": self_sum("runtime.dispatch"),
        "runtime.retries": counters.get("runtime.retries", 0.0),
        "runtime.timeouts": counters.get("runtime.timeouts", 0.0),
        "runtime.respawns": counters.get("runtime.respawns", 0.0),
        "experiments.aggregate_s": self_sum("experiments.figure"),
        "serve.queue_wait_p50_ms": percentile(waits_ms, 50),
        "serve.queue_wait_p99_ms": percentile(waits_ms, 99),
        "serve.batch_p50_ms": percentile(batch_ms, 50),
        "serve.batch_p99_ms": percentile(batch_ms, 99),
        "serve.batches": float(len(batches)),
        "serve.batch_size_mean": (len(waits_ms) / len(batches)
                                  if batches else 0.0),
        "serve.store_get_us": percentile(gets, 50),
        "serve.store_put_us": percentile(puts, 50),
        "serve.hit_ratio": (metrics.get("served_cached", 0) / served
                            if served else 0.0),
        "serve.deduped": float(metrics.get("deduped", 0)),
        "trace.spans": float(len(spans)),
        "trace.coverage_pct": 100.0 * covered / wall_s if wall_s else 0.0,
        "trace.overhead_pct": (100.0 * (wall_s / untraced_wall_s - 1.0)
                               if untraced_wall_s else 0.0),
    }
