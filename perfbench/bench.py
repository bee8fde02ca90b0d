"""The workload runners: set up, measure passes, check every output.

A run is: build the primed cache if this checkout lacks it (untimed),
time the set-up probes, then repeat *passes* of the workload until the
next one would overrun ``--seconds``.  Each pass starts from a fresh copy
of the primed cache (or an empty one); sweep passes are identical, serve
passes each replay their own stream derived from the seed.  The reported
figures are medians over the passes.  A traced run makes one untraced and
one traced pass instead, and reports per-layer numbers from the traced
one.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import tracing
from common import (CHILD, PYTHON, WORK, ChildExit, child_env, copy_tree,
                    repro_knobs, run_child, src_digest, time_to_ready)
from oracle import Oracle
from scales import ServeSpec, Spec, SweepSpec

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

_SWEEP_READY = "import repro.__main__; print('ready', flush=True)"


@dataclass
class Tally:
    """Operations attempted and failed, with why each failure happened."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(why)


@dataclass
class Pass:
    """What one pass measured."""

    wall_s: float
    peak_rss_mb: float
    latencies_ms: List[float]
    n_ops: int
    spans: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    service: Optional[Dict[str, Any]] = None


@dataclass
class Run:
    """Everything one benchmark run produced."""

    setup_s: List[float]
    passes: List[Pass]
    tally: Tally
    knobs: Dict[str, str]
    traced: Optional[Pass] = None
    #: Passes hold one latency per figure, in the same order every pass.
    per_figure: bool = False


def end_to_end(run: Run) -> Dict[str, float]:
    """The untraced metrics: medians over passes, max for memory.

    Serve latency percentiles pool every request of every pass, so that
    one stream's batch pattern does not set the tail.  A sweep pass holds
    only a few figures, and the p99 of a handful of pooled figure times
    would be their slowest one; so each figure's latency is its median
    over the passes, and the percentiles are taken over the figures.
    """
    passes = run.passes
    if run.per_figure:
        latencies = [statistics.median(times) for times in
                     zip(*(p.latencies_ms for p in passes))]
    else:
        latencies = [ms for p in passes for ms in p.latencies_ms]
    return {
        "setup_s": statistics.median(run.setup_s),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "latency_p50_ms": tracing.percentile(latencies, 50),
        "latency_p99_ms": tracing.percentile(latencies, 99),
        "requests_per_s": statistics.median(p.n_ops / p.wall_s
                                            for p in passes),
    }


def per_layer(run: Run) -> Dict[str, float]:
    traced = run.traced
    return tracing.layer_metrics(traced.spans, traced.counters,
                                 traced.wall_s, run.passes[0].wall_s,
                                 traced.service)


# ----------------------------------------------------------------------
# Shared structure
# ----------------------------------------------------------------------

def _primed(name: str, build) -> Path:
    """The primed cache for ``name`` at this source tree, built once.

    Keyed by a digest of ``src``, so an edited program never starts from
    another tree's artifacts; stale siblings are removed.
    """
    root = WORK / "prime"
    path = root / f"{name}-{src_digest()[:16]}"
    if path.is_dir():
        return path
    for stale in root.glob(f"{name}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    building = path.with_name(path.name + ".building")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    build(building)
    building.rename(path)
    return path


def _measure(one_pass, seconds: int, trace: bool
             ) -> Tuple[List[Pass], Optional[Pass]]:
    """Untraced passes until the next would overrun ``seconds``.

    ``one_pass(k, traced)`` runs pass ``k``; a traced run makes pass 0
    twice, untraced then traced, so the two differ only by tracing.
    """
    if trace:
        return [one_pass(0, False)], one_pass(0, True)
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes), False))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall_s > seconds:
            return passes, None


def _read_trace(path: Path, tag: str, into: Pass) -> None:
    spans, counters = tracing.read_jsonl(path, tag)
    into.spans.extend(spans)
    for name, value in counters.items():
        into.counters[name] = into.counters.get(name, 0.0) + value


# ----------------------------------------------------------------------
# Sweeps: one fresh `python -m repro <figure>` per figure
# ----------------------------------------------------------------------

def run_sweep(spec: SweepSpec, label: str, oracle: Oracle, seconds: int,
              trace: bool, work: Path) -> Run:
    budget = str(spec.budget)
    cache = work / "cache"
    env = child_env(cache)
    tally = Tally()

    def figure(fig: str, run_env, traced_out: Optional[Path]) -> ChildExit:
        argv = [PYTHON, "-m", "repro", fig, "--budget", budget]
        if traced_out is not None:
            argv = [PYTHON, CHILD, "figure", fig, budget, str(traced_out)]
        return run_child(argv, run_env, work)

    def build(into: Path) -> None:
        for fig in spec.figures:
            done = figure(fig, child_env(into), None)
            if done.code != 0:
                raise RuntimeError(f"priming {fig}: {done.describe()}")

    prime = _primed(f"{label}-{budget}", build) if spec.warm else None
    setup = [time_to_ready([PYTHON, "-c", _SWEEP_READY], env)
             for _ in range(SETUP_PROBES)]

    def one_pass(_: int, traced: bool) -> Pass:
        copy_tree(prime, cache)
        result = Pass(wall_s=0.0, peak_rss_mb=0.0, latencies_ms=[],
                      n_ops=0)
        for i, fig in enumerate(spec.figures):
            out = work / f"{fig}.jsonl" if traced else None
            done = figure(fig, env, out)
            tally.attempted += 1
            result.n_ops += 1
            result.wall_s += done.wall_s
            result.latencies_ms.append(done.wall_s * 1e3)
            result.peak_rss_mb = max(result.peak_rss_mb, done.peak_rss_mb)
            if done.code != 0:
                tally.fail(f"{fig}: {done.describe()}")
            elif not oracle.figure_ok(fig, spec.budget, done.stdout):
                tally.fail(f"{fig}: output differs from the reference")
            if out is not None and out.exists():
                _read_trace(out, f"{i}", result)
        shutil.rmtree(cache, ignore_errors=True)
        return result

    passes, traced = _measure(one_pass, seconds, trace)
    return Run(setup, passes, tally, repro_knobs(env), traced,
               per_figure=True)


# ----------------------------------------------------------------------
# Serving: bursts into an in-process PredictionService
# ----------------------------------------------------------------------

def run_serve(spec: ServeSpec, label: str, oracle: Oracle, seed: int,
              seconds: int, trace: bool, work: Path) -> Run:
    spec_json = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    cache = work / "cache"
    env = child_env(cache)
    tally = Tally()
    reference = oracle.payloads(spec.universe_seed, spec.universe,
                                spec.budget)
    if reference is None:
        raise RuntimeError(f"no reference payloads for {spec}")

    def build(into: Path) -> None:
        done = run_child([PYTHON, CHILD, "serve-prime", spec_json],
                         child_env(into), work)
        if done.code != 0:
            raise RuntimeError(f"priming traces: {done.describe()}")

    prime = _primed(f"{label}-{spec.budget}", build)
    setup = [time_to_ready([PYTHON, CHILD, "serve-ready", str(spec.jobs)],
                           env)
             for _ in range(SETUP_PROBES)]

    def one_pass(k: int, traced: bool) -> Pass:
        # Each pass replays its own stream, derived from the run's seed.
        copy_tree(prime, cache)
        out = work / "pass.json"
        argv = [PYTHON, CHILD, "serve-pass", spec_json,
                str(seed * 1000 + k), str(out)]
        trace_out = work / "pass.jsonl"
        if traced:
            argv.append(str(trace_out))
        done = run_child(argv, env, work)
        shutil.rmtree(cache, ignore_errors=True)
        if done.code != 0:
            tally.attempted += spec.requests
            tally.fail(f"serve pass: {done.describe()}", spec.requests)
            return Pass(wall_s=done.wall_s, peak_rss_mb=done.peak_rss_mb,
                        latencies_ms=[], n_ops=spec.requests)
        data = json.loads(out.read_text())
        latencies = []
        for response in data["responses"]:
            tally.attempted += 1
            if response is None:
                tally.fail("request shed: admission queue full")
                continue
            digest, status, payload, latency = response
            if status != "served":
                tally.fail(f"request {digest}: {status}")
            elif reference.get(digest) != payload:
                tally.fail(f"request {digest}: payload differs from the "
                           f"reference")
            latencies.append(latency * 1e3)
        result = Pass(wall_s=data["elapsed_s"],
                      peak_rss_mb=done.peak_rss_mb,
                      latencies_ms=latencies,
                      n_ops=len(data["responses"]),
                      service=data["service"])
        if traced:
            _read_trace(trace_out, "serve", result)
        return result

    passes, traced = _measure(one_pass, seconds, trace)
    return Run(setup, passes, tally, repro_knobs(env), traced)


def run(spec: Spec, label: str, oracle: Oracle, seed: int, seconds: int,
        trace: bool, work: Path) -> Run:
    if isinstance(spec, SweepSpec):
        return run_sweep(spec, label, oracle, seconds, trace, work)
    return run_serve(spec, label, oracle, seed, seconds, trace, work)
