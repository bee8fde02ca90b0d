"""The repository benchmark: one workload, every metric, checked outputs.

    python3 -B perfbench/run.py --workload sweep-warm --seed 1 \\
        --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``sweep-warm``  -- fig6, fig9 and fig8 at 120k instructions per program,
  each a fresh ``python -m repro`` process on a primed disk cache;
* ``sweep-cold``  -- fig9 at 200k instructions on an empty disk cache;
* ``serve-burst`` -- a seeded zipfian stream, in bursts of 16 concurrent
  submits, into an in-process PredictionService.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of one traced pass, and the spans are written as
JSON lines under ``.bench_build/perfbench/traces/``.  Every line before
the last is for people; the last is one JSON object: ``correct``,
``attempted``, ``failed`` (outputs that differ from the reference, failed
or shed operations) and ``metrics``.  Exits 2 when the checkout has no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import uuid
from pathlib import Path
from typing import Dict, List, Optional

import bench
from common import REFERENCE, WORK, has_program, provenance, scratch_dir
from oracle import Oracle
from scales import SCALES

#: End-to-end metric -> unit (every workload reports all of them).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "requests_per_s": "1/s",
}

#: Per-layer metric -> unit (a layer a workload never reaches reads 0).
PER_LAYER: Dict[str, str] = {
    "cpu.capture_s": "s",
    "cpu.instr_per_s": "1/s",
    "trace.segment_s": "s",
    "runtime.cache.load_s": "s",
    "runtime.cache.store_s": "s",
    "runtime.cache.hit_ratio": "ratio",
    "core.compile_s": "s",
    "core.prep.scan_s": "s",
    "core.prep.walks_s": "s",
    "core.engine.self_s": "s",
    "core.engine.cells": "count",
    "core.engine.cell_p50_ms": "ms",
    "core.engine.cell_p99_ms": "ms",
    "core.engine.ns_per_instr": "ns",
    "predictors.sweep_s": "s",
    "runtime.dispatch_s": "s",
    "runtime.retries": "count",
    "runtime.timeouts": "count",
    "runtime.respawns": "count",
    "experiments.aggregate_s": "s",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.batch_p50_ms": "ms",
    "serve.batch_p99_ms": "ms",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.store_get_us": "us",
    "serve.store_put_us": "us",
    "serve.hit_ratio": "ratio",
    "serve.deduped": "count",
    "trace.spans": "count",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SCALES["full"]))
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds the serve request stream (the sweeps "
                             "are deterministic)")
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure passes until the next would "
                             "overrun this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="'smoke' shrinks every workload for the "
                             "self-test")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference digests to check outputs against")
    return parser


def _write_trace(path: Path, header: Dict[str, object],
                 run: bench.Run, layers: Dict[str, float]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    run_id = header["run_id"]
    with open(path, "w") as out:
        out.write(json.dumps({"type": "run", **header}) + "\n")
        for span in run.traced.spans:
            out.write(json.dumps({"type": "span", "run": run_id, **span})
                      + "\n")
        for name, value in sorted(run.traced.counters.items()):
            out.write(json.dumps({"type": "counter", "run": run_id,
                                  "name": name, "value": value}) + "\n")
        out.write(json.dumps({"type": "layers", "run": run_id,
                              "metrics": layers}) + "\n")


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)  # unwinds through every child's cleanup


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not has_program():
        print("error: this checkout has no src/repro to benchmark",
              file=sys.stderr)
        return 2
    spec = SCALES[args.scale][args.workload]
    work = scratch_dir(args.workload)
    try:
        run = bench.run(spec, args.workload, Oracle(args.reference),
                        args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    header = {"run_id": uuid.uuid4().hex, "workload": args.workload,
              "scale": args.scale,
              "provenance": provenance(args.seed, run.knobs)}
    if args.trace:
        values, units = bench.per_layer(run), PER_LAYER
        path = WORK / "traces" / f"{args.workload}-{header['run_id']}.jsonl"
        _write_trace(path, header, run, values)
        print(f"trace: {path}")
    else:
        values, units = bench.end_to_end(run), END_TO_END
    for reason in run.tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps(header))
    values = {name: float(values[name]) for name in units}
    for name, unit in units.items():
        print(f"{name:28s} {values[name]:16.6f} {unit}")
    print(json.dumps({
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
