"""Measured child processes, started by ``run.py`` with a scrubbed env.

Usage (``PYTHONPATH`` must name the checkout's ``src``)::

    child.py figure FIG BUDGET TRACE_OUT      # one traced figure run
    child.py serve-ready JOBS                 # set-up probe
    child.py serve-prime SPEC                 # fill the trace cache
    child.py serve-pass SPEC SEED OUT [TRACE_OUT]
    child.py serve-reference SPEC             # scalar payload digests

``SPEC`` is a :class:`scales.ServeSpec` as JSON.  Untraced figure runs
do not come through here: they are plain ``python -m repro`` processes.
Only the standard library is imported at the top, so a set-up probe
times the program's imports and not the benchmark's.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional


def figure(fig: str, budget: str, trace_out: str) -> int:
    import tracing

    rec = tracing.install()
    from repro.__main__ import main

    code = main([fig, "--budget", budget])
    sys.stdout.flush()
    rec.dump(Path(trace_out))
    return code


def serve_ready(jobs: str) -> int:
    from repro.serve.service import PredictionService
    import repro.serve.traffic  # noqa: F401  (imported by every pass)

    async def probe() -> None:
        service = PredictionService(jobs=int(jobs))
        await service.start()
        print("ready", flush=True)
        await service.stop()

    asyncio.run(probe())
    return 0


def _universe(spec: Dict[str, Any]) -> List[Any]:
    from repro.serve.traffic import build_universe

    return build_universe(spec["universe_seed"], spec["universe"],
                          budget=spec["budget"])


def serve_prime(spec_json: str) -> int:
    from repro.workloads import load_trace

    spec = json.loads(spec_json)
    for name in sorted({request.workload for request in _universe(spec)}):
        load_trace(name, spec["budget"])
    return 0


def serve_pass(spec_json: str, seed: str, out: str,
               trace_out: Optional[str] = None) -> int:
    """One closed-loop pass: fresh service, empty store, seeded stream."""
    rec = None
    if trace_out is not None:
        import tracing

        rec = tracing.install()
    from repro.serve.service import PredictionService
    from repro.serve.traffic import TrafficModel, request_stream, run_traffic

    spec = json.loads(spec_json)
    universe = _universe(spec)
    model = TrafficModel(pattern="zipfian", arrival="bursty",
                         burst=spec["burst"])
    indexes = request_stream(model, len(universe), spec["requests"],
                             int(seed))

    async def drive() -> Dict[str, Any]:
        async with PredictionService(jobs=spec["jobs"]) as service:
            summary, responses = await run_traffic(service, universe,
                                                   indexes, model)
            return {
                "elapsed_s": summary.elapsed_s,
                "responses": [
                    None if r is None else
                    [r.request_digest, r.status, r.payload_digest,
                     r.latency_s]
                    for r in responses],
                "service": service.summary(),
            }

    result = asyncio.run(drive())
    Path(out).write_text(json.dumps(result))
    if rec is not None:
        rec.dump(Path(trace_out))
    return 0


def serve_reference(spec_json: str) -> int:
    """Payload digest of every universe member (run under REPRO_ENGINE)."""
    from repro.serve.requests import payload_digest, stats_payload

    spec = json.loads(spec_json)
    digests = {request.digest(): payload_digest(stats_payload(request.run()))
               for request in _universe(spec)}
    print(json.dumps(digests, sort_keys=True))
    return 0


COMMANDS = {"figure": figure, "serve-ready": serve_ready,
            "serve-prime": serve_prime, "serve-pass": serve_pass,
            "serve-reference": serve_reference}

if __name__ == "__main__":
    sys.exit(COMMANDS[sys.argv[1]](*sys.argv[2:]))
