"""Regenerate ``reference.json`` with the scalar reference engines.

    python3 -B perfbench/make_reference.py

Runs every figure of every scale in ``scales.py`` as
``python -m repro <figure> --budget <n> --engine scalar`` and records the
SHA-256 of its stdout, then runs every serve universe under
``REPRO_ENGINE=scalar`` and records each request's payload digest.  The
fast engines must reproduce these bit for bit.  Takes several minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, Mapping

from common import (CHILD, PYTHON, REFERENCE, ROOT, child_env, has_program,
                    run_child, scratch_dir)
from oracle import figure_key, sha256, universe_key
from scales import SCALES, ServeSpec, SweepSpec

#: Committed figure outputs that the 120k-instruction references must
#: equal byte for byte (a cross-check on the oracle itself).
COMMITTED = {"fig6": "fig6_branch_accuracy.txt", "fig8": "fig8_selection.txt",
             "fig9": "fig9_bep_breakdown.txt"}

TIMEOUT_S = 3600.0


def figure_digest(fig: str, budget: int, env: Mapping[str, str],
                  work: Path) -> str:
    done = run_child([PYTHON, "-m", "repro", fig, "--budget", str(budget),
                      "--engine", "scalar"], env, work, timeout=TIMEOUT_S)
    if done.code != 0:
        raise RuntimeError(f"{fig}@{budget}: {done.describe()}")
    digest = sha256(done.stdout)
    print(f"{figure_key(fig, budget)}: {digest[:16]} ({done.wall_s:.0f}s)",
          file=sys.stderr)
    if fig in COMMITTED and budget == 120_000:
        path = ROOT / "benchmarks" / "results" / COMMITTED[fig]
        print(f"  equals {path.name}: {sha256(path.read_bytes()) == digest}",
              file=sys.stderr)
    return digest


def universe_digests(spec: ServeSpec, env: Mapping[str, str],
                     work: Path) -> Dict[str, str]:
    done = run_child([PYTHON, CHILD, "serve-reference",
                      json.dumps(dataclasses.asdict(spec))], env, work,
                     timeout=TIMEOUT_S)
    if done.code != 0:
        raise RuntimeError(f"serve universe {spec}: {done.describe()}")
    return json.loads(done.stdout)


def main() -> int:
    if not has_program():
        print("error: this checkout has no src/repro", file=sys.stderr)
        return 2
    work = scratch_dir("reference")
    try:
        env = child_env(work / "cache", {"REPRO_ENGINE": "scalar"})
        figures: Dict[str, str] = {}
        universes: Dict[str, Dict[str, str]] = {}
        for scale in SCALES.values():
            for spec in scale.values():
                if isinstance(spec, SweepSpec):
                    for fig in spec.figures:
                        key = figure_key(fig, spec.budget)
                        if key not in figures:
                            figures[key] = figure_digest(fig, spec.budget,
                                                         env, work)
                else:
                    key = universe_key(spec.universe_seed, spec.universe,
                                       spec.budget)
                    universes[key] = universe_digests(spec, env, work)
        REFERENCE.write_text(json.dumps(
            {"engine": "scalar", "figures": figures,
             "universes": universes}, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
