"""Self-test of the benchmark at tiny sizes (a minute or two).

    python3 -B perfbench/smoke.py

Checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
  reports, with the same units;
* every workload, traced and untraced, ends with a result line of the
  documented schema, all outputs correct;
* a corrupted output is caught: the oracle rejects a real figure output
  with one byte flipped, and a run checked against a reference with one
  corrupted digest reports ``correct: false`` and counts the failure;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from common import HERE, PYTHON, REFERENCE, ROOT, child_env, scratch_dir
from oracle import Oracle, figure_key, universe_key
from run import END_TO_END, PER_LAYER
from scales import SCALES

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [PYTHON, "-B", "perfbench/run.py", "--seed", "3", "--seconds", "1",
         "--scale", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> Dict[str, Any]:
    check(done.returncode == 0, f"exit {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "attempted must be a positive integer")
    check(isinstance(result["failed"], int), "failed must be an integer")
    return result


def test_manifest() -> Dict[str, List[str]]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in manifest["workloads"]}
    check(names == set(SCALES["full"]), f"workloads {sorted(names)}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        check(declared == table,
              f"{key} in BENCHMARK.json differs from run.py: "
              f"{sorted(set(declared) ^ set(table))}")
    return {"end_to_end": list(END_TO_END), "per_layer": list(PER_LAYER)}


def test_workloads(names: Dict[str, List[str]]) -> None:
    for workload in SCALES["smoke"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(bench(ROOT, "--workload", workload,
                                     "--trace", str(trace)))
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: {result}")
            check(list(result["metrics"]) == names[key],
                  f"{workload} trace={trace}: metric names")
            for metric in result["metrics"].values():
                check(set(metric) == {"value", "unit"}, "metric keys")
                check(isinstance(metric["value"], (int, float)),
                      "metric value must be a number")
            if trace:
                layers = result["metrics"]
                check(layers["trace.spans"]["value"] > 0,
                      f"{workload}: no spans recorded")
                check(layers["trace.coverage_pct"]["value"] > 0,
                      f"{workload}: no layer coverage")
            print(f"ok  {workload} trace={trace}", flush=True)


def test_corruption() -> None:
    oracle = Oracle()
    work = scratch_dir("smoke")
    try:
        spec = SCALES["smoke"]["sweep-cold"]
        fig = spec.figures[0]
        done = subprocess.run(
            [PYTHON, "-m", "repro", fig, "--budget", str(spec.budget)],
            cwd=ROOT, capture_output=True, timeout=300,
            env=child_env(work / "cache"))
        output = done.stdout
        check(oracle.figure_ok(fig, spec.budget, output),
              "the real output must match its reference")
        flipped = bytearray(output)
        flipped[len(flipped) // 2] ^= 0x01
        check(not oracle.figure_ok(fig, spec.budget, bytes(flipped)),
              "a flipped byte must fail the oracle")

        data = json.loads(REFERENCE.read_text())
        data["figures"][figure_key(fig, spec.budget)] = "0" * 64
        serve = SCALES["smoke"]["serve-burst"]
        payloads = data["universes"][universe_key(
            serve.universe_seed, serve.universe, serve.budget)]
        for digest in payloads:
            payloads[digest] = "0" * 64
        corrupted = work / "reference.json"
        corrupted.write_text(json.dumps(data))
        for workload in ("sweep-cold", "serve-burst"):
            result = result_of(bench(ROOT, "--workload", workload,
                                     "--reference", str(corrupted)))
            check(not result["correct"] and result["failed"] >= 1,
                  f"{workload}: a corrupted output went unnoticed: {result}")
            print(f"ok  {workload} counts a corrupted output "
                  f"({result['failed']}/{result['attempted']})", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_bare_directory() -> None:
    bare = scratch_dir("bare")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "--workload", "sweep-warm")
        check(done.returncode != 0, "must fail without a program")
        check("correct" not in done.stdout, "must print no result")
        print("ok  bare directory exits non-zero", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    names = test_manifest()
    print("ok  BENCHMARK.json matches run.py", flush=True)
    test_bare_directory()
    test_corruption()
    test_workloads(names)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
