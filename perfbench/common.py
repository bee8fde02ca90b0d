"""Paths, environment and child-process plumbing shared by the benchmark.

Every program run the benchmark measures is a child process started here,
with a scrubbed environment: inherited ``REPRO_*`` and ``PYTHON*``
variables are dropped so an ambient setting cannot change what is
measured, ``PYTHONPATH`` points at this checkout's ``src`` only, and
bytecode goes to a prefix under the build directory so nothing is
written into the source tree.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (git-ignored).
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
PYTHON = sys.executable
CHILD = str(HERE / "child.py")

#: A child that outlives this is killed and counted as failed, so one
#: run always ends inside the 180 s the harness allows.
CHILD_TIMEOUT_S = 150.0


def has_program() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def src_digest() -> str:
    """SHA-256 over every file under ``src`` (paths and contents).

    Keys primed caches, and stands in for the commit in provenance when
    the checkout is not a git repository.
    """
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(b"\0")
        sha.update(path.read_bytes())
        sha.update(b"\0")
    return sha.hexdigest()


def scratch_dir(tag: str) -> Path:
    """A fresh, absolute, uniquely named directory for one run."""
    path = (WORK / "runs" / f"{tag}-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    path.mkdir(parents=True)
    return path


def copy_tree(source: Optional[Path], dest: Path) -> None:
    """Replace ``dest`` with a copy of ``source`` (or an empty dir)."""
    shutil.rmtree(dest, ignore_errors=True)
    if source is None:
        dest.mkdir(parents=True)
    else:
        shutil.copytree(source, dest)


#: Inherited variables with these prefixes never reach a measured child:
#: the program's own knobs, and the interpreter's (an ambient
#: ``PYTHONDONTWRITEBYTECODE`` alone makes every import recompile).
_SCRUBBED = ("REPRO_", "PYTHON")


def inherited_knobs() -> List[str]:
    """Names of the inherited variables that ``child_env`` drops."""
    return sorted(k for k in os.environ if k.startswith(_SCRUBBED))


def child_env(cache_dir: Path,
              knobs: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
    """Environment for a measured child, free of inherited knobs.

    ``REPRO_CACHE_DIR`` is always an absolute path (a relative one would
    resolve against the child's cwd), plus whatever ``knobs`` sets.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(_SCRUBBED)}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["REPRO_CACHE_DIR"] = str(cache_dir.resolve())
    env.update(knobs or {})
    return env


def repro_knobs(env: Mapping[str, str]) -> Dict[str, str]:
    """The ``REPRO_*`` part of a child environment, for provenance."""
    return {k: v for k, v in sorted(env.items()) if k.startswith("REPRO_")}


@dataclass
class ChildExit:
    """How one child process ended."""

    code: int
    wall_s: float        #: spawn until reaped
    peak_rss_mb: float   #: the child and every descendant it reaped
    stdout: bytes
    stderr: bytes

    def describe(self) -> str:
        tail = self.stderr.decode(errors="replace").strip()[-600:]
        return f"exit {self.code} after {self.wall_s:.1f}s: {tail}"


def run_child(argv: List[str], env: Mapping[str, str], workdir: Path,
              timeout: float = CHILD_TIMEOUT_S) -> ChildExit:
    """Run one child to completion, timing it and reading its peak RSS.

    ``os.wait4`` reports the resource usage of exactly this child and the
    descendants it waited for (a service's worker pool, for one), which
    ``RUSAGE_CHILDREN`` could not separate from earlier children.
    """
    out_path = workdir / f"child-{uuid.uuid4().hex[:8]}.out"
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=dict(env), cwd=ROOT, stdout=out,
                                stderr=err)
    lock = threading.Lock()
    reaped = False

    def kill() -> None:
        with lock:
            if not reaped:
                proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        with lock:
            reaped = True
            proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    result = ChildExit(code=proc.returncode, wall_s=wall,
                       peak_rss_mb=usage.ru_maxrss / 1024.0,
                       stdout=out_path.read_bytes(),
                       stderr=err_path.read_bytes())
    out_path.unlink()
    err_path.unlink()
    return result


def time_to_ready(argv: List[str], env: Mapping[str, str]) -> float:
    """Seconds from spawning ``argv`` until it prints its ``ready`` line.

    The child does its set-up, prints ``ready``, and exits; a child that
    exits without the line raises, since set-up itself failed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=dict(env), cwd=ROOT,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe {argv[1:]} failed (exit {proc.returncode}): "
            f"{err.decode(errors='replace').strip()[-600:]}")
    return ready


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, knobs: Mapping[str, str]) -> Dict[str, object]:
    """What a result was measured on: commit, host, toolchain, knobs.

    Commit and dirty flag are ``None`` unless the checkout root is a git
    work tree (git is not asked, so it never searches parent directories).
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    in_git = (ROOT / ".git").exists()
    status = _git("status", "--porcelain", "--untracked-files=no") \
        if in_git else None
    return {
        "commit": _git("rev-parse", "HEAD") if in_git else None,
        "dirty": None if status is None else bool(status),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "command": [Path(PYTHON).name, *sys.orig_argv[1:]],
        "repro_env": dict(knobs),
        "cleared_env": inherited_knobs(),
    }
