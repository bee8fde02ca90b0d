"""Workload abstraction and registration.

A workload is a program in the tiny ISA standing in for one SPEC95 benchmark
(the paper's input set, which we cannot run without SPARC binaries and
Shade).  Each analog is a *real program* — hashing, searching, interpreting,
stencil sweeps — chosen so its dynamic control flow has the character of the
benchmark it replaces: integer codes are irregular and data-dependent,
floating-point codes are dominated by long counted loops.

Workloads are registered by module import (see :mod:`repro.workloads`); the
registry caches built programs and executed traces per process so parameter
sweeps do not re-run the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.program import Program

SUITE_INT = "int"
SUITE_FP = "fp"
#: Non-SPEC workloads: registered (and covered by every parity suite)
#: but outside the paper's Figure 9 program lists.
SUITE_EXTRA = "extra"

_SUITES = (SUITE_INT, SUITE_FP, SUITE_EXTRA)

#: Environment variable: instruction budget above which trace capture
#: streams fixed-size chunks to the disk cache instead of materialising
#: the whole record stream in memory.
STREAM_ENV = "REPRO_TRACE_STREAM"

#: Default streaming threshold (10^7 instructions).
DEFAULT_STREAM_THRESHOLD = 10_000_000


def stream_threshold() -> int:
    """Streaming threshold from ``REPRO_TRACE_STREAM`` (validated)."""
    from .. import envvars

    raw = envvars.read(STREAM_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_STREAM_THRESHOLD
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{STREAM_ENV} must be a positive integer, got {raw!r}") \
            from None
    if value < 1:
        raise ValueError(
            f"{STREAM_ENV} must be a positive integer, got {value}")
    return value


@dataclass(frozen=True)
class Workload:
    """One registered benchmark analog.

    Attributes:
        name: the SPEC95 program this stands in for (e.g. ``compress``).
        suite: ``"int"`` (SPECint95) or ``"fp"`` (SPECfp95).
        description: one line on what the analog computes and why its
            control flow matches the original's character.
        builder: zero-argument callable producing the program.
    """

    name: str
    suite: str
    description: str
    builder: Callable[[], Program]

    def build(self) -> Program:
        """Assemble the workload program (uncached)."""
        program = self.builder()
        return program


class WorkloadRegistry:
    """Name -> workload mapping with program/trace caches."""

    def __init__(self) -> None:
        self._workloads: Dict[str, Workload] = {}
        self._programs: Dict[str, Program] = {}
        self._traces: Dict[Tuple[str, int], object] = {}
        self._digests: Dict[str, str] = {}

    def register(self, name: str, suite: str,
                 description: str) -> Callable:
        """Decorator registering a builder function as a workload."""
        if suite not in _SUITES:
            raise ValueError(f"unknown suite: {suite!r}")

        def wrap(builder: Callable[[], Program]) -> Callable[[], Program]:
            """Register ``builder`` under the decorator's name."""
            if name in self._workloads:
                raise ValueError(f"duplicate workload: {name!r}")
            self._workloads[name] = Workload(name, suite, description,
                                             builder)
            return builder

        return wrap

    def get(self, name: str) -> Workload:
        """Look up a workload, raising KeyError with the known names."""
        try:
            return self._workloads[name]
        except KeyError:
            known = ", ".join(sorted(self._workloads))
            raise KeyError(f"unknown workload {name!r}; known: {known}") \
                from None

    def names(self, suite: Optional[str] = None) -> List[str]:
        """Registered workload names, optionally filtered by suite."""
        return sorted(n for n, w in self._workloads.items()
                      if suite is None or w.suite == suite)

    def program(self, name: str) -> Program:
        """Build (and cache) the workload's program."""
        if name not in self._programs:
            self._programs[name] = self.get(name).build()
        return self._programs[name]

    def digest(self, name: str) -> str:
        """Content hash of the workload's assembled program.

        Keys the persistent cache: editing an analog's code changes its
        digest and silently invalidates every cached artifact.
        """
        if name not in self._digests:
            from ..runtime import cache as disk_cache

            self._digests[name] = disk_cache.program_digest(
                self.program(name))
        return self._digests[name]

    def trace(self, name: str, max_instructions: int):
        """Execute (and cache) the workload's trace.

        Capture goes through the tracer selected by ``REPRO_TRACER``
        (:func:`repro.cpu.capture_machine`).  Budgets at or above
        ``REPRO_TRACE_STREAM`` are captured *streaming*: the fast tracer
        hands bounded record segments to a chunk writer spooling
        straight into the disk cache, and a lazily-read
        :class:`~repro.trace.chunks.ChunkedTrace` is returned instead of
        a materialised trace — peak capture memory is one chunk
        (``REPRO_TRACE_CHUNK`` records) regardless of budget.

        Traces are memoised per process and, unless disabled via
        ``REPRO_CACHE_DIR``, persisted by :mod:`repro.runtime.cache` so
        repeated invocations — including parallel sweep workers — skip
        the interpreter entirely; capture-version-stamped artifacts
        mean a scalar-era cache entry is quarantined and recomputed,
        never served.
        """
        from ..cpu import capture_machine
        from ..runtime import cache as disk_cache, profile

        key = (name, max_instructions)
        if key not in self._traces:
            with profile.phase("trace"):
                trace = disk_cache.load_trace(name, max_instructions,
                                              self.digest(name))
                if trace is None \
                        and max_instructions >= stream_threshold():
                    trace = disk_cache.load_chunked_trace(
                        name, max_instructions, self.digest(name))
                    if trace is None:
                        trace = self._capture_chunked(name,
                                                      max_instructions)
                if trace is None:
                    program = self.program(name)
                    trace = capture_machine(program).run(
                        max_instructions=max_instructions).trace
                    disk_cache.store_trace(trace, name, max_instructions,
                                           self.digest(name))
                self._traces[key] = trace
        return self._traces[key]

    def _capture_chunked(self, name: str, max_instructions: int):
        """Stream one capture into the disk cache as a chunk container.

        Returns the resulting
        :class:`~repro.trace.chunks.ChunkedTrace`, or ``None`` when
        streaming is unavailable — the scalar reference tracer has no
        streaming path, and with the disk cache disabled there is
        nowhere durable to spool — in which case the caller falls back
        to materialised capture.
        """
        from ..cpu import use_fast_tracer
        from ..cpu.fast import FastMachine
        from ..runtime import cache as disk_cache
        from ..trace.chunks import (ChunkedTrace, TraceChunkWriter,
                                    chunk_records)

        if not use_fast_tracer():
            return None
        path = disk_cache.chunked_trace_path(name, max_instructions,
                                             self.digest(name))
        if path is None:
            return None
        program = self.program(name)
        per_chunk = chunk_records()
        with TraceChunkWriter(path, entry_pc=program.entry, name=name,
                              records_per_chunk=per_chunk) as writer:
            executed, halted, truncated = FastMachine(
                program).run_streaming(writer,
                                       max_instructions=max_instructions,
                                       flush_records=per_chunk)
            writer.close(executed, truncated=truncated)
        disk_cache.seal_chunked_trace(path)
        return ChunkedTrace(path)

    def clear_caches(self) -> None:
        """Drop cached programs, traces and digests (tests)."""
        self._programs.clear()
        self._traces.clear()
        self._digests.clear()


#: The process-wide registry the workload modules register into.
REGISTRY = WorkloadRegistry()
