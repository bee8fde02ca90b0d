"""Workload parameters: the full benchmark and a tiny smoke-test scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union


@dataclass(frozen=True)
class SweepSpec:
    """Paper figures, one fresh ``python -m repro <figure>`` each."""

    figures: Tuple[str, ...]
    budget: int   #: instructions per program, passed as ``--budget``
    warm: bool    #: start from a primed disk cache, else an empty one


@dataclass(frozen=True)
class ServeSpec:
    """A closed loop of bursts into one in-process PredictionService."""

    budget: int          #: instructions per request's workload trace
    universe: int        #: distinct requests the stream draws from
    universe_seed: int   #: fixed, so the oracle covers every member
    requests: int        #: requests per pass
    burst: int           #: concurrent submits per burst
    jobs: int            #: worker pool size of the service


Spec = Union[SweepSpec, ServeSpec]

SCALES: Dict[str, Dict[str, Spec]] = {
    "full": {
        "sweep-warm": SweepSpec(("fig6", "fig9", "fig8"), 120_000, True),
        "sweep-cold": SweepSpec(("fig9",), 200_000, False),
        "serve-burst": ServeSpec(budget=20_000, universe=400,
                                 universe_seed=0, requests=4000, burst=16,
                                 jobs=2),
    },
    "smoke": {
        "sweep-warm": SweepSpec(("fig6", "fig9", "fig8"), 2_000, True),
        "sweep-cold": SweepSpec(("fig9",), 3_000, False),
        "serve-burst": ServeSpec(budget=1_000, universe=24,
                                 universe_seed=0, requests=96, burst=16,
                                 jobs=2),
    },
}
