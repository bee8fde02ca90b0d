"""The output oracle: reference digests every measured output must match.

``reference.json`` is produced once by ``make_reference.py`` with the
scalar reference engines.  It holds the SHA-256 of each figure's stdout
(keyed ``<figure>@<budget>``) and, per serve universe, the canonical
payload digest of every request in it (keyed by request digest).  A
measured output that differs from its reference digest, or that has no
reference at all, is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

from common import REFERENCE


def figure_key(figure: str, budget: int) -> str:
    return f"{figure}@{budget}"


def universe_key(seed: int, size: int, budget: int) -> str:
    return f"u{seed}x{size}@{budget}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Oracle:
    """Reference digests loaded from one reference file."""

    def __init__(self, path: Path = REFERENCE) -> None:
        data = json.loads(Path(path).read_text())
        self.figures: Dict[str, str] = data["figures"]
        self.universes: Dict[str, Dict[str, str]] = data["universes"]

    def figure_ok(self, figure: str, budget: int, stdout: bytes) -> bool:
        """True when a figure's stdout is byte-identical to its reference."""
        expected = self.figures.get(figure_key(figure, budget))
        return expected is not None and sha256(stdout) == expected

    def payloads(self, seed: int, size: int,
                 budget: int) -> Optional[Dict[str, str]]:
        """Request digest -> payload digest for one serve universe."""
        return self.universes.get(universe_key(seed, size, budget))
