"""Latency percentiles under the ten-samples-beyond rule, and failure tallies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - math.ceil(q * n)


def samples_needed(q: float) -> int:
    """Smallest sample count that leaves :data:`MIN_BEYOND` beyond ``q``."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (``0 < q < 1``) of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: such a percentile would rest on a handful of samples.
    """
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return sorted(values)[math.ceil(q * n) - 1]


@dataclass
class Tally:
    """Operations attempted and failed in one run.

    An operation fails when it raises or when its output fails a
    correctness check; each operation counts at most once.
    """

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    reasons: Dict[str, int] = field(default_factory=dict)

    def fail(self, op_index: int, reason: str) -> None:
        self.failed_ops.add(op_index)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

