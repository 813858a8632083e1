"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of all at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values, q: float = 0.95, beyond: int = TAIL_BEYOND) -> float | None:
    """The q-th percentile, or None when fewer than ``beyond`` samples lie above its rank.

    With q = 0.95 and beyond = 10 that takes at least 200 samples.
    """
    count = len(values)
    if count == 0 or count - math.ceil(q * count) < beyond:
        return None
    return percentile(values, q)
