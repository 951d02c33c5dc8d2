"""Order statistics the benchmark reports and compares with.

Kept in the benchmark's own files (not imported from ``repro``) so the
instrument reads the same on every commit it is pointed at.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["mean", "percentile", "quartiles", "spread"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for no samples (a probe that did not run)."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]; 0.0 for no samples.

    Always one of the samples, never an interpolation: client latency
    moves in steps, and a value between two steps was never observed.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100]: {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as the driver takes
    them: ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
