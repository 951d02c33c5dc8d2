"""What one run of one workload reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from stats import mean, percentile

__all__ = ["Outcome", "end_to_end"]


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    problems: list[str] = field(default_factory=list)
    phase_s: float = 0.0    # wall time of the timed phase


def end_to_end(latency_ms: Sequence[float], useful_ms: Sequence[float],
               attempted: int, limit_ms: float, wall_s: float,
               cpu_s: float, rss_mb: float,
               setup_s: Sequence[float]) -> dict[str, float]:
    """The end-to-end metrics.  ``latency_ms`` and ``useful_ms`` hold
    the correct ops only: a failed, refused, timed-out or wrong answer
    is attempted, not correct, and misses the limit."""
    correct = len(latency_ms)
    return {
        "latency_mean_ms": mean(latency_ms),
        "useful_mean_ms": mean(useful_ms),
        "throughput_rps": correct / wall_s if wall_s > 0 else 0.0,
        "within_limit_share": sum(1 for v in latency_ms if v <= limit_ms)
        / max(attempted, 1),
        "cpu_ms_per_op": cpu_s * 1e3 / max(correct, 1),
        "rss_peak_mb": rss_mb,
        "setup_s": percentile(setup_s, 50),
    }
