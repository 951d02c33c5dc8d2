"""Service-level objectives for anytime requests.

An :class:`SLO` states what "good enough" means for one request: a wall-
clock deadline counted from *submission* (queue wait included — the
client experiences total latency, not run time), a target output quality
in dB, or both.  The paper's interruptibility guarantee is what makes
these objectives cheap to enforce: a request stopped at its deadline
returns whatever valid approximation its output buffer holds, and a
request that reached its target dB early frees its slot for queued work.

The server judges every SLO in one place, its harvest tick: each
subscriber of a run is checked against its own deadline and target
there, and a run launches with no stop condition of its own, since a
shared run must outlive whichever subscriber is satisfied first.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SLO"]


@dataclass(frozen=True)
class SLO:
    """What one request needs: latency bound, quality target, weight.

    Parameters
    ----------
    deadline_s:
        Wall-clock latency bound in seconds, measured from submission
        (time spent queued counts).  None = no deadline.
    target_db:
        Output quality (dB, by the request's metric) at which the
        request is satisfied and may be finished early.  None = run to
        the precise output unless the deadline fires.
    priority:
        Relative weight for the scheduler (>= larger is more
        important); policies may use it to break ties.
    """

    deadline_s: float | None = None
    target_db: float | None = None
    priority: float = 1.0

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive: {self.deadline_s}")
        if self.priority <= 0:
            raise ValueError(
                f"priority must be positive: {self.priority}")

    def deadline_at(self, submitted_at: float) -> float | None:
        """Absolute monotonic deadline for a given submission time."""
        if self.deadline_s is None:
            return None
        return submitted_at + self.deadline_s
