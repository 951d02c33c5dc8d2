"""Offline-profile-guided budget planning.

The paper's anytime guarantee composes naturally with offline profiling
(Green [3] and friends): measure a runtime-accuracy profile on
calibration inputs once, then — for future inputs of the same class —
read the time budget a target quality needs straight off the profile.
Unlike pure offline approaches, a mispredicted budget is harmless here:
the output at the deadline is still a valid approximation, and "it is a
simple matter of letting it run longer".

:class:`DeadlinePlanner` implements that loop: calibrate on one or more
profiles, pick a budget for a target SNR with a safety margin, and
(optionally) fall back to letting the automaton run on when the target
was missed.
"""

from __future__ import annotations

from typing import Any, Callable

from .profiles import RuntimeAccuracyProfile

__all__ = ["DeadlinePlanner"]


class DeadlinePlanner:
    """Plan time budgets from calibration profiles.

    Parameters
    ----------
    margin:
        Multiplicative safety factor on the looked-up budget (1.2 = run
        20% longer than calibration suggests).
    """

    def __init__(self, margin: float = 1.2) -> None:
        if margin < 1.0:
            raise ValueError(
                f"margin must be >= 1 (a shorter budget than "
                f"calibration suggests makes no sense): {margin}")
        self.margin = margin
        self.profiles: list[RuntimeAccuracyProfile] = []

    def calibrate(self, profile: RuntimeAccuracyProfile) -> None:
        """Add one calibration profile (more inputs, better plans)."""
        if not profile.points:
            raise ValueError("cannot calibrate on an empty profile")
        self.profiles.append(profile)

    @property
    def calibrated(self) -> bool:
        return bool(self.profiles)

    def budget_for(self, target_db: float) -> float:
        """Normalized runtime budget expected to achieve ``target_db``.

        Uses the *worst* (largest) budget across calibration profiles,
        times the margin; falls back to the latest time-to-precise when
        some calibration input never showed the target (conservative).
        """
        if not self.calibrated:
            raise RuntimeError("planner has no calibration profiles")
        budgets = []
        for profile in self.profiles:
            t = profile.time_to_snr(target_db)
            if t is None:
                t = profile.points[-1].runtime
            budgets.append(t)
        return max(budgets) * self.margin

    def run(self, builder: Callable[[], Any], target_db: float,
            total_cores: float = 32.0,
            metric: Callable[[Any, Any], float] | None = None,
            reference: Any = None,
            **run_kwargs: Any) -> tuple[Any, float]:
        """Build an automaton, run it on the simulator to the planned
        budget, and return ``(result, planned_budget)``.

        The run uses a :class:`~repro.core.controller.DeadlineStop` at
        the planned budget times the baseline duration at
        ``total_cores`` — and because the automaton is interruptible,
        a caller that finds the output unacceptable can simply run a
        fresh automaton with a larger margin.
        """
        from ..core.controller import DeadlineStop

        budget = self.budget_for(target_db)
        automaton = builder()
        deadline = automaton.baseline_duration(total_cores) * budget
        result = automaton.run_simulated(
            total_cores=total_cores, stop=DeadlineStop(deadline),
            **run_kwargs)
        return result, budget
