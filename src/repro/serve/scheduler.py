"""Slot-allocation policies for the anytime server.

The server owns the mechanism (admission, slot grants, quantum
preemption, starvation guard); a :class:`ServePolicy` owns only the two
decisions that differentiate schedulers:

* :meth:`ServePolicy.rank_ready` — among runnable runs (queued or
  preempted), which gets the next free slot;
* :meth:`ServePolicy.pick_victim` — among running runs past their
  quantum, which yields it.

A policy ranks *runs*, not requests: coalesced requests share one run,
and a run presents its lead's ``name`` and ``slo`` (the request whose
builder launched it) plus its own ``_ready_since``, ``_dispatched_at``,
``run_seconds(now)`` and ``target_met()`` — so a one-subscriber run
ranks exactly as its request would.

:class:`FairSharePolicy` is round-robin in arrival/ready order.
:class:`MarginalGainPolicy` is the quality-aware allocator the paper's
diminishing-returns curves motivate: a calibrated runtime-accuracy
profile (:class:`~repro.metrics.profiles.RuntimeAccuracyProfile`) gives
each request's expected accuracy *slope* at its current run time, so the
server keeps slots on the requests that are still climbing steeply and
preempts the ones grinding out the last fractions of a dB — a request
that already met its target has marginal gain zero by definition.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Sequence

from ..metrics.profiles import RuntimeAccuracyProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import _Run

__all__ = ["ServePolicy", "FairSharePolicy", "MarginalGainPolicy"]


class ServePolicy:
    """Base policy: FIFO grants, longest-running victim."""

    name = "fifo"

    def rank_ready(self, ready: Sequence["_Run"],
                   now: float) -> list["_Run"]:
        """Runnable runs, best-first (the server grants from the
        front).  Default: who has waited longest."""
        return sorted(ready, key=lambda s: s._ready_since)

    def pick_victim(self, candidates: Sequence["_Run"],
                    ready: Sequence["_Run"],
                    now: float) -> "_Run | None":
        """Among running runs past their quantum, which to pause so a
        ready run can go.  None = preempt nobody this tick."""
        if not candidates:
            return None
        return max(candidates, key=lambda s: now - (s._dispatched_at or now))


class FairSharePolicy(ServePolicy):
    """Round-robin: grant to the longest-waiting, preempt the
    longest-running.  Every request makes progress at the same cadence
    regardless of how its accuracy curve looks."""

    name = "fair"


class MarginalGainPolicy(ServePolicy):
    """Allocate slots by expected accuracy gain per second of slot time.

    Parameters
    ----------
    profile:
        Calibrated runtime-accuracy curve for the served application
        (normalized runtime → dB).  Requests are assumed homogeneous
        enough that one curve ranks them; heterogeneous fleets can run
        one server per application class.
    baseline_wall_s:
        Wall seconds corresponding to normalized runtime 1.0 on this
        machine (e.g. a measured solo precise run), mapping a run's
        accumulated slot time onto the profile's x axis.
    horizon_s:
        Lookahead window for the finite-difference slope.
    profile_path:
        Optional JSON file the profile persists to, so calibration
        survives server restarts: :class:`~repro.serve.server.
        AnytimeServer` calls :meth:`load_profile` at ``start()`` (a
        previously saved curve replaces the constructor's) and
        :meth:`save_profile` at ``shutdown()``.
    """

    name = "gain"

    def __init__(self, profile: RuntimeAccuracyProfile,
                 baseline_wall_s: float,
                 horizon_s: float = 0.05,
                 profile_path: str | None = None) -> None:
        if baseline_wall_s <= 0:
            raise ValueError("baseline_wall_s must be positive")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if not profile.points:
            raise ValueError("profile has no points")
        self.baseline_wall_s = baseline_wall_s
        self.horizon_s = horizon_s
        self.profile_path = profile_path
        self._set_profile(profile)

    def _set_profile(self, profile: RuntimeAccuracyProfile) -> None:
        self.profile = profile
        finite = [p.snr_db for p in profile.points
                  if math.isfinite(p.snr_db)]
        # Cap exact-match infinities so slopes stay comparable: reaching
        # the precise output is worth a fixed bonus over the best finite
        # accuracy the curve records.
        self._cap = (max(finite) if finite else 0.0) + 20.0
        self._floor = min(finite) if finite else 0.0
        self._points = [(p.runtime, min(p.snr_db, self._cap))
                        for p in profile.points]

    def load_profile(self) -> bool:
        """Replace the active curve with the one saved at
        ``profile_path``; True if a non-empty saved profile was
        adopted.  Called by the server at start."""
        if self.profile_path is None \
                or not os.path.exists(self.profile_path):
            return False
        profile = RuntimeAccuracyProfile.load(self.profile_path)
        if not profile.points:
            return False
        self._set_profile(profile)
        return True

    def save_profile(self) -> bool:
        """Persist the active curve to ``profile_path``; True if
        written.  Called by the server at shutdown."""
        if self.profile_path is None:
            return False
        self.profile.save(self.profile_path)
        return True

    def _snr_at(self, t_norm: float) -> float:
        best = self._floor
        for runtime, snr in self._points:
            if runtime <= t_norm:
                best = snr
            else:
                break
        return best

    def gain_rate(self, run: "_Run", now: float) -> float:
        """Expected dB/s of granting this run the next horizon,
        weighted by its SLO priority.  Zero once its target is met."""
        if run.target_met():
            return 0.0
        t_norm = run.run_seconds(now) / self.baseline_wall_s
        h_norm = self.horizon_s / self.baseline_wall_s
        gain_db = self._snr_at(t_norm + h_norm) - self._snr_at(t_norm)
        if gain_db <= 0.0 and t_norm < self._points[0][0]:
            # Before the first profiled write every second still buys
            # the climb to that first approximation; rank by how close
            # it is rather than flat zero.
            gain_db = self._cap - self._floor
        return (gain_db / self.horizon_s) * run.slo.priority

    def rank_ready(self, ready: Sequence["_Run"],
                   now: float) -> list["_Run"]:
        return sorted(
            ready,
            key=lambda s: (-self.gain_rate(s, now), s._ready_since))

    def pick_victim(self, candidates: Sequence["_Run"],
                    ready: Sequence["_Run"],
                    now: float) -> "_Run | None":
        if not candidates:
            return None
        best_ready = max((self.gain_rate(s, now) for s in ready),
                         default=0.0)
        victim = min(candidates, key=lambda s: self.gain_rate(s, now))
        # Only preempt when the swap actually raises aggregate slope —
        # pausing a steep climber to run an equally steep one just burns
        # pause/resume latency.
        if self.gain_rate(victim, now) < best_ready:
            return victim
        return None
