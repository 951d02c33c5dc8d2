"""Synthetic open-loop workloads and serving-metric summaries.

An *open-loop* workload submits requests on a Poisson arrival process at
a configured offered load, independent of how fast the server drains
them — the standard way to expose admission control and load shedding
(a closed loop self-throttles and never overloads the queue).

:func:`run_open_loop` drives one workload through a ``submit`` closure,
so it drives an :class:`~repro.serve.server.AnytimeServer` or a
:class:`~repro.serve.router.FleetRouter` alike; :func:`summarize`
reduces the terminal requests of either to the serving metrics the
bench reports: p50/p99 latency, goodput, SLO attainment, and mean
accuracy-at-interrupt (the quantity the anytime model uniquely offers —
what quality did interrupted requests walk away with?).
"""

from __future__ import annotations

import math
import random
import time as _time
from typing import Any, Callable, Sequence, TypeVar

from .session import SessionState

__all__ = ["run_open_loop", "summarize", "percentile"]

_Request = TypeVar("_Request")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); nan on empty input."""
    if not values:
        return math.nan
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100]: {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_open_loop(submit: Callable[[int], _Request], n_requests: int,
                  rate_hz: float, *, seed: int = 0) -> list[_Request]:
    """Call ``submit(i)`` for ``n_requests`` requests on a Poisson
    process at ``rate_hz``, and return what each call returned, in
    order.

    The closure says everything per request: what to run, its SLO,
    metric, key, name and backpressure budget — ``lambda i:
    server.submit(...)`` or ``lambda i: fleet.submit(...)``.
    Inter-arrival gaps are exponentially distributed with mean
    ``1/rate_hz``, drawn from a generator seeded with ``seed`` so a
    workload is reproducible.  The requests may still be in flight —
    pair with ``drain()`` and :func:`summarize`.
    """
    if n_requests <= 0:
        raise ValueError(f"n_requests must be positive: {n_requests}")
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive: {rate_hz}")
    rng = random.Random(seed)
    requests: list[_Request] = []
    for i in range(n_requests):
        requests.append(submit(i))
        if i + 1 < n_requests:
            _time.sleep(rng.expovariate(rate_hz))
    return requests


def summarize(requests: Sequence[Any],
              wall_s: float | None = None) -> dict[str, Any]:
    """Reduce terminal requests to the serving metrics.

    A request is a server's :class:`~repro.serve.session.Session` or a
    router's :class:`~repro.serve.router.FleetRequest`; either is read
    through its ``outcome()``, the result fields of a fleet ``done``
    frame (:meth:`~repro.serve.session.ServeResult.fields`) whose
    ``latency_s`` is what the submitter saw.  Fields only a fleet
    reports (``shared``, ``worker``, ``redispatches``) count as unset
    on a session.  Every request must already be terminal (drain
    first); a non-terminal one raises.  ``wall_s`` is the workload's
    total wall time, used for throughput; when omitted it is estimated
    as the span from first submission to last completion.
    """
    if not requests:
        raise ValueError("no requests to summarize")
    for i, request in enumerate(requests):
        if not request.done:
            raise RuntimeError(f"request {i} is not terminal; drain "
                               f"the server or router first")
    outcomes = [request.outcome() for request in requests]

    by_state = {state.value: 0 for state in SessionState}
    for r in outcomes:
        by_state[r["state"]] = by_state.get(r["state"], 0) + 1

    served = [r for r in outcomes
              if r["state"] == SessionState.COMPLETED.value]
    latencies = [r["latency_s"] for r in served]
    interrupted = [r for r in served if r["interrupted"]]
    snrs = [r["snr_db"] for r in served if r["snr_db"] is not None]
    interrupt_snrs = [r["snr_db"] for r in interrupted
                      if r["snr_db"] is not None]
    if wall_s is None:
        submitted = min(request.submitted_at for request in requests)
        ended = max(request.submitted_at + r["latency_s"]
                    for request, r in zip(requests, outcomes))
        wall_s = max(ended - submitted, 1e-9)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else math.nan

    return {
        "requests": len(outcomes),
        "states": by_state,
        "completed": len(served),
        "shed": by_state[SessionState.SHED.value],
        "failed": by_state[SessionState.FAILED.value],
        "wall_s": wall_s,
        "throughput_rps": len(served) / wall_s,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p99_s": percentile(latencies, 99),
        "latency_mean_s": mean(latencies),
        "queue_wait_mean_s": mean([r["queue_s"] for r in served]),
        "interrupted": len(interrupted),
        "precise": sum(1 for r in served if r["precise_snr"]),
        "snr_mean_db": mean(snrs),
        "snr_at_interrupt_mean_db": mean(interrupt_snrs),
        "slo_attainment": (sum(1 for r in served if r["slo_met"])
                           / len(served)) if served else math.nan,
        "preemptions_mean": mean([float(r["preemptions"])
                                  for r in served]),
        "coalesced": sum(1 for r in served if r["coalesced"]),
        "memo_hits": sum(1 for r in served if r["memo_hit"]),
        # a worker answered them from a spec that was live at their
        # submit, coalesced or not
        "shared": sum(1 for r in served if r.get("shared")),
        "redispatched": sum(1 for r in outcomes
                            if r.get("redispatches", 0) > 0),
        "workers_used": sorted({r["worker"] for r in served
                                if r.get("worker") is not None}),
    }
