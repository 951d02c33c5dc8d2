"""Synthetic open-loop workloads and serving-metric summaries.

An *open-loop* workload submits requests on a Poisson arrival process at
a configured offered load, independent of how fast the server drains
them — the standard way to expose admission control and load shedding
(a closed loop self-throttles and never overloads the queue).

:func:`run_open_loop` drives one workload against a live server;
:func:`summarize` reduces the terminal sessions to the serving metrics
the bench reports: p50/p99 latency, goodput, SLO attainment, and mean
accuracy-at-interrupt (the quantity the anytime model uniquely offers —
what quality did interrupted requests walk away with?).
"""

from __future__ import annotations

import math
import random
import time as _time
from typing import Any, Callable

from .server import AnytimeServer
from .session import Session, SessionState
from .slo import SLO

__all__ = ["run_open_loop", "summarize", "percentile"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); nan on empty input."""
    if not values:
        return math.nan
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100]: {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_open_loop(server: AnytimeServer,
                  make_builder: Callable[[int], Callable[[], Any]],
                  n_requests: int,
                  rate_hz: float,
                  *,
                  slo: SLO | Callable[[int], SLO] | None = None,
                  metric: Callable[[int], Callable[[Any], float] | None]
                  | None = None,
                  wait_s: float = 0.0,
                  seed: int = 0,
                  key: str | Callable[[int], str | None] | None = None,
                  ) -> list[Session]:
    """Submit ``n_requests`` on a Poisson process at ``rate_hz``.

    ``make_builder(i)`` returns the automaton builder for request ``i``
    (each submission needs its own fresh-automaton thunk), and the
    request is named ``req-<i>``.  ``slo`` may be one SLO for all
    requests or a per-request factory; ``metric`` is a per-request
    factory (or None for no metrics).  ``key`` is an
    optional coalescing key — one for all requests or a per-request
    factory (see :func:`~repro.serve.digest.input_digest`).
    Inter-arrival gaps are exponentially distributed with mean
    ``1/rate_hz``, drawn from a seeded generator so a workload is
    reproducible.

    Returns the submitted sessions in order; they may still be in
    flight — pair with ``server.drain()`` and :func:`summarize`.
    """
    if n_requests <= 0:
        raise ValueError(f"n_requests must be positive: {n_requests}")
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive: {rate_hz}")
    rng = random.Random(seed)
    sessions: list[Session] = []
    for i in range(n_requests):
        request_slo = slo(i) if callable(slo) else slo
        request_metric = metric(i) if metric is not None else None
        request_key = key(i) if callable(key) else key
        sessions.append(server.submit(
            make_builder(i), slo=request_slo, metric=request_metric,
            name=f"req-{i}", wait_s=wait_s,
            key=request_key))
        if i + 1 < n_requests:
            _time.sleep(rng.expovariate(rate_hz))
    return sessions


def summarize(sessions: list[Session],
              wall_s: float | None = None) -> dict[str, Any]:
    """Reduce terminal sessions to the serving metrics.

    Every session must already be terminal (``server.drain()`` first);
    a non-terminal session raises.  ``wall_s`` is the workload's total
    wall time, used for throughput; when omitted it is estimated as the
    span from first submission to last completion.
    """
    if not sessions:
        raise ValueError("no sessions to summarize")
    results = []
    for session in sessions:
        if not session.done:
            raise RuntimeError(
                f"session {session.name!r} is not terminal "
                f"(state={session.state.value}); drain the server first")
        results.append(session.result(timeout_s=0.0))

    by_state = {state.value: 0 for state in SessionState}
    for r in results:
        by_state[r.state.value] += 1

    served = [r for r in results if r.state is SessionState.COMPLETED]
    latencies = [r.latency_s for r in served]
    queue_waits = [r.queue_s for r in served]
    interrupted = [r for r in served if r.interrupted]
    snrs = [r.snr_db for r in served if r.snr_db is not None]
    finite_snrs = [s for s in snrs if math.isfinite(s)]
    interrupt_snrs = [r.snr_db for r in interrupted
                      if r.snr_db is not None and math.isfinite(r.snr_db)]
    if wall_s is None:
        submitted = min(s.submitted_at for s in sessions)
        ended = max(s.submitted_at + s.result(0.0).latency_s
                    for s in sessions)
        wall_s = max(ended - submitted, 1e-9)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else math.nan

    return {
        "requests": len(results),
        "states": by_state,
        "completed": len(served),
        "shed": by_state[SessionState.SHED.value],
        "failed": by_state[SessionState.FAILED.value],
        "wall_s": wall_s,
        "throughput_rps": len(served) / wall_s,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p99_s": percentile(latencies, 99),
        "latency_mean_s": mean(latencies),
        "queue_wait_mean_s": mean(queue_waits),
        "interrupted": len(interrupted),
        "precise": sum(1 for s in snrs if math.isinf(s) and s > 0),
        "snr_mean_db": mean(finite_snrs),
        "snr_at_interrupt_mean_db": mean(interrupt_snrs),
        "slo_attainment": (sum(1 for r in served if r.slo_met)
                           / len(served)) if served else math.nan,
        "preemptions_mean": mean([float(r.preemptions) for r in served]),
        "coalesced": sum(1 for r in served if r.coalesced),
        "memo_hits": sum(1 for r in served if r.memo_hit),
    }
