"""Drive the real serving path from outside.

Two TCP workers (``spawn_local_tcp_worker``), one more child process
holding ``FleetRouter(endpoints=...)`` behind ``serve_front``, and one
``AioFleetClient`` connection in this process — the load generator.
One connection, closed loop: on a 2-core box a second request in
flight puts a second run on the second core beside the front end and
the generator, and the latency percentiles stop repeating.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any

from repro.serve.aiofront import AioFleetClient, serve_front
from repro.serve.router import FleetRouter
from repro.serve.transport import spawn_local_tcp_worker

from spans import SpanRecorder
from workloads import SIZE, TARGET_DB, Op

__all__ = ["Fleet", "Sample", "drive", "reap", "slo_of",
           "REQUEST_TIMEOUT_S"]

WORKERS = 2
#: a request with no answer after this long counts as failed
REQUEST_TIMEOUT_S = 30.0


def _front_main(endpoints: list[str], ready: Any) -> None:
    """The front/router child: default router and front-end settings."""
    router = FleetRouter(endpoints=endpoints).start()
    try:
        serve_front(router, announce=lambda host, port: ready.send(port))
    finally:
        router.shutdown()   # tells the workers to exit
    os._exit(0)


def reap(process: Any) -> None:
    """Wait for a child that was told to exit; kill it if it does not."""
    process.join(timeout=5.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)


class Fleet:
    """The processes under test of a ``fleet_*`` workload."""

    def __init__(self) -> None:
        self.workers: list[Any] = []
        self.front: Any = None
        self.port = 0
        try:
            endpoints = []
            for _ in range(WORKERS):
                process, (host, port) = spawn_local_tcp_worker()
                self.workers.append(process)
                endpoints.append(f"{host}:{port}")
            # fork, like the workers: it happens before the generator
            # has an event loop or any thread of its own
            ctx = multiprocessing.get_context("fork")
            ready_r, ready_w = ctx.Pipe(duplex=False)
            self.front = ctx.Process(target=_front_main,
                                     args=(endpoints, ready_w),
                                     name="bench-front", daemon=True)
            self.front.start()
            ready_w.close()
            if not ready_r.poll(15.0):
                raise RuntimeError("front end did not report its port")
            self.port = int(ready_r.recv())
            ready_r.close()
        except BaseException:
            self.close()
            raise

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self.workers + [self.front]]

    def close(self) -> None:
        """SIGTERM the front (graceful drain, then the router shuts the
        workers down); anything still alive afterwards is killed."""
        if self.front is not None and self.front.is_alive():
            os.kill(self.front.pid, signal.SIGTERM)
            self.front.join(timeout=10.0)
        for process in [self.front] + self.workers:
            if process is not None:
                reap(process)
        self.front, self.workers = None, []


@dataclass
class Sample:
    """One request as the client saw it."""

    op: Op
    rid: int
    sent: float
    acked: float = 0.0
    done: float = 0.0
    reply: dict[str, Any] | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


def _stamp(sample: Sample) -> None:
    if not sample.done:
        sample.done = time.perf_counter()


async def drive(client: AioFleetClient, steps: list[list[Op]],
                slo: dict[str, Any] | None, recorder: SpanRecorder,
                traced_round: Any = None) -> list[Sample]:
    """Send ``steps`` one after another; the ops of a step go out back
    to back and are awaited together.  ``traced_round(i)`` says whether
    step ``i`` records spans (default: the recorder's own switch)."""
    samples: list[Sample] = []
    for index, step in enumerate(steps):
        if traced_round is not None:
            recorder.enabled = traced_round(index)
        pending = []
        for op in step:
            sample = Sample(op, len(samples), time.perf_counter())
            samples.append(sample)
            try:
                done = await asyncio.wait_for(
                    client.submit(op.app, size=SIZE, seed=op.seed,
                                  slo=slo), REQUEST_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError,
                    RuntimeError) as exc:
                sample.acked = sample.done = time.perf_counter()
                sample.problems.append(f"submit: {exc!r}")
                continue
            sample.acked = time.perf_counter()
            # stamp the arrival itself: the second of two answers must
            # not be timed by when the loop got round to awaiting it
            done.add_done_callback(lambda _f, s=sample: _stamp(s))
            pending.append((sample, done))
        for sample, done in pending:
            remaining = sample.sent + REQUEST_TIMEOUT_S - time.perf_counter()
            try:
                sample.reply = await asyncio.wait_for(
                    done, max(remaining, 0.001))
                _stamp(sample)
            except (asyncio.TimeoutError, ConnectionError,
                    RuntimeError) as exc:
                sample.done = time.perf_counter()
                sample.problems.append(f"done: {exc!r}")
        if recorder.enabled:
            for sample in [s for s, _ in pending]:
                root = recorder.add("client.request", "client",
                                    sample.rid, sample.sent, sample.done)
                recorder.add("client.submit", "client", sample.rid,
                             sample.sent, sample.acked, root)
                recorder.add("client.done", "client", sample.rid,
                             sample.acked, sample.done, root)
    return samples


def slo_of(workload: str) -> dict[str, Any] | None:
    return {"target_db": TARGET_DB} if workload == "fleet_target" else None
