"""Drive the executors directly: ``launch_*().result()`` to the precise
output, one run at a time, no serving stack.

``exec_threaded`` and ``exec_process`` use the executors the other way
from ``fleet_target``: to completion, with no snapshot polling and no
stop.  Here the benchmark process is the process under test, so every
time is reported at nominal machine speed (see ``machine.py``).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.registry import get_app
from repro.serve.fleet import value_digest

from hygiene import own_cpu_seconds
from machine import spin_ms, to_nominal
from refs import make_input, metric_and_digest
from spans import SpanRecorder
from workloads import APPS, TARGET_DB, Op

__all__ = ["Pool", "RunSample", "launcher", "layer_of", "run_ops",
           "first_and_useful_ms", "RUN_TIMEOUT_S"]

#: a run with no result after this long is stopped and counts as failed
RUN_TIMEOUT_S = 30.0


def launcher(workload: str) -> str:
    """Name of the ``AnytimeAutomaton`` launch method of a workload."""
    return {"exec_threaded": "launch_threaded",
            "exec_process": "launch_processes"}[workload]


def layer_of(launch: str) -> str:
    """Layer a launch method's numbers are reported under."""
    return {"launch_threaded": "executor",
            "launch_processes": "procexec"}[launch]


class Pool:
    """The seeded inputs the runs cycle over."""

    def __init__(self, specs: list[Op]) -> None:
        self.images = {op: make_input(op.app, op.seed) for op in specs}
        self.metric: dict[Op, Callable[[Any], float]] = {}
        self.digest: dict[Op, str] = {}

    def references(self) -> None:
        """The benchmark's own reference work, kept out of set-up time:
        the quality metric and the precise digest of every input."""
        for op, image in self.images.items():
            self.metric[op], self.digest[op] = metric_and_digest(op.app,
                                                                 image)


@dataclass
class RunSample:
    """One run as its caller saw it."""

    op: Op
    rid: int
    latency_ms: float
    launch_ms: float
    first_version_ms: float = 0.0
    useful_ms: float = 0.0
    versions: int = 0
    commands: int = 0
    waits: int = 0
    wait_ms: float = 0.0
    round_trips: int = 0
    problems: list[str] = field(default_factory=list)

    def rescale(self, factor: float) -> None:
        """Take every time of the run to nominal machine speed."""
        self.latency_ms *= factor
        self.launch_ms *= factor
        self.first_version_ms *= factor
        self.useful_ms *= factor
        self.wait_ms *= factor


def run_ops(ops: list[Op], pool: Pool, launch: str,
            recorder: SpanRecorder, traced_round: Any = None,
            check: bool = True) -> tuple[list[RunSample], float, float]:
    """Run ``ops`` one after another, a round (one op of every app) at
    a time.

    Returns the samples and the wall and CPU seconds the runs took.
    All of them are at nominal machine speed: ``spin_ms`` is timed
    either side of every round and the round's times are scaled by what
    it read.  Left out of the seconds are the spins and this function's
    own bookkeeping between runs — scanning the returned timeline for
    the first useful version, digesting the final, and collecting the
    result: the values of one run are tens of megabytes and cannot be
    kept until the phase ends.  Spans keep the clock's own times.
    """
    samples: list[RunSample] = []
    wall_s = cpu_s = 0.0
    spin = spin_ms()
    for first in range(0, len(ops), len(APPS)):
        own_wall = own_cpu = 0.0
        round_wall0, round_cpu0 = time.perf_counter(), own_cpu_seconds()
        for index, op in enumerate(ops[first:first + len(APPS)], first):
            if traced_round is not None:
                recorder.enabled = traced_round(index)
            automaton = get_app(op.app).build(pool.images[op])
            start = time.perf_counter()
            handle = getattr(automaton, launch)()
            launched = time.perf_counter()
            result = handle.result(timeout_s=RUN_TIMEOUT_S)
            end = time.perf_counter()

            wall0, cpu0 = time.perf_counter(), time.process_time()
            sample = RunSample(op, index, (end - start) * 1e3,
                               (launched - start) * 1e3)
            samples.append(sample)
            root = recorder.add(f"{launch}.run", "executor", index, start,
                                end)
            recorder.add(f"{launch}.launch", "executor", index, start,
                         launched, root)
            recorder.add(f"{launch}.result", "executor", index, launched,
                         end, root)
            if check:
                _examine(sample, automaton, result, pool)
            # a result is a reference cycle holding tens of megabytes:
            # left to the collector, peak memory counts however many it
            # had not got to yet, and its pauses land inside later runs
            del automaton, handle, result
            gc.collect()
            own_wall += time.perf_counter() - wall0
            own_cpu += time.process_time() - cpu0
        round_wall = time.perf_counter() - round_wall0 - own_wall
        round_cpu = own_cpu_seconds() - round_cpu0 - own_cpu
        before, spin = spin, spin_ms()
        factor = to_nominal(before, spin)
        for sample in samples[first:]:
            sample.rescale(factor)
        wall_s += round_wall * factor
        cpu_s += round_cpu * factor
    return samples, wall_s, cpu_s


def first_and_useful_ms(result: Any, terminal: str, latency_ms: float,
                        metric: Callable[[Any], float],
                        ) -> tuple[float, float | None]:
    """When the caller could first have held any version, and a useful
    one (None if no version was), read off the returned timeline.

    Record times count from the run's own start; they are anchored to
    the caller's clock at the end of the run, which both clocks saw.
    """
    records = result.output_records(terminal)
    if not records:
        return 0.0, None
    tail_ms = latency_ms - result.duration * 1e3
    useful = next((r.time * 1e3 + tail_ms for r in records
                   if metric(r.value) >= TARGET_DB), None)
    return records[0].time * 1e3 + tail_ms, useful


def _examine(sample: RunSample, automaton: Any, result: Any,
             pool: Pool) -> None:
    """Fill in what the returned result says about the run and check
    its final against the precise digest."""
    op = sample.op
    terminal = automaton.terminal_buffer_name
    sample.versions = len(result.output_records(terminal))
    sample.first_version_ms, useful = first_and_useful_ms(
        result, terminal, sample.latency_ms, pool.metric[op])
    if useful is None:
        sample.problems.append("no version reached the useful quality")
    else:
        sample.useful_ms = useful
    for report in result.stage_reports.values():
        sample.commands += report.commands
        sample.waits += report.waits
        sample.wait_ms += report.wait_time * 1e3
        sample.round_trips += report.round_trips
    if not result.completed or result.errors:
        sample.problems.append(
            "timed out" if result.stopped_early
            else f"not completed: {result.errors!r}")
    elif value_digest(result.final_values.get(terminal)) != pool.digest[op]:
        sample.problems.append("final differs from the precise output")
