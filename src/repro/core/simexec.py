"""Deterministic discrete-event execution of anytime automata.

This is the evaluation substrate standing in for the paper's 32-thread
POWER7+ machine (see DESIGN.md).  Every stage runs as a coroutine of
commands pumped by the shared kernel (:func:`~repro.core.kernel.drive`);
:class:`Compute` costs are divided by the stage's core share and
advance a virtual clock; writes, waits and channel operations are
zero-time synchronization events.  The event order is fully deterministic
(ties broken by submission sequence), so runtime-accuracy profiles are
bit-reproducible — something wall-clock threading cannot offer, and the
reason the benchmarks use this executor.

The execution semantics are exactly the model's: stages run concurrently,
consumers see atomic buffer snapshots, a consumer that finishes a pass
picks up whichever newer version exists (asynchronous pipeline), and
synchronous channels deliver every update in order with optional
backpressure.

Fault tolerance is the kernel's, as on the wall-clock executors: a stage
exception is retried (fresh generator, virtual-time backoff), degraded
(output sealed at the last published version; downstream finishes on
it), or — under the fail-fast default — halts the run, which still
*returns* the partial timeline with per-stage
:class:`~repro.core.faults.StageReport` records.  Because injected faults
are scheduled by command count and the event order is deterministic, a
fault schedule replays bit-identically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from .controller import StopCondition
from .faults import FaultInjector, FaultPolicy, StageReport
from .graph import AutomatonGraph
from .kernel import (DONE, EXHAUSTED, HALTED, SUSPENDED, ExecutionError,
                     Kernel, RunResult, drive, energy_of, open_body)
from .recording import Timeline
from .scheduling import SchedulingPolicy, proportional_shares
from .stage import CHANNEL_END, Stage
from .syncstage import SynchronousStage
from .tracing import TraceSink

__all__ = ["SimResult", "SimulatedExecutor", "ExecutionError"]


def _find_deadline(stop: StopCondition | None) -> float | None:
    """Extract the tightest virtual-time deadline from a stop tree."""
    from .controller import AnyOf, DeadlineStop

    if stop is None:
        return None
    if isinstance(stop, DeadlineStop):
        return stop.deadline
    if isinstance(stop, AnyOf):
        deadlines = [d for d in (_find_deadline(c)
                                 for c in stop.conditions)
                     if d is not None]
        return min(deadlines) if deadlines else None
    return None


#: payload marking a buffer-waiter wake-up (vs. a step completion)
_WAKE = object()

#: marks "no update pending" for a producer blocked on a full channel
_NO_PENDING = object()


@dataclass
class SimResult(RunResult):
    """Outcome of one simulated run.

    ``completed`` means every stage ran to its natural end without
    degradation; ``stopped_early`` means a stop condition fired — a pure
    stage failure sets *neither* (inspect ``stage_reports``/``errors``).
    """

    timeline: Timeline
    duration: float
    energy: float
    completed: bool            # all stages ran to completion
    stopped_early: bool        # a stop condition fired
    shares: dict[str, float]
    final_values: dict[str, Any] = field(default_factory=dict)
    errors: list[tuple[str, BaseException]] = field(default_factory=list)
    stage_reports: dict[str, StageReport] = field(default_factory=dict)


class _Process:
    """One stage's coroutine under virtual time: the
    :func:`~repro.core.kernel.drive` backend.  Compute schedules the
    stage's completion and suspends it; a wait, recv or emit that cannot
    proceed records what it waits for and suspends it."""

    __slots__ = ("sim", "stage", "report", "gen", "done",
                 "waiting_inputs", "waiting_recv", "waiting_emit",
                 "wait_started", "wait_kind")

    def __init__(self, sim: "SimulatedExecutor", stage: Stage) -> None:
        self.sim = sim
        self.stage = stage
        self.report = sim.reports[stage.name]
        self.gen: Any = None
        self.done = False
        self.waiting_inputs: dict[str, int] | None = None
        self.waiting_recv = False
        self.waiting_emit: Any = _NO_PENDING  # pending update when blocked
        self.wait_started: float | None = None  # block time, for tracing
        self.wait_kind = ""                     # "inputs"|"recv"|"emit"

    def live(self) -> bool:
        return not self.sim._halted

    def _suspend(self, kind: str) -> Any:
        self.wait_started = self.sim._clock
        self.wait_kind = kind
        return SUSPENDED

    def compute(self, cmd: Any) -> Any:
        sim, name = self.sim, self.stage.name
        sim.charge(energy_of(cmd))
        if sim._pool is not None:
            sim._pool.start(name, cmd.cost, sim._clock)
        else:
            sim._schedule(self, sim._clock + cmd.cost / sim.shares[name],
                          None)
        return SUSPENDED

    def write(self, cmd: Any) -> None:
        self.sim.publish(self.stage, cmd.value, cmd.final, cmd.transfer)
        self.sim._wake_readers(self.stage.output.name)

    def wait_inputs(self, seen: dict[str, int]) -> Any:
        reply = self.sim.reply_wait(self.stage, seen)
        if reply is not None:
            return reply
        self.waiting_inputs = dict(seen)
        for b in self.stage.inputs:
            self.sim._readers.setdefault(b.name, []).append(self)
        return self._suspend("inputs")

    def poll_inputs(self, seen: dict[str, int]) -> bool:
        return self.sim.reply_poll(self.stage, seen)

    def emit(self, update: Any) -> Any:
        # ChannelClosed here means the consumer died and aborted the
        # stream; it reaches the fault policy like any stage error
        if not self.sim.try_emit(self.stage, update):
            self.waiting_emit = update
            return self._suspend("emit")
        self.sim._wake_consumer(self.stage.emit_to)
        return None

    def close_channel(self) -> None:
        self.sim.close_channel(self.stage)
        self.sim._wake_consumer(self.stage.emit_to)

    def recv(self) -> Any:
        channel = self.stage.channel
        ok, update = self.sim.try_recv(self.stage)
        if not ok:
            self.waiting_recv = True
            return self._suspend("recv")
        if update is CHANNEL_END:
            return update
        # the dequeue made room for a producer blocked on a full channel
        self.sim._wake_producer(channel)
        return update


class SimulatedExecutor(Kernel):
    """Runs an :class:`AutomatonGraph` under virtual time.

    Parameters
    ----------
    graph:
        The validated automaton.
    total_cores:
        Core budget divided among stages by ``schedule``.
    schedule:
        A :data:`~repro.core.scheduling.SchedulingPolicy` or an explicit
        ``{stage: share}`` dict.
    stop:
        Optional :class:`StopCondition`, consulted after each watched
        write.
    watch:
        Buffer names whose written values are retained in the timeline
        (defaults to the terminal buffer).  The stop condition only sees
        watched writes.
    faults:
        A :class:`FaultPolicy` for every stage, or a ``{stage: policy}``
        mapping (key ``"*"`` is the default).  None = fail-fast.
    injector:
        Optional :class:`FaultInjector` test harness (single-use).
    strict:
        When True, a run ending with an unrecovered stage failure
        raises :class:`ExecutionError` instead of returning the partial
        result.
    trace:
        Optional :class:`~repro.core.tracing.TraceSink` receiving
        structured execution events (stage spans, waits, buffer and
        channel operations, fault dispositions).  None — or a sink with
        ``enabled=False`` such as ``NullSink`` — disables every hook at
        a single ``is None`` check (zero overhead when off).
    trace_metric / trace_reference:
        When both tracing and a metric are supplied, each watched write
        additionally emits an ``accuracy.sample`` event with
        ``metric(value, trace_reference)`` — the accuracy-vs-time event
        stream.
    resume:
        A :class:`~repro.ckpt.state.ResumeInfo` from a restored
        checkpoint: live stages continue their replayed generators,
        finished stages are not re-run, the virtual clock,
        energy meter, stage reports and stop-condition progress
        continue from the interrupted run, and the result's timeline
        is prefixed with the interrupted run's records.
    checkpoint_at_stop:
        Optional path: when the run ends (stop condition or natural
        completion), write its reply log there as a checkpoint.
    """

    EXECUTOR = "simulated"
    WALL_CLOCK = False
    HOLDS_VALUES = True
    RESULT = SimResult

    def __init__(self, graph: AutomatonGraph,
                 total_cores: float = 32.0,
                 schedule: SchedulingPolicy | dict[str, float]
                 = proportional_shares,
                 stop: StopCondition | None = None,
                 watch: set[str] | None = None,
                 dynamic_shares: bool = False,
                 faults: FaultPolicy | dict[str, FaultPolicy] | None = None,
                 injector: FaultInjector | None = None,
                 strict: bool = False,
                 trace: TraceSink | None = None,
                 trace_metric: Any = None,
                 trace_reference: Any = None,
                 resume: Any = None,
                 checkpoint_at_stop: str | None = None) -> None:
        super().__init__(graph, stop=stop, watch=watch, faults=faults,
                         injector=injector, strict=strict, trace=trace,
                         trace_metric=trace_metric,
                         trace_reference=trace_reference, resume=resume)
        if total_cores <= 0:
            raise ValueError(f"total_cores must be positive: {total_cores}")
        #: when True, cores are reassigned dynamically: the policy's
        #: shares become *weights* and the machine is divided among the
        #: stages computing at each instant (generalized processor
        #: sharing; paper IV-C2's future-work scheduler)
        self.dynamic_shares = bool(dynamic_shares)
        self.total_cores = float(total_cores)
        if callable(schedule):
            self.shares = schedule(graph, self.total_cores)
        else:
            self.shares = dict(schedule)
        for stage in graph.stages:
            share = self.shares.get(stage.name)
            if share is None or share <= 0:
                raise ValueError(
                    f"stage {stage.name!r} has no positive core share")
        self.checkpoint_at_stop = checkpoint_at_stop
        # a resumed run continues the interrupted run's virtual clock
        self._clock = self.t_offset
        self._halted = False      # a stop or a fail-fast failure
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = 0
        self._pool: Any = None
        self._readers: dict[str, list[_Process]] = {}
        self._consumer: dict[int, _Process] = {}
        self._producer: dict[int, _Process] = {}

    def now(self) -> float:
        return self._clock

    def request_stop(self) -> None:
        """Interrupt the run before its next event."""
        self.stop_requested = True
        self._halted = True

    # -- event plumbing ----------------------------------------------------

    def _schedule(self, proc: _Process, at: float, payload: Any) -> None:
        heapq.heappush(self._heap, (at, self._seq, proc.stage.name,
                                    payload))
        self._seq += 1

    def _end_wait(self, proc: _Process) -> None:
        if proc.wait_started is not None:
            self.record_wait(proc.stage.name, proc.wait_started,
                             proc.wait_kind)
            proc.wait_started = None

    def _wake_readers(self, buffer: str) -> None:
        for waiter in self._readers.pop(buffer, []):
            if not waiter.done:
                self._schedule(waiter, self._clock, _WAKE)

    def _wake_consumer(self, channel: Any) -> None:
        """Hand a consumer blocked in recv the next update, or the end of
        a closed, drained stream."""
        consumer = self._consumer[id(channel)]
        if not consumer.waiting_recv \
                or not (len(channel) or channel.closed):
            return
        consumer.waiting_recv = False
        self._end_wait(consumer)
        self._schedule(consumer, self._clock,
                       self.try_recv(consumer.stage)[1])

    def _wake_producer(self, channel: Any) -> None:
        """Resume a producer blocked on a full channel: its pending
        update takes the room a recv made, or — the stream aborted — is
        lost with it, and the producer's next emit observes the abort."""
        producer = self._producer.get(id(channel))
        if producer is None or producer.waiting_emit is _NO_PENDING:
            return
        pending, producer.waiting_emit = producer.waiting_emit, _NO_PENDING
        self._end_wait(producer)
        if channel.closed:
            self.drop_emit(producer.stage)
        else:
            self.try_emit(producer.stage, pending)
        self._schedule(producer, self._clock, None)

    def seal_outputs(self, stage: Stage) -> None:
        """Seal, then release everyone blocked on what the stage fed, so
        degradation cascades instead of wedging."""
        super().seal_outputs(stage)
        self._wake_readers(stage.output.name)
        if stage.emit_to is not None:
            self._wake_consumer(stage.emit_to)
        if isinstance(stage, SynchronousStage):
            self._wake_producer(stage.channel)

    def _step(self, proc: _Process, value: Any) -> None:
        """Resume one stage with a delivered value until it suspends."""
        try:
            outcome = drive(proc.gen, value, proc)
        except BaseException as exc:   # noqa: BLE001 - the fault policy
            action, delay = self.on_failure(proc.stage, exc)
            if action == "restart":
                self.start(proc.stage.name)
                proc.gen = open_body(proc.stage, self.injector, False)
                self._schedule(proc, self._clock + delay, None)
                return
            proc.done = True
            if action == "fail":
                self._halted = True
            return
        if outcome == DONE or outcome == EXHAUSTED:
            proc.done = True
            self.finish(proc.stage, outcome)

    # -- kernel ----------------------------------------------------------

    def run(self) -> SimResult:
        procs = {s.name: _Process(self, s) for s in self.graph.stages}
        for p in procs.values():
            if isinstance(p.stage, SynchronousStage):
                self._consumer[id(p.stage.channel)] = p
            if p.stage.emit_to is not None:
                self._producer[id(p.stage.emit_to)] = p
        if self.dynamic_shares:
            from .procsharing import ProcessorPool

            self._pool = ProcessorPool(self.total_cores, self.shares)
        self.install_hooks()
        finished = (self._resume.finished if self._resume is not None
                    else set())
        for name in sorted(procs):
            proc = procs[name]
            if name in finished:
                # restored terminal stage: its buffer ladder (and seal /
                # final flags) came back with the graph state; it never
                # enters the event loop
                proc.done = True
                continue
            self.start(name, first=True)
            proc.gen = open_body(proc.stage, self.injector, False,
                                 self.replayed(name))
            self._schedule(proc, self._clock, None)
        # Deadlines are enforced by the kernel itself: no event past the
        # deadline executes, so the timeline never contains an output
        # version the deadline would not actually have allowed.
        deadline = _find_deadline(self.stop)
        heap, pool = self._heap, self._pool

        while not self._halted:
            # Pick the next event: the heap's head or, under dynamic
            # sharing, the processor pool's earliest compute completion.
            heap_time = heap[0][0] if heap else None
            completion = pool.next_completion() if pool else None
            if heap_time is None and completion is None:
                break
            use_pool = completion is not None and (
                heap_time is None or completion[0] < heap_time)
            next_time = completion[0] if use_pool else heap_time
            if deadline is not None and next_time > deadline:
                self.request_stop()
                break
            if use_pool:
                self._clock, name = completion
                pool.complete(name, self._clock)
                payload = None
            else:
                self._clock, _, name, payload = heapq.heappop(heap)
            proc = procs[name]
            if proc.done:
                continue
            if payload is _WAKE:
                # Wake-up from a buffer write or seal.  Stale wakes (the
                # process was already resumed via another input's write)
                # and unsatisfied wakes re-block without touching the
                # generator; a wake that can never be satisfied (all
                # producers frozen) resumes it with EXHAUSTED, which
                # finishes the stage degraded.
                if proc.waiting_inputs is None:
                    continue
                payload = self.reply_wait(proc.stage, proc.waiting_inputs)
                if payload is None:
                    continue
                proc.waiting_inputs = None
                self._end_wait(proc)
            self._step(proc, payload)

        # the stage processes point back at this executor; dropping its
        # references to them lets the run be freed by reference counting
        self._readers, self._consumer, self._producer = {}, {}, {}
        undone = [n for n, p in procs.items() if not p.done]
        if undone and not self._halted and not heap:
            raise ExecutionError(
                f"execution wedged; blocked stages: {undone}")
        # Close any span left open by a stop / halt so a Chrome trace
        # always carries matched B/E pairs.
        for name in undone:
            self.finish(procs[name].stage, HALTED)
        if self.checkpoint_at_stop is not None:
            self._save(self.checkpoint_at_stop)
        return self._finalize(energy=self.meter.total,
                              shares=dict(self.shares))
