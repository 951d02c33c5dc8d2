"""Real-machine threaded execution of anytime automata.

One thread per stage, each pumping its stage through the shared kernel
(:func:`~repro.core.kernel.drive`) against wall-clock time: the actual
NumPy work happens inside the stage generator between yields, so
:class:`Compute` only charges the stage's declared energy.  Every wait
blocks, with no timeout, on the one event its state change sets: the
pause gate, a stage's input event (set by a write or seal of any input)
and a channel's :meth:`~repro.core.channel.UpdateChannel.wait_ready`;
a halt sets each of them.

This executor exists for what simulation cannot give — genuine
interactive interruption on a live machine (stop the automaton the moment
the on-screen output looks right).  Its runtime-accuracy numbers carry the
usual wall-clock caveats (CPython's GIL serializes pure-Python sections,
and the apps' NumPy kernels mostly hold it too: two 1024x1024 2dconv
references on two threads ran 0.90x as fast as the same two calls in
turn, debayer's 0.97x), which is why the benchmarks use the
deterministic simulator and the examples use this.

Fault tolerance: a stage exception no longer discards the run.  Each
stage is governed by a :class:`~repro.core.faults.FaultPolicy` — it is
restarted from a fresh generator (legal because buffers are monotone),
degraded (its output buffer is *sealed* at the last published version and
downstream stages finish on it), or, under the fail-fast default, halts
the automaton while still returning the partial timeline.  Outcomes are
reported per stage in :attr:`ThreadedResult.stage_reports`; pass
``strict=True`` to restore the historical raise-on-failure behavior.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable

from .buffer import Snapshot
from .controller import StopCondition
from .faults import FaultInjector, FaultPolicy, StageReport
from .graph import AutomatonGraph
from .kernel import HALTED, Kernel, RunResult, drive, energy_of, open_body
from .recording import Timeline
from .syncstage import SynchronousStage
from .tracing import TraceSink

__all__ = ["ThreadedExecutor", "ThreadedResult", "RunHandle"]

#: an attempt's "not yet": :meth:`_StageThread._block` tries again
_AGAIN = object()


@dataclass
class ThreadedResult(RunResult):
    """Outcome of one threaded run (times are wall seconds from start).

    ``completed`` means every stage ran its generator to the natural
    end; ``stopped_early`` means a stop condition, user interrupt or
    timeout halted the run — a pure stage failure sets *neither*.
    ``stage_reports`` carries the per-stage fault record.
    """

    timeline: Timeline
    duration: float
    completed: bool
    stopped_early: bool
    final_values: dict[str, Any] = field(default_factory=dict)
    errors: list[tuple[str, BaseException]] = field(default_factory=list)
    stage_reports: dict[str, StageReport] = field(default_factory=dict)


class RunHandle:
    """Control surface over a *launched*, in-flight executor run.

    This is the inversion of control the serving layer is built on: an
    executor no longer owns its run loop from start to finish — it is
    launched, and the holder of the handle decides when the run is
    paused, resumed, stopped, or collected.  Works identically over the
    threaded and process executors (both implement the small private
    protocol the handle delegates to).

    The anytime guarantee makes every operation safe at any moment:
    pausing, stopping or abandoning the run leaves the output buffer
    holding a valid approximation (Property 3), so a scheduler can
    preempt a run between output versions with nothing to clean up.
    """

    def __init__(self, executor: Any) -> None:
        self.executor = executor

    # -- preemption ------------------------------------------------------

    def pause(self) -> None:
        """Suspend progress at the next inter-command boundary.

        Stages stop pumping their generators (the threaded executor
        gates every command dispatch; the process executor stops
        answering worker requests, so workers block on their next
        blocking command).  Idempotent; wall clocks keep running.
        """
        self.executor._set_paused(True)

    def resume(self) -> None:
        """Undo :meth:`pause`; parked stages go on at once."""
        self.executor._set_paused(False)

    @property
    def paused(self) -> bool:
        return self.executor._is_paused()

    # -- interruption ----------------------------------------------------

    def request_stop(self) -> None:
        """Interrupt the run (thread-safe, idempotent); also resumes a
        paused run so its stages can observe the halt and wind down."""
        self.executor.request_stop()

    # -- checkpoint ------------------------------------------------------

    def checkpoint(self, path: str) -> str:
        """Write the run's reply log to ``path`` (repro.ckpt).

        Copies the log — with reports, energy, stop progress and
        duration — under the kernel's log lock and writes a
        digest-stamped checkpoint file.  No stage pauses, so a
        checkpoint is an observation, not an interruption: take one and
        keep running, or take one and :meth:`request_stop`.

        Returns the payload digest.  Must precede any stop request (a
        stopping run seals its buffers, which is unrecoverable);
        raises :class:`repro.ckpt.CheckpointError` otherwise.
        """
        return self.executor._checkpoint(path)

    # -- observation -----------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once every stage has wound down (result is ready)."""
        return not self.executor._is_active()

    def snapshot(self) -> Snapshot:
        """Atomic snapshot of the watched terminal buffer, right now.

        By Property 3 this is always a valid approximation (or empty
        before the first write) — the live ``peek`` a server streams
        intermediate refinements from.
        """
        return self.executor._peek()

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until the run finishes; False on timeout."""
        return self.executor._wait_done(timeout_s)

    def watch(self, event: threading.Event) -> None:
        """Set ``event`` on every new version or seal of the watched
        terminal buffer, and once when the run ends — by then
        :attr:`finished` is True, so a waiter that clears the event
        before it looks misses no end.  Set at once if the run has
        already ended."""
        self.executor._watch_run(event)

    def unwatch(self, event: threading.Event) -> None:
        """Undo :meth:`watch`."""
        self.executor._unwatch_run(event)

    # -- collection ------------------------------------------------------

    def result(self, timeout_s: float | None = None) -> ThreadedResult:
        """Collect the run's result, interrupting it at ``timeout_s``.

        Blocks until the run finishes; if ``timeout_s`` expires first
        the run is stopped and the partial result returned (the classic
        anytime contract).  Idempotent once finished.
        """
        if not self.executor._wait_done(timeout_s):
            self.executor.request_stop()
            self.executor._wait_done(None)
        return self.executor._finalize()


class _StageThread:
    """One stage's effects on a real thread: every wait blocks inline
    (the :func:`~repro.core.kernel.drive` backend)."""

    def __init__(self, ex: "ThreadedExecutor", stage: Any) -> None:
        self.ex = ex
        self.stage = stage
        self.report = ex.reports[stage.name]
        # One wake-up event subscribed to every input buffer: a write to
        # *any* input wakes the stage promptly (no rotation, no
        # busy-polling a single input), and so does a halt.
        self.event = ex._input_events[stage.name]
        for b in stage.inputs:
            b.subscribe(self.event)

    def live(self) -> bool:
        """The pause gate: park between commands (the preemption point)
        while paused; False once the run halts (a halt opens the gate)."""
        ex = self.ex
        while not ex._halt.is_set():
            if ex._gate.is_set():
                return True
            ex._gate.wait()
        return False

    def compute(self, cmd: Any) -> None:
        # the work already ran inside the stage; charge its declared
        # energy so the timeline's energy column fills
        self.ex.charge(energy_of(cmd))

    def write(self, cmd: Any) -> None:
        self.ex.publish(self.stage, cmd.value, cmd.final, cmd.transfer)

    def wait_inputs(self, seen: dict[str, int]) -> Any:
        def attempt() -> Any:
            self.event.clear()
            reply = self.ex.reply_wait(self.stage, seen)
            if reply is not None:
                return reply
            # set by a write or seal to any input, or by a halt after
            # this check
            if not self.ex._halt.is_set():
                self.event.wait()
            return _AGAIN

        return self._block("inputs", attempt)

    def poll_inputs(self, seen: dict[str, int]) -> bool:
        return self.ex.reply_poll(self.stage, seen)

    def emit(self, update: Any) -> Any:
        # A halt before the update could be enqueued stops the stage at
        # the emit (HALTED) instead of dropping the update and letting
        # the generator run on to its next wait.  ChannelClosed
        # propagates to the fault policy.
        channel = self.stage.emit_to

        def attempt() -> Any:
            if self.ex.try_emit(self.stage, update):
                return None
            channel.wait_ready(sending=True, halt=self.ex._halt)
            return _AGAIN

        return self._block("emit", attempt)

    def close_channel(self) -> None:
        self.ex.close_channel(self.stage)

    def recv(self) -> Any:
        channel = self.stage.channel

        def attempt() -> Any:
            got, update = self.ex.try_recv(self.stage)
            if got:
                return update
            channel.wait_ready(sending=False, halt=self.ex._halt)
            return _AGAIN

        return self._block("recv", attempt)

    def _block(self, kind: str, attempt: Callable[[], Any]) -> Any:
        """Repeat ``attempt`` — one wait, :data:`_AGAIN` when it woke
        without an answer — until it answers or the run halts."""
        ex = self.ex
        started = ex.now()
        blocked = False
        try:
            while not ex._halt.is_set():
                reply = attempt()
                if reply is not _AGAIN:
                    return reply
                blocked = True
            return HALTED
        finally:
            if blocked:
                ex.record_wait(self.stage.name, started, kind)


class ThreadedExecutor(Kernel):
    """Runs an :class:`AutomatonGraph` on real threads.

    Parameters mirror the simulated executor where meaningful; there is
    no core-share scheduling — the OS scheduler decides.

    Parameters
    ----------
    faults:
        A :class:`FaultPolicy` for every stage, or a ``{stage: policy}``
        mapping (key ``"*"`` is the default).  None = fail-fast.
    injector:
        Optional :class:`FaultInjector` test harness (single-use).
    strict:
        When True, a run that ends with an unrecovered stage failure
        raises :class:`~repro.core.kernel.ExecutionError`, a
        ``RuntimeError`` (the historical behavior), instead of returning
        the partial result.
    trace:
        Optional :class:`~repro.core.tracing.TraceSink` receiving
        structured execution events; None (or a disabled sink such as
        ``NullSink``) short-circuits every hook (zero overhead when
        off).  Timestamps are wall seconds from run start.
    trace_metric / trace_reference:
        When both tracing and a metric are supplied, each watched write
        additionally emits an ``accuracy.sample`` event with
        ``metric(value, trace_reference)``.
    """

    EXECUTOR = "threaded"
    WALL_CLOCK = True
    HOLDS_VALUES = True
    RESULT = ThreadedResult

    def __init__(self, graph: AutomatonGraph,
                 stop: StopCondition | None = None,
                 watch: set[str] | None = None,
                 faults: FaultPolicy | dict[str, FaultPolicy] | None = None,
                 injector: FaultInjector | None = None,
                 strict: bool = False,
                 trace: TraceSink | None = None,
                 trace_metric: Any = None,
                 trace_reference: Any = None,
                 resume: Any = None) -> None:
        super().__init__(graph, stop=stop, watch=watch, faults=faults,
                         injector=injector, strict=strict, trace=trace,
                         trace_metric=trace_metric,
                         trace_reference=trace_reference, resume=resume)
        self._halt = threading.Event()
        #: each stage's input wake-up event (:class:`_StageThread`)
        self._input_events = {s.name: threading.Event()
                              for s in graph.stages}
        #: every update channel a stage emits to or receives from
        self._channels = (
            {s.emit_to for s in graph.stages if s.emit_to is not None}
            | {s.channel for s in graph.stages
               if isinstance(s, SynchronousStage)})
        # The pause gate: cleared = stage threads park between commands
        # (preemption boundary for the serving scheduler).
        self._gate = threading.Event()
        self._gate.set()
        #: one thread per relaunched stage; None until launch()
        self._threads: dict[str, threading.Thread] | None = None
        #: stage threads not yet wound down, counted under ``_lock``:
        #: the last one out ends the run (:meth:`_run_ended`), which
        #: sets ``_done``
        self._live = 0
        self._done = threading.Event()
        self._end_events.append(self._done)

    def request_stop(self) -> None:
        """Interrupt the automaton (thread-safe, idempotent)."""
        self.stop_requested = True
        self._halt_stages()

    def _halt_stages(self) -> None:
        """Halt the run: set every event a stage can wait on, so a stage
        parked at the gate, waiting on its inputs or blocked on a
        channel sees the halt at once."""
        self._halt.set()
        self._gate.set()
        for event in self._input_events.values():
            event.set()
        for channel in self._channels:
            channel.wake()

    # -- RunHandle protocol ----------------------------------------------

    def _set_paused(self, paused: bool) -> None:
        if paused:
            self._gate.clear()
            if self._halt.is_set():
                # a halt that raced the clear keeps the gate open
                self._gate.set()
        else:
            self._gate.set()

    def _is_paused(self) -> bool:
        return not self._gate.is_set()

    def _is_active(self) -> bool:
        return self._live > 0

    def _wait_done(self, timeout_s: float | None) -> bool:
        """Wait for the last stage thread to wind down; False if
        ``timeout_s`` expired first."""
        if self._threads is None:
            raise RuntimeError("executor was never launched")
        if not self._done.wait(timeout_s):
            return False
        if self._ended_at is None:
            self._ended_at = self.now()
        return True

    # -- per-stage thread ------------------------------------------------

    def _run_stage(self, stage: Any) -> None:
        try:
            self._pump_stage(stage)
        finally:
            with self._lock:
                self._live -= 1
                last = self._live == 0
            if last:
                self._run_ended()

    def _pump_stage(self, stage: Any) -> None:
        # the backend lives on this thread's stack only: it points back
        # at the executor, and a reference the other way would make
        # every finished run wait for the cyclic collector to free it
        backend = _StageThread(self, stage)
        first = True
        while not self._halt.is_set():
            self.start(stage.name, first)
            first = False
            gen = open_body(stage, self.injector, True,
                            self.replayed(stage.name))
            try:
                outcome = drive(gen, None, backend)
            except BaseException as exc:   # noqa: BLE001 - reported
                action, delay = self.on_failure(
                    stage, exc, halting=self._halt.is_set())
                if action == "restart":
                    self._halt.wait(delay)   # a halt cuts the backoff
                    continue
                if action == "fail":
                    self._halt_stages()
                return
            self.finish(stage, outcome)
            return

    def _checkpoint(self, path: str) -> str:
        self._check_checkpointable(self._threads is not None)
        return self._save(path)

    # -- whole-run driver ------------------------------------------------

    def launch(self) -> RunHandle:
        """Start the stage threads without blocking; returns a handle.

        The run proceeds in the background; the caller pauses, resumes,
        stops and collects it through the :class:`RunHandle` — the
        schedulable-resource form of this executor.
        """
        if self._threads is not None:
            raise RuntimeError("executor already launched")
        self._t0 = _time.perf_counter()
        self.install_hooks()
        finished = (self._resume.finished if self._resume is not None
                    else set())
        # Stages that were already terminal at checkpoint time are not
        # relaunched: their buffers are final or sealed (a relaunch
        # would be rejected by the frozen-buffer rule) and their reports
        # carry the checkpointed outcome.
        self._threads = {
            s.name: threading.Thread(target=self._run_stage, args=(s,),
                                     name=f"stage-{s.name}", daemon=True)
            for s in self.graph.stages if s.name not in finished}
        self._live = len(self._threads)
        if not self._live:
            self._run_ended()
        for t in self._threads.values():
            t.start()
        return RunHandle(self)

    def run(self, timeout_s: float | None = None) -> ThreadedResult:
        """Execute until completion, stop condition, or ``timeout_s``."""
        return self.launch().result(timeout_s=timeout_s)
