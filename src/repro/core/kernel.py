"""The command protocol's meaning, written once.

Stages are generators of seven commands (:mod:`repro.core.stage`); the
three executors are effect backends around this module that differ only
in how they block and how time advances.  :func:`drive` pumps one stage
generator: it counts every command and hands each to the backend's
effect.  Threaded and process-worker effects block inline; a simulated
effect returns :data:`SUSPENDED` (on ``Compute``, or a wait, recv or
emit that cannot proceed) and the event loop resumes the stage later
with the delivered value.  :class:`Kernel` holds the run state every
executor shares and the rules over it.

A backend provides ``stage``, ``report``, ``live()`` (False once the
run halts) and the effects ``compute(cmd)``, ``write(cmd)``,
``wait_inputs(seen)``, ``poll_inputs(seen)``, ``emit(update)``,
``close_channel()`` and ``recv()``.  An effect returns the value sent
back into the generator, or an :class:`Outcome` that ends the pump.

:class:`Kernel` also keeps the run's reply log (:attr:`Kernel.log`): one
event per effect whose outcome the backend chose or whose order
matters, appended under the lock that applies the effect.  A stage is
pure, so its command stream is a function of the replies it receives,
and the log is all a checkpoint needs (see :mod:`repro.ckpt`).
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import asdict
from typing import Any, Generator

from ..hw.energy import EnergyMeter
from .controller import StopCondition
from .faults import FaultInjector, FaultPolicy, StageReport, resolve_policy
from .graph import AutomatonGraph
from .memory import keep_freed_pages
from .recording import Timeline, WriteRecord
from .channel import ChannelClosed
from .stage import (CHANNEL_END, CloseChannel, Compute, Emit, PollInputs,
                    Recv, Stage, WaitInputs, Write)
from .syncstage import SynchronousStage
from .tracing import TraceEvent, TraceSink, active_sink

__all__ = ["drive", "Outcome", "DONE", "HALTED", "EXHAUSTED", "SUSPENDED",
           "Kernel", "RunResult", "ExecutionError", "inputs_ready",
           "inputs_newer", "open_body", "energy_of", "final_lands",
           "seal_stage"]


class ExecutionError(RuntimeError):
    """The execution wedged (deadlock) or a stage misbehaved."""


class Outcome(str):
    """Why :func:`drive` returned; an effect returns one to end the pump.
    A ``str`` subclass of its own, so no command reply (a channel update
    may be any value, strings included) is mistaken for one."""


#: the generator ran to its natural end
DONE = Outcome("done")
#: the run is winding down (stop, fail-fast halt, shutdown)
HALTED = Outcome("halted")
#: a wait nothing can ever satisfy: every input is frozen, or one is
#: empty and sealed
EXHAUSTED = Outcome("exhausted")
#: the stage blocks; the event loop resumes it with the delivered value
SUSPENDED = Outcome("suspended")


def drive(gen: Generator, send_value: Any, backend: Any) -> Outcome:
    """Pump ``gen``, sending ``send_value`` first, until it stops.

    Resuming a :data:`SUSPENDED` stage is another call with the delivered
    value (which may itself be :data:`EXHAUSTED`).  Every other outcome
    ends the attempt, so the generator is closed.  Stage exceptions, and
    errors an effect raises (a write to a frozen buffer, an emit into an
    aborted channel), close it too and propagate to the caller, which
    applies the fault policy (:meth:`Kernel.on_failure`).
    """
    report = backend.report
    try:
        while type(send_value) is not Outcome:
            if not backend.live():
                send_value = HALTED
                break
            try:
                cmd = gen.send(send_value)
            except StopIteration:
                return DONE
            report.commands += 1
            send_value = _effect(cmd, backend)
    except BaseException:
        gen.close()
        raise
    if send_value is not SUSPENDED:
        gen.close()
    return send_value


def _effect(cmd: Any, b: Any) -> Any:
    if isinstance(cmd, Compute):
        return b.compute(cmd)
    if isinstance(cmd, Write):
        return b.write(cmd)
    if isinstance(cmd, WaitInputs):
        return b.wait_inputs(cmd.seen)
    if isinstance(cmd, PollInputs):
        return b.poll_inputs(cmd.seen)
    if isinstance(cmd, Emit):
        return b.emit(cmd.update)
    if isinstance(cmd, CloseChannel):
        return b.close_channel()
    if isinstance(cmd, Recv):
        return b.recv()
    raise TypeError(
        f"stage {b.stage.name!r} yielded unknown command {cmd!r}")


# ---------------------------------------------------------------------------
# Command helpers shared by every backend


def open_body(stage: Stage, injector: FaultInjector | None,
              realtime: bool, replayed: tuple | None = None) -> Generator:
    """The generator for one attempt, instrumented by the injector.

    ``replayed`` is a restored stage's ``(generator, pending reply)``
    pair (see :mod:`repro.ckpt`): the attempt continues it instead of a
    fresh ``body()``.  ``realtime`` picks how an injected delay spends
    time: a real sleep (wall-clock backends) or a zero-energy
    ``Compute`` (virtual time).
    """
    gen = stage.body() if replayed is None else _continue(*replayed)
    if injector is None:
        return gen
    return injector.wrap(stage.name, gen, realtime=realtime)


def _continue(gen: Generator, reply: Any) -> Generator:
    """A fresh generator that sends ``reply`` into ``gen`` first."""
    try:
        while True:
            try:
                cmd = gen.send(reply)
            except StopIteration:
                return
            reply = yield cmd
    finally:
        gen.close()


def energy_of(cmd: Compute) -> float:
    """The energy a ``Compute`` charges: declared, else its cost."""
    return cmd.energy if cmd.energy is not None else cmd.cost


def inputs_ready(stage: Stage, seen: dict[str, int]) -> Any:
    """The reply to ``WaitInputs(seen)``, or None to keep waiting.

    The input snapshots once every input is non-empty and one is newer
    than ``seen``; :data:`EXHAUSTED` when that can never happen — an
    input is empty and sealed (its producer died before publishing), or
    every input is frozen (final or sealed).
    """
    snaps = {b.name: b.snapshot() for b in stage.inputs}
    if not snaps:
        return snaps
    if not any(s.empty for s in snaps.values()) and any(
            s.version > seen.get(n, 0) for n, s in snaps.items()):
        return snaps
    if any(s.empty and s.sealed for s in snaps.values()) \
            or all(s.exhausted for s in snaps.values()):
        return EXHAUSTED
    return None


def inputs_newer(stage: Stage, seen: dict[str, int]) -> bool:
    """The reply to ``PollInputs(seen)``: would the wait be satisfied?"""
    reply = inputs_ready(stage, seen)
    return isinstance(reply, dict) and bool(reply)


def final_lands(stage: Stage, final: bool) -> bool:
    """Whether a write asking for ``final`` publishes a final version:
    a synchronous stage whose update stream was cut short publishes an
    approximation, not the precise output."""
    return final and not (isinstance(stage, SynchronousStage)
                          and stage.channel.aborted)


def seal_stage(stage: Stage) -> None:
    """Freeze everything the stage feeds, so consumers stop waiting.

    Sealing an already-final buffer is a harmless flag; aborting the
    emit channel releases a consumer blocked mid-stream, and aborting
    the consumed channel a producer blocked on it (its next emit raises
    ChannelClosed and its own policy takes over)."""
    stage.output.seal()
    if stage.emit_to is not None and not stage.emit_to.closed:
        stage.emit_to.abort()
    if isinstance(stage, SynchronousStage) and not stage.channel.closed:
        stage.channel.abort()


class RunResult:
    """Accessors every executor's result shares."""

    timeline: Timeline
    stage_reports: dict[str, StageReport]

    def output_records(self, buffer: str) -> list[WriteRecord]:
        return self.timeline.for_buffer(buffer)

    @property
    def degraded_stages(self) -> list[str]:
        return sorted(n for n, r in self.stage_reports.items()
                      if r.degraded)

    @property
    def failed_stages(self) -> list[str]:
        return sorted(n for n, r in self.stage_reports.items() if r.failed)


# ---------------------------------------------------------------------------
# Shared run state


class Kernel:
    """Run state every executor shares, and the protocol rules over it.

    Subclasses supply the mechanism: ``request_stop()``, the clock
    (:meth:`now` defaults to wall seconds since ``_t0``, continuing a
    resumed run's clock) and whatever blocks, schedules and resumes the
    stage generators.  ``EXECUTOR`` names the backend in checkpoints and
    error messages; ``RESULT`` is the result class it returns.  Each
    subclass also declares ``WALL_CLOCK`` and ``HOLDS_VALUES``, the two
    facts callers read instead of its name (see
    :mod:`repro.core.backends`).
    """

    EXECUTOR = ""
    RESULT: Any = None

    def __init__(self, graph: AutomatonGraph, *,
                 stop: StopCondition | None, watch: set[str] | None,
                 faults: FaultPolicy | dict[str, FaultPolicy] | None,
                 injector: FaultInjector | None, strict: bool,
                 trace: TraceSink | None, trace_metric: Any,
                 trace_reference: Any, resume: Any) -> None:
        keep_freed_pages()
        self.graph = graph
        self.stop = stop
        if watch is None:
            watch = {t.output.name for t in graph.terminal_stages()}
        self.watch = set(watch)
        self.faults = faults
        self.injector = injector
        self.strict = strict
        self.sink = active_sink(trace)
        self.trace_metric = trace_metric
        self.trace_reference = trace_reference
        #: automaton name and app spec stamped into checkpoint headers
        self.run_name = "automaton"
        self.app_spec: dict[str, Any] | None = None
        #: a stop condition, user interrupt or timeout ended the run
        self.stop_requested = False
        # Energy is charged from the Compute costs the stages declare:
        # wall time cannot recover per-stage cost, but the declared
        # costs can — so every backend's energy column agrees in shape.
        self.meter = EnergyMeter()
        self.timeline = Timeline()
        self.errors: list[tuple[str, BaseException]] = []
        self.reports = {s.name: StageReport(stage=s.name)
                        for s in graph.stages}
        for stage in graph.stages:
            try:
                stage.warm()
            except ValueError:
                # a permutation that is no bijection fails again in the
                # stage's body, where its fault policy handles it
                pass
        self._lock = threading.Lock()
        #: the reply log (see :mod:`repro.ckpt`): each event is appended
        #: under ``_log_lock`` together with the effect it records, so
        #: a reply naming a version always follows that version's
        #: publish.  Reentrant: sealing a stage's outputs may wake and
        #: answer a blocked consumer on the simulator.
        self.log: list[tuple] = []
        self._log_lock = threading.RLock()
        #: restored stages' ``(generator, pending reply)`` pairs, each
        #: taken once by the stage's first attempt (:meth:`replayed`)
        self._replayed: dict[str, tuple] = {}
        #: events set once when the run ends (:meth:`_watch_run`); None
        #: once it has ended
        self._end_events: list[threading.Event] | None = []
        self._t0 = 0.0
        self._ended_at: float | None = None    # now() when the run ended
        self._final_result: Any = None
        self.t_offset = 0.0
        # A run that resumes a checkpoint continues its log, energy,
        # clock, reports and stop-condition progress (see repro.ckpt).
        self._resume = resume
        if resume is not None:
            self.log = list(resume.log)
            self._replayed = dict(resume.replayed)
            self.meter.charge(resume.energy)
            self.t_offset = float(resume.duration)
            self.reports = resume.seed_reports(
                [s.name for s in graph.stages])
            from ..ckpt.state import restore_stop
            restore_stop(self.stop, resume.stop)

    # -- time and tracing --------------------------------------------------

    def now(self) -> float:
        # resumed runs continue the interrupted run's clock, so the
        # combined timeline stays monotone across the checkpoint
        return _time.perf_counter() - self._t0 + self.t_offset

    def trace(self, kind: str, stage: str | None = None,
              target: str | None = None, ts: float | None = None,
              **args: Any) -> None:
        if self.sink is None:
            return
        self.sink.emit(TraceEvent(self.now() if ts is None else ts, kind,
                                  stage=stage, target=target, args=args))

    def record_wait(self, name: str, started: float, kind: str) -> None:
        """Log one completed blocking wait (counter + span event)."""
        elapsed = self.now() - started
        self.reports[name].record_wait(elapsed)
        self.trace("stage.wait", stage=name, ts=started, dur=elapsed,
                   wait=kind)

    def install_hooks(self) -> None:
        """Point buffer, channel and injector tracers at the sink."""
        if self.sink is None:
            return
        chan_stage: dict[tuple[str, str], str] = {}
        for s in self.graph.stages:
            if s.emit_to is not None:
                chan_stage[(s.emit_to.name, "out")] = s.name
            if isinstance(s, SynchronousStage):
                chan_stage[(s.channel.name, "in")] = s.name

        def buffer_hook(kind: str, name: str, **args: Any) -> None:
            self.trace(kind, stage=args.pop("writer", None), target=name,
                       **args)

        def channel_hook(kind: str, name: str, **args: Any) -> None:
            side = "in" if kind == "channel.recv" else "out"
            self.trace(kind, stage=chan_stage.get((name, side)),
                       target=name, **args)

        for b in self.graph.buffers.values():
            b.tracer = buffer_hook
        for s in self.graph.stages:
            if s.emit_to is not None:
                s.emit_to.tracer = channel_hook
        if self.injector is not None:
            self.injector.tracer = (
                lambda s, c, k: self.trace("fault.injected", stage=s,
                                           at=c, fault=k))

    # -- attempts, energy and writes ---------------------------------------

    def replayed(self, name: str) -> tuple | None:
        """A restored stage's replayed generator and pending reply, for
        its first attempt only (:func:`open_body`); None otherwise."""
        return self._replayed.pop(name, None)

    def start(self, name: str, first: bool = False) -> None:
        """Count and trace one attempt of a stage.

        The first attempt of a resumed run continues the checkpointed
        one, so a checkpoint does not read as a retry.
        """
        report = self.reports[name]
        if not (first and self._resume is not None and report.attempts):
            report.attempts += 1
        self.trace("stage.start", stage=name, attempt=report.attempts)

    def charge(self, amount: float) -> None:
        with self._lock:
            self.meter.charge(amount)

    def publish(self, stage: Stage, value: Any, final: bool,
                transfer: bool = False) -> int:
        """Apply one ``Write``: publish, log, record, sample, check the
        stop.

        Returns the version.  Raises ``ValueError`` when the buffer is
        frozen (final or sealed) or written by a foreign stage.
        """
        name = stage.output.name
        with self._log_lock:
            landed = final_lands(stage, final)
            if final and not landed:
                self.reports[stage.name].degraded = True
            final = landed
            version = stage.output.write(value, final, writer=stage.name,
                                         transfer=transfer)
            # record what the buffer stored: after a plain write that is
            # a frozen copy, and the writer may go on changing its own
            value = stage.output.snapshot().value
            now, energy = self.now(), self.meter.total
            self.log.append((stage.name, "w", version, int(final), now,
                             energy))
            # under the lock too, so :meth:`_peek` never sees a version
            # whose value is not recorded yet
            value = self._recorded(name, value, version, final)
        watched = name in self.watch
        record = WriteRecord(now, name, version, final, energy,
                             value if watched else None)
        with self._lock:
            self.timeline.add(record)
        if watched and self.sink is not None \
                and self.trace_metric is not None:
            self.trace("accuracy.sample", stage=stage.name, target=name,
                       ts=record.time, version=version,
                       accuracy=float(self.trace_metric(
                           value, self.trace_reference)))
        if watched and self.stop is not None \
                and self.stop.should_stop(record):
            self.request_stop()
        return version

    # -- logged replies ----------------------------------------------------

    def reply_wait(self, stage: Stage, seen: dict[str, int]) -> Any:
        """The reply to ``WaitInputs(seen)`` (:func:`inputs_ready`),
        logged; None to keep waiting."""
        with self._log_lock:
            reply = inputs_ready(stage, seen)
            if reply is not None:
                self.log.append((stage.name, "r", None
                                 if reply is EXHAUSTED
                                 else [s.version for s in reply.values()]))
        return reply

    def reply_poll(self, stage: Stage, seen: dict[str, int]) -> bool:
        """The reply to ``PollInputs(seen)``, logged."""
        with self._log_lock:
            newer = inputs_newer(stage, seen)
            self.log.append((stage.name, "p", int(newer)))
        return newer

    def try_emit(self, stage: Stage, update: Any) -> bool:
        """Enqueue one update if the channel has room, logged.  Raises
        ``ChannelClosed`` when the stream was aborted."""
        with self._log_lock:
            sent = stage.emit_to.try_emit(update)
            if sent:
                self.log.append((stage.name, "e", 1))
        return sent

    def drop_emit(self, stage: Stage) -> None:
        """Log an emit answered without enqueueing: the simulator's
        blocked producer whose stream was aborted under it."""
        with self._log_lock:
            self.log.append((stage.name, "e", 0))

    def try_recv(self, stage: Any) -> tuple[bool, Any]:
        """``(True, update)`` — or ``(True, CHANNEL_END)`` once the
        channel is closed and drained — logged; ``(False, None)`` while
        it is empty."""
        with self._log_lock:
            try:
                got, update = stage.channel.try_recv()
            except ChannelClosed:
                got, update = True, CHANNEL_END
            if got:
                self.log.append((stage.name, "v",
                                 int(update is not CHANNEL_END)))
        return got, update

    def close_channel(self, stage: Stage) -> None:
        """Apply ``CloseChannel``, logged."""
        with self._log_lock:
            stage.emit_to.close()
            self.log.append((stage.name, "c"))

    def _recorded(self, name: str, value: Any, version: int,
                  final: bool) -> Any:
        """The value a write records when its buffer is watched."""
        return value

    def _value_of(self, name: str) -> Any:
        """A buffer's current value, owned by the caller."""
        return self.graph.buffers[name].snapshot().value

    # -- seal, degrade and finish -----------------------------------------

    def seal_outputs(self, stage: Stage) -> None:
        """Freeze everything the stage feeds (:func:`seal_stage`); the
        simulator also wakes whoever was blocked on it."""
        seal_stage(stage)

    def finish(self, stage: Stage, outcome: str) -> None:
        """Close a stage's attempt after :func:`drive` returned.

        A halted stage keeps its buffers as they are (shutdown seals
        them on a stop); an exhausted one, or one whose final write was
        demoted, degrades.
        """
        report = self.reports[stage.name]
        with self._log_lock:
            if outcome == HALTED:
                status = "stopped" if self.stop_requested else "halted"
            elif outcome == DONE and not report.degraded:
                status = "completed"
                report.completed = True
            else:
                status = "degraded"
                report.degraded = True
            self.trace("stage.finish", stage=stage.name, status=status)
            if outcome != HALTED:
                self.log.append((stage.name, "d", str(outcome)))
                self.seal_outputs(stage)

    def on_failure(self, stage: Stage, exc: BaseException,
                   halting: bool = False) -> tuple[str, float]:
        """Record one stage failure and decide what happens next.

        Returns ``(action, delay)``.  ``"restart"``: start a fresh
        attempt after ``delay``.  ``"stop"``: the stop condition fired
        (the stage is degraded and a stop requested).  ``"fail"``: the
        stage is marked failed and sealed; the caller halts the run.
        ``"degrade"``: the stage is sealed at its last version.
        """
        name = stage.name
        report = self.reports[name]
        with self._lock:
            failures = report.record_failure(exc)
            self.errors.append((name, exc))
        self.trace("stage.finish", stage=name, status="error",
                   error=repr(exc))
        delay = 0.0
        if self.stop is not None and self.stop.on_failure(name, exc):
            self.request_stop()
            action = "stop"
        else:
            policy = resolve_policy(self.faults, name)
            action = policy.decide(failures)
            if action == "restart" and (stage.emit_to is not None
                                        or halting):
                # A streaming parent cannot be restarted: its consumer
                # already folded updates that a fresh pass would re-emit
                # (double counting).  A halting run starts no new
                # attempt.  Degrade instead.
                action = "degrade"
            if action == "restart":
                delay = policy.restart_delay(failures)
                self.trace("stage.restart", stage=name,
                           failures=failures, delay=delay)
        with self._log_lock:
            self.log.append((name, "f", action))
            if action != "restart":
                if action == "fail":
                    report.failed = True
                else:
                    report.degraded = True
                self.seal_outputs(stage)
        return action, delay

    # -- checkpoint and finalise -------------------------------------------

    def _full_timeline(self) -> Timeline:
        """This segment's records; a resumed run's ladder spans the whole
        logical run, checkpoint prefix included."""
        if self._resume is None or not self._resume.prefix.records:
            return self.timeline
        return Timeline(self._resume.prefix.records + self.timeline.records)

    def _check_checkpointable(self, launched: bool) -> None:
        from ..ckpt.format import CheckpointError

        if not launched:
            raise CheckpointError(
                "cannot checkpoint: the run was never launched")
        if self.stop_requested:
            raise CheckpointError(
                "cannot checkpoint a stopping run: shutdown seals "
                "every buffer (checkpoint before request_stop)")

    def _save(self, path: str) -> str:
        """Write a checkpoint: a copy of the log plus reports, energy,
        stop progress and duration, taken under the log lock — no stage
        is paused.  Returns the payload digest."""
        from ..ckpt.state import capture_stop, save_checkpoint

        with self._log_lock:
            payload = {
                "name": self.run_name, "executor": self.EXECUTOR,
                "stages": {s.name: s.output.name
                           for s in self.graph.stages},
                "log": list(self.log),
                "reports": {n: asdict(r) for n, r in self.reports.items()},
                "energy": float(self.meter.total),
                "duration": float(self.now()),
                "stop": capture_stop(self.stop),
            }
        return save_checkpoint(path, payload, app_spec=self.app_spec)

    def _shutdown_io(self) -> None:
        """Freeze all buffers and channels after an interrupted run.

        A timeout or stop condition halts the stages, but anything
        *outside* the executor waiting on the graph — a UI thread on an
        event it subscribed to a buffer, a producer in ``wait_ready``
        on a full, never-closed channel — would wait forever on objects
        no stage will touch again.  Sealing is idempotent and aborting is skipped
        for channels already closed, so a clean shutdown is unaffected.
        """
        for b in self.graph.buffers.values():
            b.seal()
        for c in self.graph.channels.values():
            if not c.closed:
                c.abort()

    def _result_fields(self) -> dict[str, Any]:
        """The fields every result carries, after shutdown sealing."""
        if self.stop_requested:
            self._shutdown_io()
        return dict(
            timeline=self._full_timeline(),
            completed=(not self.stop_requested
                       and all(r.completed for r in self.reports.values())),
            stopped_early=self.stop_requested,
            final_values={n: self._value_of(n) for n in self.graph.buffers},
            errors=list(self.errors), stage_reports=dict(self.reports))

    def _finalize(self, **extra: Any) -> Any:
        """The run's result, assembled once after every stage wound down;
        under ``strict`` an unrecovered stage failure raises instead."""
        with self._lock:
            if self._final_result is None:
                duration = (self.now() if self._ended_at is None
                            else self._ended_at)
                self._final_result = self.RESULT(
                    duration=duration, **self._result_fields(), **extra)
        unrecovered = [n for n, r in self.reports.items()
                       if r.last_error is not None and not r.completed]
        if self.strict and unrecovered:
            name = unrecovered[0]
            first = next(exc for n, exc in self.errors if n == name)
            raise ExecutionError(
                f"stage {name!r} failed during {self.EXECUTOR} "
                f"execution: {first}") from first
        return self._final_result

    # -- RunHandle support (wall-clock executors) --------------------------

    def _watch_name(self) -> str:
        if len(self.watch) == 1:
            return next(iter(self.watch))
        return self.graph.terminal_buffer().name

    def _peek(self) -> Any:
        return self.graph.buffers[self._watch_name()].snapshot()

    def _watch_run(self, event: threading.Event) -> None:
        """Set ``event`` on every write or seal of the watched terminal
        buffer, and once when the run ends (at once if it has)."""
        self.graph.buffers[self._watch_name()].subscribe(event)
        with self._lock:
            if self._end_events is not None:
                self._end_events.append(event)
                return
        event.set()

    def _unwatch_run(self, event: threading.Event) -> None:
        self.graph.buffers[self._watch_name()].unsubscribe(event)
        with self._lock:
            if self._end_events is not None and event in self._end_events:
                self._end_events.remove(event)

    def _run_ended(self) -> None:
        """Wake every :meth:`_watch_run` event; the subclass calls this
        once, after ``_is_active()`` turned False."""
        with self._lock:
            events, self._end_events = self._end_events or [], None
        for event in events:
            event.set()
