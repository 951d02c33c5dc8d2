"""Process-parallel execution with a shared-memory data plane.

One worker *process* per stage, pumping its stage through the same
kernel (:func:`~repro.core.kernel.drive`) as the simulated and threaded
executors — but sidestepping the GIL, so NumPy-light pipelines actually
overlap on real cores (the paper's POWER7+ machine ran its stages on 32
hardware threads; see Figure 11).

Architecture: the parent is a single-threaded **reactor** that owns the
authoritative :class:`VersionedBuffer` / :class:`UpdateChannel` objects,
the timeline, the stop condition, fault policies and the trace sink —
the :class:`~repro.core.kernel.Kernel` run state.  Each worker's effects
are requests to it over a duplex pipe carrying *control* messages
only: ndarray payloads are written once into per-buffer
:class:`~repro.core.shmplane.SlabRing` slabs and cross the pipe as
:class:`~repro.core.shmplane.NDRef` descriptors (see
:mod:`repro.core.shmplane` for the pinning protocol that keeps
snapshots atomic).  Because the parent reuses the real buffer/channel
objects, Property-2/3 enforcement, seal/abort cascades and the tracing
vocabulary are identical to the threaded executor — the trace-shape
parity test in ``tests/test_tracing.py`` holds across all three
backends.

Design notes and tradeoffs:

- **fork only.**  Stage bodies are closures over lambdas and ndarrays;
  they cannot be pickled, so workers are forked (the graph is inherited
  copy-on-write).  :class:`ProcessExecutor` raises on platforms without
  the ``fork`` start method.
- **Workers start warm.**  What a stage body reads and no input
  changes (its sample order and, for a tree fill, the order's levels)
  is derived into the per-process memo of
  :mod:`repro.anytime.permutations` when the run state is built, on the
  caller's thread (:meth:`~repro.core.stage.Stage.warm`), so every fork
  (a restored stage's first one and a re-fork after a death included)
  inherits it copy-on-write instead of deriving it and throwing it
  away on exit.  Later runs in the parent hit the same memo.
- **Channel emits travel inline.**  Synchronous-pipeline updates are
  usually small (per-chunk partials); they are pickled over the control
  pipe.  The slab plane covers buffer versions, which dominate traffic.
- **Every request gets exactly one reply.**  A worker message is
  either one-way bookkeeping (``energy``, ``segments``, ``epoch``,
  ``trace``, the outcome) or a request — ``write`` included — that
  blocks for its reply, so the parent has recorded a write before the
  worker can reuse its slab slot, and a ring of ``consumers + 2``
  slots always has one free.  A :class:`~repro.core.stage.Lease` is
  answered inside the worker at zero round-trips; it only widens the
  stage's batched compute.  A reply per write cost about 4 % at 256²
  and was flat or faster at 1024² than streamed writes
  (EXPERIMENTS.md).
- **Worker death is a fault.**  A worker that dies without reporting
  (segfault, ``kill -9``) is handled through the stage's
  :class:`~repro.core.faults.FaultPolicy` like any raise: ``restart``
  re-forks the stage from the parent's copy with a fresh body (a
  re-forked diffusive stage loses the dense state and injected-fault
  counters its worker built — accuracy may transiently regress, which
  in-process restarts avoid),
  ``degrade`` seals its output, ``fail`` halts the run.
- **Shutdown never leaks.**  On completion, stop, fault-halt or
  ``timeout_s`` expiry the parent answers every parked request with a
  halt, gives workers a grace period, terminates stragglers, joins
  them, and unlinks every shared-memory segment it ever heard of —
  verified by the leak test in ``tests/test_procexec.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time as _time
from multiprocessing import connection as mp_connection
from typing import Any, Callable

from .buffer import Snapshot
from .channel import ChannelClosed
from .controller import StopCondition
from .executor import RunHandle, ThreadedResult
from .faults import FaultInjector, FaultPolicy, StageReport
from .graph import AutomatonGraph
from .kernel import (DONE, EXHAUSTED, HALTED, Kernel, drive, energy_of,
                     open_body)
from .stage import CHANNEL_END
from .shmplane import SegmentRegistry, SlabWriter, decode_payload
from .tracing import TraceSink

__all__ = ["ProcessExecutor"]

#: reactor poll interval (halt/timeout/restart checks stay live)
_WAIT_S = 0.02


# ---------------------------------------------------------------------------
# Worker side


class _Worker:
    """Runs one stage's generator inside a forked process.

    The :func:`~repro.core.kernel.drive` backend of the worker: every
    blocking decision is delegated to the parent over the pipe — the
    worker sends a request and blocks on the reply, which may be a
    ``("halt",)`` at any point.  In-process restarts keep diffusive
    state and injector counters, exactly like threaded restarts.
    """

    def __init__(self, stage, conn, slots: int, lock,
                 injector: FaultInjector | None, tracing: bool,
                 lease_k: int, replayed: tuple | None) -> None:
        self.stage = stage
        self.conn = conn
        self.injector = injector
        #: a restored stage's replayed generator and pending reply,
        #: which the first attempt continues (repro.ckpt)
        self.replayed = replayed
        self.lease_k = int(lease_k)
        #: drive() counts every command here, Leases answered locally
        #: included; each message carries the count since the previous
        #: one, so the parent's report sees them all
        self.report = StageReport(stage=stage.name)
        self._counted = 0
        self.registry = SegmentRegistry()
        self.writer = SlabWriter(
            stage.output.name, slots, lock,
            on_segment=lambda names: self._post(("segments", names)))
        # Resumed runs (repro.ckpt) fork with the output buffer already
        # holding its replayed ladder; version numbering continues from
        # there (zero on a fresh run).
        self._version = stage.output.version
        if tracing and injector is not None:
            # raw worker clock; the parent delta-corrects against the
            # epoch handshake below, so merged traces are monotone even
            # across processes with skewed perf_counter epochs
            injector.tracer = (
                lambda s, c, k: self._post(
                    ("trace", "fault.injected", _time.perf_counter(),
                     {"at": c, "fault": k})))

    def _post(self, msg: tuple) -> None:
        commands = self.report.commands
        self.conn.send(msg + (commands - self._counted,))
        self._counted = commands

    def _request(self, msg: tuple) -> tuple:
        self._post(msg)
        return self.conn.recv()

    def _ask(self, *msg: Any) -> Any:
        """A synchronous request: the reply, HALTED when the run is
        halting, or the parent-side error raised here, where the stage
        would have raised it in-process."""
        reply = self._request(msg)
        if reply[0] == "halt":
            return HALTED
        if reply[0] == "raise":
            if reply[1] == "closed":
                raise ChannelClosed(reply[2])
            raise RuntimeError(reply[2])
        return reply

    def run(self) -> None:
        try:
            # epoch handshake: the parent stamps its own receipt time
            # and delta-corrects every later raw worker timestamp
            self._post(("epoch", _time.perf_counter()))
            self._run_stage()
        finally:
            self.writer.close()
            self.registry.close_all()
            try:
                self.conn.close()
            except OSError:   # pragma: no cover - defensive
                pass

    def _run_stage(self) -> None:
        while True:
            gen = open_body(self.stage, self.injector, True, self.replayed)
            self.replayed = None
            try:
                outcome = drive(gen, None, self)
            except BaseException as exc:   # noqa: BLE001 - reported
                reply = self._request(("failed", repr(exc)))
                if reply[1] == "restart":
                    if reply[2] > 0:
                        _time.sleep(reply[2])
                    continue
                return   # degrade / fail / stop: the parent seals
            self._post((str(outcome),))
            return

    # -- effects ----------------------------------------------------------

    def live(self) -> bool:
        return True   # a halt arrives as the reply to the next request

    def compute(self, cmd: Any) -> None:
        self._post(("energy", energy_of(cmd)))

    def write(self, cmd: Any) -> Any:
        self._version += 1
        payload = self.writer.encode(cmd.value, self._version)
        reply = self._ask("write", payload, bool(cmd.final))
        return HALTED if reply is HALTED else None

    def wait_inputs(self, seen: dict[str, int]) -> Any:
        reply = self._ask("wait", dict(seen))
        if reply is HALTED:
            return reply
        if reply[0] == "exhausted":
            return EXHAUSTED
        return {name: Snapshot(name, decode_payload(p, self.registry),
                               version, final, sealed)
                for name, p, version, final, sealed in reply[1]}

    def poll_inputs(self, seen: dict[str, int]) -> Any:
        reply = self._ask("poll", dict(seen))
        return reply if reply is HALTED else reply[1]

    def emit(self, update: Any) -> Any:
        return HALTED if self._ask("emit", update) is HALTED else None

    def close_channel(self) -> Any:
        return HALTED if self._ask("close_channel") is HALTED else None

    def recv(self) -> Any:
        reply = self._ask("recv")
        if reply is HALTED:
            return reply
        return CHANNEL_END if reply[0] == "end" else reply[1]


def _worker_main(stage, conn, inherited, slots, lock, injector,
                 tracing, lease_k, replayed) -> None:
    for other in inherited:
        # parent-end copies of earlier pipes, inherited through fork;
        # closing them keeps EOF detection per worker crisp
        try:
            other.close()
        except OSError:   # pragma: no cover - defensive
            pass
    _Worker(stage, conn, slots, lock, injector, tracing,
            lease_k, replayed).run()


# ---------------------------------------------------------------------------
# Parent side


class _Parked:
    """One blocked worker request awaiting a state change."""

    __slots__ = ("worker", "kind", "payload", "started")

    def __init__(self, worker, kind: str, payload: Any,
                 started: float) -> None:
        self.worker = worker
        self.kind = kind
        self.payload = payload
        self.started = started


class _WorkerHandle:
    __slots__ = ("stage", "proc", "conn", "terminal", "restart_at",
                 "epoch_raw", "epoch_rel")

    def __init__(self, stage) -> None:
        self.stage = stage
        self.proc = None
        self.conn = None
        self.terminal = False          # reported an outcome / was resolved
        self.restart_at: float | None = None   # pending re-fork deadline
        self.epoch_raw: float | None = None    # worker perf_counter epoch
        self.epoch_rel = 0.0           # parent-relative receipt time


class ProcessExecutor(Kernel):
    """Runs an :class:`AutomatonGraph` on one process per stage.

    Parameters mirror :class:`~repro.core.executor.ThreadedExecutor`
    (the result type is shared); ``grace_s`` bounds how long shutdown
    waits for workers to exit voluntarily before terminating them.
    """

    EXECUTOR = "process"
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
                 grace_s: float = 5.0,
                 lease_k: int = 8,
                 resume: Any = None) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "ProcessExecutor requires the 'fork' start method "
                "(stage bodies close over unpicklable state); this "
                "platform does not provide it — use run_threaded")
        super().__init__(graph, stop=stop, watch=watch, faults=faults,
                         injector=injector, strict=strict, trace=trace,
                         trace_metric=trace_metric,
                         trace_reference=trace_reference, lease_k=lease_k,
                         resume=resume)
        self.grace_s = float(grace_s)
        self._ctx = mp.get_context("fork")
        self._locks = {name: self._ctx.Lock() for name in graph.buffers}
        # latest + one pin per consumer + a spare
        self._slots = {name: max(3, len(graph.consumers_of(name)) + 2)
                       for name in graph.buffers}
        self._registry = SegmentRegistry()
        self._payloads: dict[str, Any] = {}
        self._ext_writers: list[SlabWriter] = []
        self._pins: dict[tuple[str, str], list] = {}
        self._workers = {s.name: _WorkerHandle(s) for s in graph.stages}
        self._by_conn: dict[Any, _WorkerHandle] = {}
        self._parked: list[_Parked] = []
        self._halted = False
        self._paused = False
        self._grace_deadline = 0.0
        self._timeout_s: float | None = None
        self._reactor: threading.Thread | None = None
        #: newest decoded value per watched buffer (the handle's peek
        #: path — decoding a slab from outside the reactor could race a
        #: writer reusing slots, so the reactor caches at write time)
        self._latest: dict[str, Snapshot] = {}
        #: debug hook ``tap(direction, stage, message)`` observing every
        #: control message ("recv" = worker->parent, "send" = reply);
        #: the zero-copy test uses it to prove descriptor-only traffic
        self._message_tap: Callable[[str, str, tuple], None] | None = None

    def request_stop(self) -> None:
        """Interrupt the automaton (effective at the next reactor turn)."""
        self.stop_requested = True

    # -- data plane ------------------------------------------------------

    def _encode_externals(self) -> None:
        """Move external input arrays into slabs once, before forking."""
        for name, buffer in self.graph.buffers.items():
            snap = buffer.snapshot()
            if snap.version == 0:
                continue
            writer = SlabWriter(name, self._slots[name],
                                self._locks[name],
                                on_segment=self._registry.register)
            self._payloads[name] = writer.encode(snap.value, snap.version)
            self._ext_writers.append(writer)

    def _hand_payload(self, stage_name: str, buffer_name: str) -> Any:
        """Pin the current payload's slots for one consumer stage.

        Pin-before-unpin under the buffer's slab lock: the writer can
        only reuse a slot that is unpinned *and* not its most recent
        write, so a slot handed out here stays intact until this stage
        is handed a newer version.
        """
        payload = self._payloads[buffer_name]
        refs = [r for r in (payload[2] if payload[0] == "tree" else ())]
        key = (stage_name, buffer_name)
        old = self._pins.get(key, [])
        with self._locks[buffer_name]:
            for r in refs:
                self._registry.ring_for(r).pin(r.slot)
            for r in old:
                self._registry.ring_for(r).unpin(r.slot)
        self._pins[key] = refs
        for r in refs:
            self.trace("shm.pin", stage=stage_name, target=buffer_name,
                       segment=r.segment, slot=r.slot)
        for r in old:
            self.trace("shm.unpin", stage=stage_name,
                       target=buffer_name, segment=r.segment,
                       slot=r.slot)
        return payload

    def _value_of(self, name: str) -> Any:
        # parent-side buffers hold slab descriptors, not arrays: decode
        # a private copy that outlives the slabs
        payload = self._payloads.get(name)
        if payload is None:
            return None
        return decode_payload(payload, self._registry, copy=True)

    def _recorded(self, name: str, payload: Any, version: int,
                  final: bool) -> Any:
        self._payloads[name] = payload
        if name not in self.watch:
            return None
        value = self._value_of(name)
        self._latest[name] = Snapshot(name, value, version, final)
        return value

    # -- lifecycle -------------------------------------------------------

    def _launch(self, w: _WorkerHandle, first: bool = False) -> None:
        """Fork one stage's worker.  Only the first launch continues a
        restored stage's replayed generator; a re-fork after the worker
        died opens a fresh body."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        inherited = [h.conn for h in self._workers.values()
                     if h.conn is not None]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(w.stage, child_conn, inherited,
                  self._slots[w.stage.output.name],
                  self._locks[w.stage.output.name],
                  self.injector, self.sink is not None, self.lease_k,
                  self.replayed(w.stage.name) if first else None),
            name=f"stage-{w.stage.name}", daemon=True)
        proc.start()
        child_conn.close()
        w.proc, w.conn, w.restart_at = proc, parent_conn, None
        w.epoch_raw = None
        self._by_conn[parent_conn] = w
        self.start(w.stage.name, first)

    def _retire_conn(self, w: _WorkerHandle) -> None:
        if w.conn is not None:
            self._by_conn.pop(w.conn, None)
            try:
                w.conn.close()
            except OSError:   # pragma: no cover - defensive
                pass
            w.conn = None
        self._parked = [p for p in self._parked if p.worker is not w]

    def _reply(self, w: _WorkerHandle, msg: tuple) -> None:
        if self._message_tap is not None:
            self._message_tap("send", w.stage.name, msg)
        # every parent->worker message answers a blocked worker
        # request: one completed pipe round-trip
        self.reports[w.stage.name].round_trips += 1
        try:
            w.conn.send(msg)
        except (BrokenPipeError, OSError):
            pass   # the worker died; the EOF path will handle it

    # -- request servicing ----------------------------------------------

    def _try_wait(self, w: _WorkerHandle, seen: dict) -> tuple | None:
        reply = self.reply_wait(w.stage, seen)
        if reply is None:
            return None
        if reply is EXHAUSTED:
            return ("exhausted",)
        wire = [(n, self._hand_payload(w.stage.name, n), s.version,
                 s.final, s.sealed) for n, s in reply.items()]
        return ("snaps", wire)

    #: blocking request kind -> its stage.wait label
    _BLOCKING = {"wait": "inputs", "emit": "emit", "recv": "recv"}

    def _service(self, w: _WorkerHandle, kind: str,
                 payload: Any) -> tuple | None:
        if kind == "wait":
            return self._try_wait(w, payload)
        if kind == "poll":
            return ("ok", self.reply_poll(w.stage, payload))
        if kind == "emit":
            try:
                return ("ok",) if self.try_emit(w.stage, payload) else None
            except ChannelClosed as exc:
                return ("raise", "closed", str(exc))
        got, update = self.try_recv(w.stage)   # kind == "recv"
        if not got:
            return None
        return ("end",) if update is CHANNEL_END else ("update", update)

    def _service_parked(self) -> None:
        """Retry every parked request until a pass makes no progress."""
        progressed = True
        while progressed and self._parked:
            progressed = False
            for parked in list(self._parked):
                reply = self._service(parked.worker, parked.kind,
                                      parked.payload)
                if reply is None:
                    continue
                self._parked.remove(parked)
                progressed = True
                self.record_wait(parked.worker.stage.name, parked.started,
                                 self._BLOCKING[parked.kind])
                self._reply(parked.worker, reply)

    # -- message handling -------------------------------------------------

    def _handle(self, w: _WorkerHandle, msg: tuple) -> None:
        if self._message_tap is not None:
            self._message_tap("recv", w.stage.name, msg)
        kind = msg[0]
        # the worker's kernel counted these commands since its previous
        # message (Leases are answered worker-side)
        self.reports[w.stage.name].commands += msg[-1]
        msg = msg[:-1]
        if kind == "energy":
            self.charge(msg[1])
        elif kind == "segments":
            self._registry.register(msg[1])
        elif kind == "epoch":
            w.epoch_raw = msg[1]
            w.epoch_rel = self.now()
        elif kind == "trace":
            ts = msg[2]
            if w.epoch_raw is not None:
                # delta-correct the worker's raw clock against the
                # epoch handshake: merged traces stay monotone even if
                # the two processes' perf_counter epochs are skewed.
                # The handshake overestimates the offset by the epoch
                # message's transit time, so clamp to the receipt
                # instant — an event cannot postdate the moment the
                # parent read it, and min() of two nondecreasing
                # per-worker sequences stays monotone.
                ts = min(w.epoch_rel + (ts - w.epoch_raw), self.now())
            self.trace(msg[1], stage=w.stage.name, ts=ts, **msg[3])
        elif kind == "write":
            if self._halted or self.stop_requested:
                # mirror the threaded halt check before each command: a
                # write racing shutdown must not hit a sealed buffer,
                # and one after the stop condition fired (another
                # worker's, drained before the loop could halt) is not
                # recorded
                self._reply(w, ("halt",))
                return
            try:
                self._reply(w, ("ok", self.publish(w.stage, msg[1],
                                                   msg[2])))
            except ValueError as exc:
                self._reply(w, ("raise", "error", str(exc)))
        elif kind in ("wait", "poll", "emit", "recv"):
            if self._halted:
                self._reply(w, ("halt",))
                return
            payload = msg[1] if len(msg) > 1 else None
            reply = self._service(w, kind, payload)
            if reply is None:
                self._parked.append(_Parked(w, kind, payload, self.now()))
            else:
                self._reply(w, reply)
        elif kind == "close_channel":
            self.close_channel(w.stage)
            self._reply(w, ("halt",) if self._halted else ("ok",))
        elif kind == "failed":
            self._on_failure(w, RuntimeError(msg[1]), in_process=True)
        elif kind in (DONE, EXHAUSTED, HALTED):
            w.terminal = True
            self.finish(w.stage, kind)
        else:   # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"unknown worker message {msg!r} from {w.stage.name!r}")

    def _on_failure(self, w: _WorkerHandle, exc: BaseException,
                    in_process: bool) -> None:
        """Shared fault path for reported raises and hard worker death.

        ``in_process=True`` means the worker is alive, blocked on the
        action reply (restart keeps its diffusive state and injector
        counters); ``False`` means the process died and restart means a
        re-fork from the parent's stage copy.
        """
        action, delay = self.on_failure(w.stage, exc, halting=self._halted)
        if action == "restart":
            if in_process:
                self.start(w.stage.name)
                self._reply(w, ("action", "restart", delay))
            else:
                w.restart_at = self.now() + delay
            return
        w.terminal = True
        if in_process:
            self._reply(w, ("action", action, 0.0))
        if action == "fail":
            self._initiate_halt()

    # -- reactor loop ------------------------------------------------------

    def _drain(self, conn) -> None:
        w = self._by_conn.get(conn)
        if w is None:   # pragma: no cover - raced retire
            return
        try:
            while w.conn is conn and conn.poll():
                self._handle(w, conn.recv())
        except (EOFError, OSError):
            self._on_eof(w)

    def _on_eof(self, w: _WorkerHandle) -> None:
        self._retire_conn(w)
        if w.terminal:
            return
        if self._halted:
            # killed (or exiting) during shutdown: a stage cut short
            # finishes halted
            w.terminal = True
            self.finish(w.stage, HALTED)
            return
        self._on_failure(
            w, RuntimeError(
                f"worker process for stage {w.stage.name!r} died "
                f"(exitcode={w.proc.exitcode})"),
            in_process=False)

    def _initiate_halt(self) -> None:
        if self._halted:
            return
        self._halted = True
        self._grace_deadline = self.now() + self.grace_s
        for parked in self._parked:
            self._reply(parked.worker, ("halt",))
        self._parked.clear()
        for w in self._workers.values():
            w.restart_at = None   # no re-forks once halting

    def _live_conns(self) -> list:
        return [w.conn for w in self._workers.values()
                if w.conn is not None]

    def _spawn_due_restarts(self) -> None:
        now = self.now()
        for w in self._workers.values():
            if w.restart_at is not None and now >= w.restart_at:
                self._retire_conn(w)
                self._launch(w)

    def _terminate_stragglers(self) -> None:
        for w in self._workers.values():
            if w.proc is not None and w.proc.is_alive():
                w.proc.terminate()

    def _join_all(self) -> None:
        deadline = _time.perf_counter() + max(self.grace_s, 1.0)
        for w in self._workers.values():
            if w.proc is None:
                continue
            w.proc.join(timeout=max(deadline - _time.perf_counter(),
                                    0.05))
            if w.proc.is_alive():   # pragma: no cover - last resort
                w.proc.kill()
                w.proc.join(timeout=1.0)
            self._retire_conn(w)

    def _cleanup_plane(self) -> None:
        for writer in self._ext_writers:
            writer.close()
        self._ext_writers.clear()
        self._registry.unlink_all()

    def _checkpoint(self, path: str) -> str:
        self._check_checkpointable(self._reactor is not None)
        return self._save(path)

    # -- RunHandle protocol ----------------------------------------------

    def _set_paused(self, paused: bool) -> None:
        """Pause = the reactor stops draining and answering workers.

        Workers block on their next blocking command's reply (writes,
        waits, emits, recvs); pure compute between yields still runs to
        its next command — preemption lands at the command boundary,
        exactly like the threaded gate.
        """
        self._paused = bool(paused)

    def _is_paused(self) -> bool:
        return self._paused

    def _is_active(self) -> bool:
        return self._reactor is not None and self._reactor.is_alive()

    def _wait_done(self, timeout_s: float | None) -> bool:
        if self._reactor is None:
            raise RuntimeError("executor was never launched")
        self._reactor.join(timeout=timeout_s)
        return not self._reactor.is_alive()

    def _peek(self) -> Snapshot:
        name = self._watch_name()
        flags = self.graph.buffers[name].snapshot()
        cached = self._latest.get(name)
        if cached is None:
            return Snapshot(name, None, flags.version, flags.final,
                            flags.sealed)
        if cached.version == flags.version:
            return Snapshot(name, cached.value, flags.version,
                            flags.final, flags.sealed)
        return cached   # a write raced the flag read; cached is valid

    # -- whole-run driver --------------------------------------------------

    def launch(self) -> RunHandle:
        """Fork the workers and start the reactor thread; returns a
        handle (see :class:`~repro.core.executor.RunHandle`).

        The caller's thread forks the workers (inheriting the graph
        copy-on-write); the reactor loop then runs in a daemon thread
        so the run is pause/resume/stop-able from outside.
        """
        if self._reactor is not None:
            raise RuntimeError("executor already launched")
        self._t0 = _time.perf_counter()
        self.install_hooks()
        try:
            # make sure the one resource tracker exists before forking,
            # so every worker registers segments with the same tracker
            # (and the parent's unlink below settles all of them)
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        except Exception:   # pragma: no cover - tracker is best-effort
            pass
        self._encode_externals()
        finished = (self._resume.finished
                    if self._resume is not None else set())
        try:
            for w in self._workers.values():
                if w.stage.name in finished:
                    # restored as already terminal: its output ladder
                    # was re-encoded by _encode_externals above
                    w.terminal = True
                    continue
                self._launch(w, first=True)
        except BaseException:
            self._initiate_halt()
            self._terminate_stragglers()
            self._join_all()
            self._cleanup_plane()
            raise
        self._reactor = threading.Thread(target=self._reactor_main,
                                         name="procexec-reactor",
                                         daemon=True)
        self._reactor.start()
        return RunHandle(self)

    def _reactor_main(self) -> None:
        deadline = (None if self._timeout_s is None
                    else self._t0 + self._timeout_s)
        try:
            while True:
                conns = self._live_conns()
                if not conns and not any(
                        w.restart_at is not None
                        for w in self._workers.values()):
                    break
                if not self._halted:
                    if deadline is not None \
                            and _time.perf_counter() > deadline:
                        self.stop_requested = True
                    if self.stop_requested:
                        self._initiate_halt()
                if self._halted and self.now() > self._grace_deadline:
                    self._terminate_stragglers()
                self._spawn_due_restarts()
                if self._paused and not self._halted:
                    # preempted: leave workers parked on their pipes;
                    # halt/stop checks above stay live
                    _time.sleep(_WAIT_S)
                    continue
                if conns:
                    for conn in mp_connection.wait(conns,
                                                   timeout=_WAIT_S):
                        self._drain(conn)
                else:
                    _time.sleep(_WAIT_S)
                self._service_parked()
        finally:
            self._initiate_halt()
            self._terminate_stragglers()
            self._join_all()
            self._ended_at = self.now()

    def _result_fields(self) -> dict[str, Any]:
        fields = super()._result_fields()   # decodes the final values
        self._cleanup_plane()
        return fields

    def run(self, timeout_s: float | None = None) -> ThreadedResult:
        """Execute until completion, stop condition, or ``timeout_s``."""
        self._timeout_s = timeout_s
        return self.launch().result(timeout_s=None)
