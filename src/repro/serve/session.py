"""Request sessions: the client's view of one request being served.

A :class:`Session` is returned by ``AnytimeServer.submit`` immediately —
before the request is admitted, sometimes before it will ever run (load
shedding).  The client can watch it refine (:meth:`snapshot`,
:meth:`stream`), interrupt it (:meth:`cancel`) and collect the outcome
(:meth:`result`).  Every read is anytime-valid: whatever state the
request is in, the snapshot is either empty (not started) or a valid
approximation published by an atomic buffer write (Property 3).

A session does not own an automaton run; it *subscribes* to one, a
:class:`_Run`.  A run has one subscriber unless coalescing attached
same-key requests to it, and every subscriber reads the run's state,
snapshot and counts.  The run's first live subscriber is its *lead*:
the lead's builder, faults and trace sink launch the run, and the
lead's name and SLO are what the slot policy sees.  Since any sealed
version is a valid answer (Property 3), each subscriber may leave the
run at its own deadline or target; the last one to leave ends it.

State machine (of the run; a subscriber reads it until it leaves)::

    QUEUED ──admit──> RUNNING <──resume/preempt──> PREEMPTED
      │                  │  \──suspend──> RESUMABLE ──restore──> RUNNING
      │ cancel/shed      │ finish / deadline / target / cancel / fault
      v                  v
    CANCELLED|SHED    COMPLETED | CANCELLED | FAILED

A QUEUED run that only its precise value can answer is *held*
(:attr:`_Run.held`): it is not admitted while held, and that value
ends it COMPLETED at version 1.

``SHED`` is deliberately distinct from ``CANCELLED``: a shed request was
refused by admission control (the server's choice, under overload); a
cancelled one was withdrawn (the client's choice, or server shutdown).
``RESUMABLE`` only appears on servers with a ``resume_dir``: the run was
checkpointed to disk (:mod:`repro.ckpt`) and its executor released; a
later slot grant restores it from the checkpoint with no lost progress,
and a would-be-shed submission parks in this state instead of dying.
"""

from __future__ import annotations

import enum
import math
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..core.buffer import Snapshot
from ..core.executor import RunHandle, ThreadedResult
from .slo import SLO

__all__ = ["Session", "SessionState", "ServeResult"]

#: seconds :meth:`Session.stream` sleeps between looks at a live run
STREAM_POLL_S = 0.005


class SessionState(enum.Enum):
    QUEUED = "queued"          # admitted, waiting for a slot
    RUNNING = "running"        # holds an executor slot
    PREEMPTED = "preempted"    # launched, paused by the scheduler
    RESUMABLE = "resumable"    # suspended to an on-disk checkpoint
    COMPLETED = "completed"    # finished (precise, SLO-stopped, degraded)
    CANCELLED = "cancelled"    # withdrawn by the client or shutdown
    SHED = "shed"              # refused by admission control
    FAILED = "failed"          # produced no output version at all


@dataclass(frozen=True)
class ServeResult:
    """Terminal outcome of one request.

    ``latency_s`` is submission-to-terminal wall time (what the client
    experienced); ``queue_s`` the portion spent waiting for admission
    or a slot before first running.  ``snr_db`` is the quality of the
    final snapshot by the request's metric (None without a metric or
    output).  ``interrupted`` means the run was stopped before its
    natural end (deadline, target reached, preempt-to-finish, cancel);
    ``slo_met`` whether every stated objective held.  ``preemptions``
    and ``restores`` count the request's run, so every subscriber of a
    shared run reports the same numbers.
    """

    state: SessionState
    snapshot: Snapshot
    latency_s: float
    queue_s: float
    snr_db: float | None = None
    slo_met: bool = False
    interrupted: bool = False
    degraded: bool = False
    preemptions: int = 0
    errors: tuple[str, ...] = ()
    run_result: ThreadedResult | None = None
    #: served by attaching to another request's run (same key)
    coalesced: bool = False
    #: served straight from the recently-sealed-results memo
    memo_hit: bool = False
    #: how many times the run was suspended to a checkpoint and restored
    restores: int = 0

    def fields(self) -> dict[str, Any]:
        """This outcome as the result fields of a fleet ``done`` frame
        (:mod:`repro.serve.fleet`), JSON values only: an infinite SNR
        reads as ``precise_snr`` with ``snr_db`` None, and the snapshot
        as its ``version`` and ``final``."""
        snr = self.snr_db
        return {
            "state": self.state.value,
            "latency_s": self.latency_s,
            "queue_s": self.queue_s,
            "snr_db": (snr if snr is not None and math.isfinite(snr)
                       else None),
            "precise_snr": bool(snr is not None and math.isinf(snr)
                                and snr > 0),
            "slo_met": bool(self.slo_met),
            "interrupted": bool(self.interrupted),
            "coalesced": bool(self.coalesced),
            "memo_hit": bool(self.memo_hit),
            "version": self.snapshot.version,
            "final": bool(self.snapshot.final),
            "preemptions": self.preemptions,
            "errors": list(self.errors),
        }


@dataclass
class Session:
    """One submitted request (constructed by the server, not directly).

    Client-safe methods: :meth:`snapshot`, :meth:`stream`,
    :meth:`cancel`, :meth:`result`, :attr:`state`, :meth:`wait`.
    Underscored fields are owned by the server's scheduler thread.
    """

    sid: int
    name: str
    builder: Callable[[], Any]
    slo: SLO
    metric: Callable[[Any], float] | None
    submitted_at: float
    faults: Any = None
    #: coalescing key (see :mod:`repro.serve.digest`); None = never share
    key: str | None = None
    #: per-request trace sink; overrides the server-wide sink for the
    #: runs this request leads (a conformance Checker rides here)
    trace: Any = None

    # -- scheduler-owned state ------------------------------------------
    _run: "_Run | None" = None            # the run subscribed to, if live
    _state: SessionState = SessionState.QUEUED   # once it has no run
    _result: ServeResult | None = None
    _done: threading.Event = field(default_factory=threading.Event)
    _cancel_requested: bool = False
    _deadline_at: float | None = None
    _first_run_at: float | None = None    # joined a run under way
    _last_snr: float | None = None
    _last_version: int = 0
    _coalesced: bool = False              # attached to another's run
    _memo_hit: bool = False
    _streaming: bool = False              # the client called stream()
    #: wakes the server's scheduler (set by ``submit``); a cancel or a
    #: stream acts at once, not at the next tick
    _wake: "Callable[[], None] | None" = None
    # -- done callbacks (guarded by their own lock, not the server's) ----
    _callbacks: "list[Callable[[Session], None]]" = field(
        default_factory=list)
    _callback_lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        self._deadline_at = self.slo.deadline_at(self.submitted_at)

    # -- client API ------------------------------------------------------

    @property
    def state(self) -> SessionState:
        """A subscriber is wherever its run is."""
        run = self._run
        return run._state if run is not None else self._state

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until the session reaches a terminal state."""
        return self._done.wait(timeout=timeout_s)

    def add_done_callback(self, fn: "Callable[[Session], None]") -> None:
        """Run ``fn(self)`` once the session is terminal (immediately
        if it already is).  Callbacks fire on the server's scheduler
        thread with its lock held — keep them cheap and never call
        back into the server (the fleet worker's callback only hands
        its ``done`` to the worker's loop with
        ``call_soon_threadsafe``)."""
        with self._callback_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def snapshot(self) -> Snapshot:
        """The newest output version right now (empty before any)."""
        # the run first: a session takes its result before it lets go
        # of its run, so this order never reads a served one as empty
        run = self._run
        result = self._result
        if result is not None:
            return result.snapshot
        if run is not None:
            # identical work: Property 3 makes any sealed version of the
            # run a valid answer for every subscriber
            return run.snapshot()
        return Snapshot(self.name, None, 0, False)

    def stream(self, timeout_s: float | None = None) -> Iterator[Snapshot]:
        """Yield each new output version as it lands (streaming
        refinement), ending with the final snapshot at a terminal
        state.  ``timeout_s`` bounds the total wait.

        A client that streams reads the ladder, so the call itself
        launches a run that was held for its precise value (see
        :meth:`holds_for_reference`)."""
        self._streaming = True
        self._wake_server()
        return self._stream(timeout_s)

    def _stream(self, timeout_s: float | None) -> Iterator[Snapshot]:
        deadline = (None if timeout_s is None
                    else _time.monotonic() + timeout_s)
        seen = 0
        while True:
            snap = self.snapshot()
            if snap.version > seen:
                seen = snap.version
                yield snap
            if self.done and self.snapshot().version <= seen:
                return
            if deadline is not None and _time.monotonic() >= deadline:
                return
            self._done.wait(timeout=STREAM_POLL_S)

    def cancel(self) -> None:
        """Withdraw the request (idempotent); the server's scheduler
        acts on it at once."""
        self._cancel_requested = True
        self._wake_server()

    def _wake_server(self) -> None:
        wake = self._wake
        if wake is not None:
            wake()

    def result(self, timeout_s: float | None = None) -> ServeResult:
        """Block for the terminal outcome; TimeoutError on timeout."""
        if not self._done.wait(timeout=timeout_s):
            raise TimeoutError(
                f"request {self.name!r} not terminal after "
                f"{timeout_s}s (state={self.state.value})")
        assert self._result is not None
        return self._result

    def outcome(self) -> dict[str, Any]:
        """The terminal outcome as :func:`~repro.serve.workload.summarize`
        reads it: :meth:`ServeResult.fields`."""
        return self.result(timeout_s=0.0).fields()

    # -- scheduler helpers ----------------------------------------------

    def target_met(self) -> bool:
        return (self.slo.target_db is not None
                and self._last_snr is not None
                and self._last_snr >= self.slo.target_db)

    def deadline_passed(self, now: float) -> bool:
        return self._deadline_at is not None and now >= self._deadline_at

    def metric_ready(self) -> bool:
        """False while a deferred metric's reference is still being
        computed (see ``AnytimeServer.submit``); scoring with it would
        block.  Plain callables are always ready."""
        return bool(getattr(self.metric, "ready", True))

    def metric_error(self) -> str | None:
        """Why a deferred metric's reference or precise value could
        not be computed."""
        return getattr(self.metric, "error", None)

    def holds_for_reference(self) -> bool:
        """True while nothing but the precise value can answer this
        request: it has no deadline, it does not read the ladder
        through :meth:`stream`, and its deferred metric races (has a
        ``precise`` attribute) but offers neither that value nor an
        error yet.  With no deadline, a ladder version answers only by
        meeting a target or by finishing, and the precise value, once
        in, answers first or equally; a ladder run meanwhile would only
        share the process with the precise pass.  This holds on every
        app, also where the metric scores at once because its
        reference is the input.  A per-request trace sink reads the
        ladder too, but only the lead's sees its run
        (:attr:`_Run.held`)."""
        return (self._deadline_at is None and not self._streaming
                and getattr(self.metric, "precise", False) is None
                and self.metric_error() is None)

    def _terminalize(self, state: SessionState, snapshot: Snapshot,
                     now: float, snr_db: float | None = None,
                     interrupted: bool = False, degraded: bool = False,
                     errors: tuple[str, ...] = (),
                     run_result: ThreadedResult | None = None) -> None:
        run = self._run
        latency = now - self.submitted_at
        first_run_at = self._first_run_at
        if first_run_at is None and run is not None:
            first_run_at = run._first_run_at
        queue_s = ((first_run_at - self.submitted_at)
                   if first_run_at is not None else latency)
        slo_met = state is SessionState.COMPLETED
        if self.slo.deadline_s is not None:
            slo_met = slo_met and latency <= self.slo.deadline_s * 1.25
        if self.slo.target_db is not None and self.metric is not None:
            slo_met = (slo_met and snr_db is not None
                       and (snr_db >= self.slo.target_db
                            or snapshot.final))
        self._result = ServeResult(
            state=state, snapshot=snapshot, latency_s=latency,
            queue_s=queue_s, snr_db=snr_db, slo_met=slo_met,
            interrupted=interrupted, degraded=degraded,
            preemptions=run._preemptions if run is not None else 0,
            errors=errors, run_result=run_result,
            coalesced=self._coalesced, memo_hit=self._memo_hit,
            restores=run._restores if run is not None else 0)
        self._state = state
        self._run = None
        with self._callback_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


@dataclass(eq=False)
class _Run:
    """One automaton run and the sessions subscribed to it, in attach
    order.  Owned by the server's scheduler thread.

    The first subscriber is the *lead*: its builder, faults and trace
    sink launch the run, and the run answers to its ``name``, ``sid``
    and ``slo`` — the policy ranks runs by their lead, exactly as it
    would rank that request alone.  When the lead leaves a run that
    goes on, the next subscriber leads.
    """

    subscribers: list[Session]
    _state: SessionState = SessionState.QUEUED
    _handle: RunHandle | None = None
    _ckpt_path: str | None = None         # checkpoint of a suspended run
    _parked_snapshot: Snapshot | None = None  # pinned at suspend time
    _ready_since: float = 0.0             # enqueue / preempt timestamp
    _dispatched_at: float | None = None   # set while holding a slot
    _first_run_at: float | None = None
    _run_s: float = 0.0                   # accumulated slot time
    _preemptions: int = 0
    _restores: int = 0                    # restored-from-checkpoint count

    @property
    def lead(self) -> Session:
        return self.subscribers[0]

    @property
    def name(self) -> str:
        return self.lead.name

    @property
    def sid(self) -> int:
        return self.lead.sid

    @property
    def key(self) -> str | None:
        return self.lead.key

    @property
    def slo(self) -> SLO:
        return self.lead.slo

    def target_met(self) -> bool:
        return self.lead.target_met()

    @property
    def held(self) -> bool:
        """Queued for its precise value alone: no subscriber takes an
        answer from the ladder before that value is in
        (:meth:`Session.holds_for_reference`), and the lead has no
        trace sink to record the ladder (the run traces to the lead's
        sink only, so a joiner's sink does not launch it).  The run is
        not launched, and the precise value ends it at version 1."""
        return (self.lead.trace is None
                and all(s.holds_for_reference() for s in self.subscribers))

    @property
    def finished(self) -> bool:
        """The run ended by itself: its executor wound down, or it was
        suspended to disk holding its final version."""
        if self._handle is not None:
            return self._handle.finished
        parked = self._parked_snapshot
        return parked is not None and parked.final

    def run_seconds(self, now: float) -> float:
        """Total wall time spent holding a slot, up to ``now``."""
        extra = (now - self._dispatched_at
                 if self._dispatched_at is not None else 0.0)
        return self._run_s + extra

    def snapshot(self) -> Snapshot:
        """The run's newest output version: live from its executor,
        else the one pinned when it was suspended to disk."""
        handle = self._handle
        if handle is not None:
            return handle.snapshot()
        parked = self._parked_snapshot
        if parked is not None:
            return parked
        return Snapshot(self.name, None, 0, False)
