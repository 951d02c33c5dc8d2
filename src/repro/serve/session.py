"""Request sessions: the client's view of one automaton run being served.

A :class:`Session` is returned by ``AnytimeServer.submit`` immediately —
before the request is admitted, sometimes before it will ever run (load
shedding).  The client can watch it refine (:meth:`snapshot`,
:meth:`stream`), interrupt it (:meth:`cancel`) and collect the outcome
(:meth:`result`).  Every read is anytime-valid: whatever state the
request is in, the snapshot is either empty (not started) or a valid
approximation published by an atomic buffer write (Property 3).

State machine::

    QUEUED ──admit──> RUNNING <──resume/preempt──> PREEMPTED
      │                  │  \──suspend──> RESUMABLE ──restore──> RUNNING
      │ cancel/shed      │ finish / deadline / target / cancel / fault
      v                  v
    CANCELLED|SHED    COMPLETED | CANCELLED | FAILED

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
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..core.buffer import Snapshot
from ..core.executor import RunHandle, ThreadedResult
from .slo import SLO

__all__ = ["Session", "SessionState", "ServeResult", "TERMINAL_STATES"]


class SessionState(enum.Enum):
    QUEUED = "queued"          # admitted, waiting for a slot
    RUNNING = "running"        # holds an executor slot
    PREEMPTED = "preempted"    # launched, paused by the scheduler
    RESUMABLE = "resumable"    # suspended to an on-disk checkpoint
    COMPLETED = "completed"    # finished (precise, SLO-stopped, degraded)
    CANCELLED = "cancelled"    # withdrawn by the client or shutdown
    SHED = "shed"              # refused by admission control
    FAILED = "failed"          # produced no output version at all


TERMINAL_STATES = frozenset({
    SessionState.COMPLETED, SessionState.CANCELLED,
    SessionState.SHED, SessionState.FAILED,
})


@dataclass(frozen=True)
class ServeResult:
    """Terminal outcome of one request.

    ``latency_s`` is submission-to-terminal wall time (what the client
    experienced); ``queue_s`` the portion spent waiting for admission
    or a slot before first running.  ``snr_db`` is the quality of the
    final snapshot by the request's metric (None without a metric or
    output).  ``interrupted`` means the run was stopped before its
    natural end (deadline, target reached, preempt-to-finish, cancel);
    ``slo_met`` whether every stated objective held.
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
    #: per-request trace sink; overrides the server-wide sink for this
    #: request's own runs (a conformance Checker rides here)
    trace: Any = None

    # -- scheduler-owned state ------------------------------------------
    _state: SessionState = SessionState.QUEUED
    _handle: RunHandle | None = None
    _result: ServeResult | None = None
    _done: threading.Event = field(default_factory=threading.Event)
    _cancel_requested: bool = False
    _deadline_at: float | None = None
    _first_run_at: float | None = None
    _dispatched_at: float | None = None   # set while holding a slot
    _ready_since: float = 0.0             # enqueue / preempt timestamp
    _run_s: float = 0.0                   # accumulated slot time
    _preemptions: int = 0
    _last_snr: float | None = None
    _last_version: int = 0
    # -- coalescing links (scheduler-owned) -----------------------------
    _primary: "Session | None" = None     # set on attached followers
    _followers: "list[Session]" = field(default_factory=list)
    _coalesced: bool = False              # ever served as a follower
    _memo_hit: bool = False
    # -- suspend-to-disk state (scheduler-owned) ------------------------
    _ckpt_path: str | None = None         # checkpoint of a suspended run
    _parked_snapshot: Snapshot | None = None  # pinned at suspend time
    _restores: int = 0                    # restored-from-checkpoint count
    # -- done callbacks (guarded by their own lock, not the server's) ----
    _callbacks: "list[Callable[[Session], None]]" = field(
        default_factory=list)
    _callback_lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        self._deadline_at = self.slo.deadline_at(self.submitted_at)
        self._ready_since = self.submitted_at

    # -- client API ------------------------------------------------------

    @property
    def state(self) -> SessionState:
        """An attached subscriber is wherever its shared run is."""
        primary = self._primary
        return primary.state if primary is not None else self._state

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
        back into the server (the fleet worker's completion pump
        bridges here with a queue put)."""
        with self._callback_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def snapshot(self) -> Snapshot:
        """The newest output version right now (empty before any)."""
        result = self._result
        if result is not None:
            return result.snapshot
        handle = self._handle
        if handle is not None:
            return handle.snapshot()
        parked = self._parked_snapshot
        if parked is not None:
            # suspended to disk: the newest sealed version at suspend
            # time remains a valid approximation of this answer
            return parked
        primary = self._primary
        if primary is not None:
            # attached follower: the shared run's output is this
            # request's output (identical work, Property 3 makes any
            # sealed version a valid answer for every subscriber)
            return primary.snapshot()
        return Snapshot(self.name, None, 0, False)

    def stream(self, poll_s: float = 0.005,
               timeout_s: float | None = None) -> Iterator[Snapshot]:
        """Yield each new output version as it lands (streaming
        refinement), ending with the final snapshot at a terminal
        state.  ``timeout_s`` bounds the total wait."""
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
            self._done.wait(timeout=poll_s)

    def cancel(self) -> None:
        """Withdraw the request (idempotent; honored within a tick)."""
        self._cancel_requested = True

    def result(self, timeout_s: float | None = None) -> ServeResult:
        """Block for the terminal outcome; TimeoutError on timeout."""
        if not self._done.wait(timeout=timeout_s):
            raise TimeoutError(
                f"request {self.name!r} not terminal after "
                f"{timeout_s}s (state={self.state.value})")
        assert self._result is not None
        return self._result

    # -- scheduler helpers ----------------------------------------------

    def run_seconds(self, now: float) -> float:
        """Total wall time spent holding a slot, up to ``now``."""
        extra = (now - self._dispatched_at
                 if self._dispatched_at is not None else 0.0)
        return self._run_s + extra

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
        """Why a deferred metric's reference could not be computed."""
        return getattr(self.metric, "error", None)

    def _terminalize(self, state: SessionState, snapshot: Snapshot,
                     now: float, snr_db: float | None = None,
                     interrupted: bool = False, degraded: bool = False,
                     errors: tuple[str, ...] = (),
                     run_result: ThreadedResult | None = None) -> None:
        latency = now - self.submitted_at
        first_run_at = self._first_run_at
        if first_run_at is None and self._primary is not None:
            # a subscriber whose shared run started after it attached
            first_run_at = self._primary._first_run_at
        queue_s = ((first_run_at - self.submitted_at)
                   if first_run_at is not None else latency)
        slo_met = state is SessionState.COMPLETED
        if self.slo.deadline_s is not None:
            slo_met = slo_met and latency <= self.slo.deadline_s * 1.25
        if self.slo.target_db is not None and self.metric is not None:
            slo_met = (slo_met and snr_db is not None
                       and (snr_db >= self.slo.target_db
                            or snapshot.final))
        self._state = state
        self._primary = None
        self._result = ServeResult(
            state=state, snapshot=snapshot, latency_s=latency,
            queue_s=queue_s, snr_db=snr_db, slo_met=slo_met,
            interrupted=interrupted, degraded=degraded,
            preemptions=self._preemptions, errors=errors,
            run_result=run_result, coalesced=self._coalesced,
            memo_hit=self._memo_hit, restores=self._restores)
        with self._callback_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)
