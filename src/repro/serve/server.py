"""The anytime serving layer: many requests, few slots, every answer valid.

:class:`AnytimeServer` multiplexes concurrent automaton runs over a
bounded pool of executor slots.  It inverts the repo's original control
flow: executors no longer own the run loop — each admitted request is
``launch()``-ed into a :class:`~repro.core.executor.RunHandle` and
becomes a schedulable resource the server can pause, resume, stop and
harvest at any tick.  The anytime properties are what make this serving
model cheap and safe:

* **Preemption is free of bookkeeping.**  Pausing a run needs no
  checkpoint: its output buffer already holds a sealed-on-demand valid
  approximation (Property 3), so a preempted request can be resumed,
  finished early, or abandoned with whatever quality it reached.
* **Deadlines are exact, not best-effort.**  A request stopped at its
  SLO deadline returns its newest output version — degraded, never
  invalid.
* **Quality-aware scheduling has a calibrated currency.**  With a
  :class:`~repro.serve.scheduler.MarginalGainPolicy`, slots flow to the
  requests whose accuracy profile still climbs steeply, and away from
  requests past their target dB.

Lifecycle (all transitions traced as ``server.*`` events)::

    submit ──enqueue──> QUEUED ──admit──> RUNNING ⇄ PREEMPTED
        └──shed (queue full)──> SHED         └──> COMPLETED/…

The scheduler thread ticks every ``tick_s`` — and at once when a
request is submitted: it harvests finished and
expired runs, fills free slots from the ready pool (queued + preempted,
policy-ranked, with a starvation guard), and preempts past-quantum
runners when ready work would gain more.  Admission applies
backpressure (``submit(wait_s=…)`` blocks while the queue is full) and
sheds what it cannot hold.
"""

from __future__ import annotations

import itertools
import os
import threading
import time as _time
import weakref
from collections import deque
from typing import Any, Callable

from ..core.buffer import Snapshot
from ..core.faults import FaultInjector, FaultPolicy
from ..core.tracing import TraceEvent, TraceSink
from .digest import ckpt_filename
from .scheduler import FairSharePolicy, ServePolicy
from .session import Session, SessionState
from .slo import SLO

__all__ = ["AnytimeServer", "shutdown_all_servers"]

_EXECUTORS = ("threaded", "process")

# Live servers, so test harnesses (the conftest watchdog) can reap
# serving threads that a failing test left behind.
_LIVE_SERVERS: "weakref.WeakSet[AnytimeServer]" = weakref.WeakSet()


def shutdown_all_servers(timeout_s: float = 5.0) -> int:
    """Shut down every live server (best effort); returns how many."""
    count = 0
    for server in list(_LIVE_SERVERS):
        try:
            server.shutdown(timeout_s=timeout_s)
            count += 1
        except Exception:
            pass
    return count


class AnytimeServer:
    """Serve concurrent anytime requests over ``slots`` executor slots.

    Parameters
    ----------
    slots:
        How many requests run concurrently (each admitted run uses one
        slot, regardless of its internal stage count).
    queue_limit:
        Bound on the admission queue; submissions beyond it are shed
        (after ``wait_s`` of backpressure, if the caller asked for any).
    executor:
        ``"threaded"`` (in-process stage threads) or ``"process"``
        (one forked worker per stage; POSIX only).
    policy:
        Slot-allocation policy; default :class:`FairSharePolicy`.
    quantum_s:
        Minimum slot tenure before a run becomes preemptible.
    tick_s:
        Scheduler tick period.
    starvation_s:
        Hard fairness override: a ready request older than this is
        granted the next slot regardless of policy ranking.  Defaults
        to ``50 * quantum_s``.
    default_faults:
        Fault policy applied to requests that do not bring their own;
        defaults to per-request graceful degradation so one faulty
        request cannot take the server down with a strict-mode raise.
    trace:
        Optional :class:`~repro.core.tracing.TraceSink` receiving
        ``server.*`` events (stage = request name) alongside whatever
        per-run events the executors emit.
    grace_s:
        How long a harvest waits for a stopped run to wind down.
    coalesce:
        Whether requests submitted with the same ``key`` share one run
        (see :meth:`submit`).  Subscribers detach individually at their
        own deadline/target with a pinned sealed snapshot; the run keeps
        its slot until its most-demanding live subscriber is satisfied.
    memo_ttl_s:
        How long a recently-sealed *final* result answers repeat
        requests for the same ``key`` without running at all (0 =
        memoization off).  Only precise (``final``) snapshots are
        memoized, so a memo hit is never a silent quality downgrade.
    resume_dir:
        Directory for run checkpoints (:mod:`repro.ckpt`); enables
        suspend-and-resume serving.  With it set, (a) preemption
        *suspends*: the victim's run is checkpointed to disk and its
        executor torn down entirely (threads/processes reclaimed, not
        just paused), and a later slot grant restores the run from the
        checkpoint with no lost progress; (b) a queue-full submission
        parks as ``RESUMABLE`` and re-queues when space frees instead
        of dying ``SHED``.  None (the default) keeps the original
        pause-in-memory preemption and terminal sheds.
    """

    def __init__(self, slots: int = 4, queue_limit: int = 16,
                 executor: str = "threaded",
                 policy: ServePolicy | None = None,
                 quantum_s: float = 0.05,
                 tick_s: float = 0.005,
                 starvation_s: float | None = None,
                 default_faults: FaultPolicy | dict[str, FaultPolicy]
                 | None = None,
                 injector: FaultInjector | None = None,
                 trace: TraceSink | None = None,
                 grace_s: float = 5.0,
                 coalesce: bool = True,
                 memo_ttl_s: float = 0.0,
                 resume_dir: str | None = None) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive: {slots}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit cannot be negative: {queue_limit}")
        if executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; pick from {_EXECUTORS}")
        if quantum_s <= 0 or tick_s <= 0:
            raise ValueError("quantum_s and tick_s must be positive")
        self.slots = slots
        self.queue_limit = queue_limit
        self.executor = executor
        self.policy = policy or FairSharePolicy()
        self.quantum_s = quantum_s
        self.tick_s = tick_s
        self.starvation_s = (starvation_s if starvation_s is not None
                             else 50.0 * quantum_s)
        self._default_faults = (default_faults if default_faults is not None
                                else FaultPolicy(on_failure="degrade"))
        self._injector = injector
        self._sink = trace
        self._grace_s = grace_s
        if memo_ttl_s < 0:
            raise ValueError(f"memo_ttl_s cannot be negative: {memo_ttl_s}")
        self.coalesce = bool(coalesce)
        self.memo_ttl_s = float(memo_ttl_s)
        self._memo: dict[str, tuple[float, Snapshot]] = {}
        self._last_score: tuple[Any, Snapshot | None, float | None] = (
            None, None, None)
        self.resume_dir = resume_dir
        if resume_dir is not None:
            os.makedirs(resume_dir, exist_ok=True)

        self._lock = threading.RLock()
        self._space = threading.Condition(self._lock)
        self._wake = threading.Condition(self._lock)   # submit -> _loop
        self._queue: deque[Session] = deque()
        self._scheduled: list[Session] = []   # RUNNING+PREEMPTED+RESUMABLE
        self._parked: deque[Session] = deque()  # would-be-shed, waiting
        self._ids = itertools.count(1)
        self._accepting = False
        self._stop_loop = False
        self._thread: threading.Thread | None = None
        self._t0 = _time.monotonic()
        self.counters = {
            "submitted": 0, "admitted": 0, "shed": 0, "completed": 0,
            "cancelled": 0, "failed": 0, "preemptions": 0, "resumes": 0,
            "coalesced": 0, "memo_hits": 0, "detaches": 0,
            "promotions": 0,
            "parked": 0, "requeued": 0, "suspends": 0, "restores": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "AnytimeServer":
        """Start the scheduler thread and begin accepting requests."""
        loader = getattr(self.policy, "load_profile", None)
        if callable(loader):
            try:
                loader()
            except Exception:
                pass   # a stale/corrupt profile never blocks serving
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("server already started")
            self._accepting = True
            self._stop_loop = False
            self._thread = threading.Thread(
                target=self._loop, name="anytime-server", daemon=True)
            self._thread.start()
        _LIVE_SERVERS.add(self)
        return self

    def __enter__(self) -> "AnytimeServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop accepting, let in-flight work finish; True if it did."""
        with self._lock:
            self._accepting = False
            self._space.notify_all()
        deadline = (None if timeout_s is None
                    else _time.monotonic() + timeout_s)
        while True:
            with self._lock:
                if not self._queue and not self._scheduled \
                        and not self._parked:
                    return True
            if deadline is not None and _time.monotonic() >= deadline:
                return False
            _time.sleep(self.tick_s)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Cancel everything in flight and stop the scheduler thread.

        Idempotent; safe to call on a server that never started.  Every
        non-terminal session is terminalized (CANCELLED), so no client
        blocks forever on :meth:`Session.result`.
        """
        with self._lock:
            self._accepting = False
            self._stop_loop = True
            thread = self._thread
            self._space.notify_all()
            self._wake.notify_all()
        if thread is not None:
            thread.join(timeout=timeout_s)
        with self._lock:
            now = _time.monotonic()
            while self._queue or self._parked:
                session = (self._queue.popleft() if self._queue
                           else self._parked.popleft())
                self._end(session, SessionState.CANCELLED,
                          session.snapshot(), now)
            for session in list(self._scheduled):
                self._retire(session, SessionState.CANCELLED, now)
            self._thread = None
        _LIVE_SERVERS.discard(self)
        saver = getattr(self.policy, "save_profile", None)
        if callable(saver):
            try:
                saver()
            except Exception:
                pass

    # -- client API ------------------------------------------------------

    def submit(self, builder: Callable[[], Any], slo: SLO | None = None,
               *, metric: Callable[[Any], float] | None = None,
               name: str | None = None,
               faults: FaultPolicy | dict[str, FaultPolicy] | None = None,
               wait_s: float = 0.0,
               key: str | None = None,
               trace: TraceSink | None = None) -> Session:
        """Submit one request; returns its :class:`Session` immediately.

        ``builder`` is a zero-argument callable producing a *fresh*
        :class:`~repro.core.automaton.AnytimeAutomaton` (automata are
        single-use; the server builds at admission time so shed requests
        cost nothing).  ``metric`` maps an output value to dB — required
        for ``target_db`` SLOs and for accuracy-at-interrupt accounting.
        A metric may be *deferred*: if it has a ``ready`` attribute
        that is still false, its reference is being computed elsewhere
        and calling it would block, so the scheduler leaves target
        scoring and the retiring of a naturally finished run to a later
        tick (the run goes on producing versions meanwhile); only a
        deadline, a cancel or a shutdown block on it.  Once ready, a
        non-None ``error`` attribute (a string) fails the request with
        that error.  (An un-keyed request's target is also compiled
        into its run's stop condition, which scores — and would wait —
        on the stage thread at each version.)
        ``wait_s`` is the backpressure budget: how long to block while
        the admission queue is full before giving up; on a still-full
        queue the request is returned in the terminal ``SHED`` state.

        ``key`` is the request's work identity (canonically
        :func:`repro.serve.digest.input_digest`).  When coalescing is
        on, a keyed request whose key matches a queued or running
        request attaches to that run as a *subscriber* instead of
        consuming queue space and a slot of its own; it detaches at its
        own deadline/target with a pinned sealed snapshot.  A keyed
        request matching a fresh memoized final result completes
        immediately without running.

        ``trace`` attaches a per-request sink (e.g. a conformance
        :class:`~repro.check.invariants.Checker`) to this request's own
        runs, overriding the server-wide sink; it sees nothing when the
        request is answered by coalescing or the memo.
        """
        slo = slo or SLO()
        now = _time.monotonic()
        with self._lock:
            self.counters["submitted"] += 1
            sid = next(self._ids)
            session = Session(
                sid=sid, name=name or f"req-{sid}", builder=builder,
                slo=slo, metric=metric, submitted_at=now, key=key,
                trace=trace,
                faults=faults if faults is not None
                else self._default_faults)
            if not self._accepting:
                self._shed(session, now, reason="not-accepting")
                return session
            if self.coalesce and key is not None:
                if self._memo_answer(session, now):
                    return session
                host = self._find_host(key)
                if host is not None:
                    self._attach(session, host, now)
                    return session
            if len(self._queue) >= self.queue_limit and wait_s > 0.0:
                deadline = now + wait_s
                while (len(self._queue) >= self.queue_limit
                       and self._accepting):
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        break
                    self._space.wait(timeout=remaining)
            if not self._accepting:
                self._shed(session, _time.monotonic(),
                           reason="not-accepting")
                return session
            if self.coalesce and key is not None:
                # a matching run may have appeared while we waited
                host = self._find_host(key)
                if host is not None:
                    self._attach(session, host, _time.monotonic())
                    return session
            if len(self._queue) >= self.queue_limit:
                if self.resume_dir is not None:
                    self._park(session, _time.monotonic())
                else:
                    self._shed(session, _time.monotonic(),
                               reason="queue-full")
                return session
            session._ready_since = _time.monotonic()
            self._queue.append(session)
            self._trace("server.enqueue", session, session._ready_since,
                        queue_depth=len(self._queue))
            self._wake.notify()
            return session

    # -- coalescing ------------------------------------------------------

    def _memo_answer(self, session: Session, now: float) -> bool:
        """Serve a keyed request from the sealed-results memo; True if
        answered.  Expired entries are evicted on the way."""
        if self.memo_ttl_s <= 0 or session.key is None:
            return False
        entry = self._memo.get(session.key)
        if entry is None:
            return False
        expires_at, snapshot = entry
        if now >= expires_at:
            del self._memo[session.key]
            return False
        session._memo_hit = True
        self.counters["memo_hits"] += 1
        self._end(session, SessionState.COMPLETED, snapshot, now)
        return True

    def _find_host(self, key: str) -> Session | None:
        """A live same-key session whose run this request can join."""
        for session in self._scheduled:
            if session.key == key and not session._cancel_requested:
                return session
        for session in self._queue:
            if session.key == key and not session._cancel_requested:
                return session
        return None

    def _attach(self, session: Session, host: Session,
                now: float) -> None:
        """Attach ``session`` as a subscriber of ``host``'s run; its
        :attr:`~Session.state` is the run's from here on."""
        session._primary = host
        session._coalesced = True
        if host._first_run_at is not None:
            session._first_run_at = now   # the shared run is under way
        host._followers.append(session)
        self.counters["coalesced"] += 1
        self._trace("server.coalesce", session, now, primary=host.name,
                    subscribers=1 + len(host._followers))

    def _snr_of(self, session: Session,
                snapshot: Snapshot) -> float | None:
        """``session``'s metric on ``snapshot``; subscribers settling
        on one snapshot with one metric score it once."""
        if session.metric is None or snapshot.value is None:
            return None
        metric, scored, snr = self._last_score
        if metric is session.metric and scored is snapshot:
            return snr
        try:
            snr = float(session.metric(snapshot.value))
        except Exception:
            snr = None
        self._last_score = (session.metric, snapshot, snr)
        return snr

    def _memoize(self, key: str | None, snapshot: Snapshot,
                 now: float) -> None:
        if key is None or self.memo_ttl_s <= 0 or not snapshot.final:
            return
        self._memo[key] = (now + self.memo_ttl_s, snapshot)

    def sessions(self) -> list[Session]:
        """The live (non-terminal) sessions.  Terminal ones belong to
        whoever holds them from :meth:`submit`; the server keeps only
        their count (``stats()["finished"]``), so its memory does not
        grow with the requests it has served."""
        with self._lock:
            out: list[Session] = []
            for session in (list(self._queue) + list(self._scheduled)
                            + list(self._parked)):
                out.append(session)
                out.extend(session._followers)
            return out

    def stats(self) -> dict[str, Any]:
        with self._lock:
            running = sum(1 for s in self._scheduled
                          if s.state is SessionState.RUNNING)
            resumable = sum(1 for s in self._scheduled
                            if s.state is SessionState.RESUMABLE)
            return {
                **self.counters,
                "queued": len(self._queue),
                "running": running,
                "preempted": len(self._scheduled) - running - resumable,
                "resumable": resumable + len(self._parked),
                # terminal sessions are counted, never kept: each one
                # ended in exactly one of these four counters
                "finished": sum(self.counters[name] for name in (
                    "completed", "cancelled", "failed", "shed")),
                "subscribers": sum(
                    len(s._followers)
                    for s in list(self._queue) + self._scheduled),
                "memo_size": len(self._memo),
                "slots": self.slots,
                "queue_limit": self.queue_limit,
                "policy": self.policy.name,
                "executor": self.executor,
            }

    # -- scheduler thread ------------------------------------------------

    def _loop(self) -> None:
        with self._lock:
            while not self._stop_loop:
                try:
                    self._tick(_time.monotonic())
                except Exception:
                    # A tick must never kill the serving thread; broken
                    # sessions are failed individually in _tick.
                    pass
                # the tick paces harvesting of running work; a new
                # submission does not wait it out (the wait releases
                # the lock, submit() notifies)
                self._wake.wait(timeout=self.tick_s)

    def _tick(self, now: float) -> None:
        if self._memo:
            for key in [k for k, (expires_at, _) in self._memo.items()
                        if now >= expires_at]:
                del self._memo[key]
        self._harvest(now)
        self._unpark(now)
        self._fill_slots(now)
        self._preempt(now)

    def _harvest(self, now: float) -> None:
        """Retire runs that ended, expired, got cancelled or met
        target, and detach coalesced subscribers whose own SLO
        resolved."""
        for session in list(self._queue):
            if not session._cancel_requested:
                self._detach_due(session, now, slo=False)
                continue
            self._queue.remove(session)
            self._space.notify_all()
            # the queued run survives for its first live subscriber
            self._hand_off(session, now, into_queue=True)
            self._end(session, SessionState.CANCELLED, session.snapshot(),
                      now)
        for session in list(self._scheduled):
            self._detach_due(session, now)
            if session._cancel_requested:
                self._retire(session, SessionState.CANCELLED, now,
                             whole_run=False)
                continue
            if (error := session.metric_error()) is not None:
                self._retire(session, SessionState.FAILED, now,
                             whole_run=False, errors=(error,))
                continue
            handle = session._handle
            if handle is None:
                # suspended to disk: the snapshot pinned at suspend time
                # answers this session's own deadline or target
                if session.deadline_passed(now) or session.target_met():
                    self._retire(session, SessionState.COMPLETED, now,
                                 whole_run=False)
                continue
            subscribers = [session] + session._followers
            # a deferred metric whose reference is still being computed
            # would block this thread: scoring and retiring a finished
            # run wait for it a tick at a time, a deadline does not
            scorable = all(s.metric_ready() for s in subscribers)
            if handle.finished:
                if scorable or session.deadline_passed(now):
                    self._retire(session, SessionState.COMPLETED, now)
                continue
            if session.deadline_passed(now):
                self._retire(session, SessionState.COMPLETED, now,
                             whole_run=False)
                continue
            if session.state is not SessionState.RUNNING or not scorable:
                continue
            if any(s.metric is not None and s.slo.target_db is not None
                   for s in subscribers):
                snap = handle.snapshot()
                for s in subscribers:
                    if s.metric is None or s.slo.target_db is None:
                        continue
                    if snap.version > s._last_version \
                            and snap.value is not None:
                        s._last_version = snap.version
                        try:
                            s._last_snr = float(s.metric(snap.value))
                        except Exception:
                            s._last_snr = None
            for follower in list(session._followers):
                if follower.target_met():
                    self._end(follower, SessionState.COMPLETED,
                              session.snapshot(), now, interrupted=True)
            if session.target_met():
                self._retire(session, SessionState.COMPLETED, now,
                             whole_run=False)

    def _ready(self) -> list[Session]:
        return list(self._queue) + [
            s for s in self._scheduled
            if s.state in (SessionState.PREEMPTED,
                           SessionState.RESUMABLE)]

    def _running(self) -> list[Session]:
        return [s for s in self._scheduled
                if s.state is SessionState.RUNNING]

    def _fill_slots(self, now: float) -> None:
        free = self.slots - len(self._running())
        while free > 0:
            ready = self._ready()
            if not ready:
                return
            starving = [s for s in ready
                        if now - s._ready_since >= self.starvation_s]
            if starving:
                chosen = min(starving, key=lambda s: s._ready_since)
            else:
                chosen = self.policy.rank_ready(ready, now)[0]
            self._grant(chosen, now)
            free -= 1

    def _preempt(self, now: float) -> None:
        """Rotate a past-quantum runner out when ready work wants in."""
        ready = self._ready()
        if not ready or self.slots > len(self._running()):
            return
        candidates = [
            s for s in self._running()
            if s._dispatched_at is not None
            and now - s._dispatched_at >= self.quantum_s]
        victim = self.policy.pick_victim(candidates, ready, now)
        if victim is None:
            return
        assert victim._handle is not None
        if self.resume_dir is not None and self._suspend(victim, now):
            self._fill_slots(now)
            return
        victim._handle.pause()
        victim._run_s += now - (victim._dispatched_at or now)
        victim._dispatched_at = None
        victim._ready_since = now
        victim._state = SessionState.PREEMPTED
        victim._preemptions += 1
        self.counters["preemptions"] += 1
        self._trace("server.preempt", victim, now,
                    run_s=round(victim._run_s, 6))
        self._fill_slots(now)

    # -- suspend-and-resume (resume_dir mode) ----------------------------

    def _ckpt_file(self, session: Session) -> str:
        """Checkpoint path of a session: keyed requests get a stable
        key-derived name (so a fleet router can find a dead worker's
        checkpoints), anonymous ones their name+sid."""
        assert self.resume_dir is not None
        name = (ckpt_filename(session.key) if session.key is not None
                else f"{session.name}-{session.sid}.rck")
        return os.path.join(self.resume_dir, name)

    def _discard_ckpt(self, session: Session) -> None:
        if session._ckpt_path is not None:
            try:
                os.unlink(session._ckpt_path)
            except OSError:
                pass
        session._ckpt_path = None
        session._parked_snapshot = None

    def _park(self, session: Session, now: float) -> None:
        """Hold a would-be-shed submission as RESUMABLE; it re-queues
        at the next tick with admission space."""
        session._state = SessionState.RESUMABLE
        session._ready_since = now
        self._parked.append(session)
        self.counters["parked"] += 1
        self._trace("server.park", session, now,
                    parked_depth=len(self._parked))

    def _unpark(self, now: float) -> None:
        while self._parked and len(self._queue) < self.queue_limit:
            session = self._parked.popleft()
            if session._cancel_requested:
                self._end(session, SessionState.CANCELLED,
                          session.snapshot(), now)
                continue
            session._state = SessionState.QUEUED
            session._ready_since = now
            self._queue.append(session)
            self.counters["requeued"] += 1
            self._trace("server.requeue", session, now,
                        queue_depth=len(self._queue))

    def _suspend(self, session: Session, now: float) -> bool:
        """Checkpoint a running session to disk and tear its executor
        down entirely, turning paused-in-memory preemption into
        RESUMABLE-on-disk.  False = checkpoint failed; the caller falls
        back to a plain pause."""
        handle = session._handle
        assert handle is not None
        if handle.finished:
            return False   # harvest will complete it next tick
        path = self._ckpt_file(session)
        try:
            handle.checkpoint(path)
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            return False
        try:
            if not handle.finished:
                handle.request_stop()
            handle.result(timeout_s=self._grace_s)
        except Exception:
            pass   # the executor is being discarded either way
        session._parked_snapshot = handle.snapshot()
        session._handle = None
        session._ckpt_path = path
        session._run_s += now - (session._dispatched_at or now)
        session._dispatched_at = None
        session._ready_since = now
        session._state = SessionState.RESUMABLE
        session._preemptions += 1
        self.counters["preemptions"] += 1
        self.counters["suspends"] += 1
        self._trace("server.suspend", session, now, path=path,
                    version=session._parked_snapshot.version)
        return True

    def _grant(self, session: Session, now: float) -> None:
        """Give one slot to a ready session (launch, resume, or
        restore-from-checkpoint)."""
        if session.state is SessionState.PREEMPTED:
            assert session._handle is not None
            session._handle.resume()
            session._state = SessionState.RUNNING
            session._dispatched_at = now
            self.counters["resumes"] += 1
            self._trace("server.resume", session, now)
            return
        from_ckpt = session._ckpt_path
        if from_ckpt is None:
            self._queue.remove(session)
            self._space.notify_all()
        try:
            if from_ckpt is not None:
                from ..core.automaton import AnytimeAutomaton
                automaton = AnytimeAutomaton.restore(
                    from_ckpt, builder=session.builder)
            else:
                automaton = session.builder()
            if self.coalesce and session.key is not None:
                # A shared run must outlive the primary whenever a
                # later subscriber still needs it, so keyed runs carry
                # no compiled stop condition; each subscriber's
                # deadline/target is enforced at harvest instead.
                stop = None
            else:
                stop = session.slo.stop_condition(
                    now - session.submitted_at, session.metric)
            sink = session.trace if session.trace is not None \
                else self._sink
            if self.executor == "process":
                handle = automaton.launch_processes(
                    stop=stop, faults=session.faults,
                    injector=self._injector, trace=sink,
                    grace_s=self._grace_s)
            else:
                handle = automaton.launch_threaded(
                    stop=stop, faults=session.faults,
                    injector=self._injector, trace=sink)
        except Exception as exc:
            # a broken builder (or unreadable checkpoint) fails only
            # this request; subscribers get requeued under their own
            # builders
            self._hand_off(session, now, into_queue=True)
            if session in self._scheduled:
                self._scheduled.remove(session)
            self._discard_ckpt(session)
            self._end(session, SessionState.FAILED, session.snapshot(),
                      now, errors=(f"{type(exc).__name__}: {exc}",))
            return
        session._handle = handle
        session._state = SessionState.RUNNING
        if session._first_run_at is None:
            session._first_run_at = now
        session._dispatched_at = now
        if from_ckpt is not None:
            # the run is back in memory; its on-disk state is consumed
            self._discard_ckpt(session)
            session._restores += 1
            self.counters["restores"] += 1
            self._trace("server.restore_ckpt", session, now)
            return
        self.counters["admitted"] += 1
        self._scheduled.append(session)
        self._trace("server.admit", session, now,
                    queued_s=round(now - session.submitted_at, 6))

    # -- ending a request ------------------------------------------------

    def _end(self, session: Session, state: SessionState,
             snapshot: Snapshot, now: float, *, interrupted: bool = False,
             degraded: bool = False, errors: tuple[str, ...] = (),
             run_result: Any = None, **trace_args: Any) -> None:
        """The one way a session turns terminal.

        Subscribers still on ``session``'s run end with it: same
        snapshot, outcome, ``degraded`` flag and errors.  Two rules hold
        for everyone: a cancel the client asked for outranks the
        caller's outcome, and a completion with no output version is a
        failure.  Each session's own metric scores the snapshot; the
        outcome is counted (plus ``detaches`` for a subscriber leaving
        a run it does not own) and traced.
        """
        for follower in list(session._followers):
            self._end(follower, state, snapshot, now,
                      interrupted=interrupted, degraded=degraded,
                      errors=errors)
        if session._cancel_requested:
            state = SessionState.CANCELLED
        elif state is SessionState.COMPLETED and snapshot.version == 0:
            state = SessionState.FAILED
        primary = session._primary
        if primary is not None:
            primary._followers.remove(session)
            self.counters["detaches"] += 1
            kind = "server.detach"
            trace_args["primary"] = primary.name
        elif session._memo_hit:
            kind = "server.memo_hit"
        else:
            kind = {SessionState.CANCELLED: "server.cancel",
                    SessionState.SHED: "server.shed"}.get(
                        state, "server.complete")
        session._terminalize(
            state, snapshot, now, snr_db=self._snr_of(session, snapshot),
            interrupted=interrupted or state is SessionState.CANCELLED,
            degraded=degraded, errors=errors, run_result=run_result)
        self.counters[state.value] += 1
        self._trace(kind, session, now, state=state.value,
                    version=snapshot.version,
                    latency_s=round(now - session.submitted_at, 6),
                    **trace_args)

    def _detach_due(self, session: Session, now: float,
                    slo: bool = True) -> None:
        """End the subscribers of ``session``'s run that cancelled or,
        with ``slo``, whose own metric failed or deadline passed, each
        on the run's newest snapshot; the run goes on."""
        for follower in list(session._followers):
            error = follower.metric_error() if slo else None
            if follower._cancel_requested:
                state = SessionState.CANCELLED
            elif error is not None:
                state = SessionState.FAILED
            elif slo and follower.deadline_passed(now):
                state = SessionState.COMPLETED
            else:
                continue
            self._end(follower, state, session.snapshot(), now,
                      interrupted=True,
                      errors=() if error is None else (error,))

    def _hand_off(self, session: Session, now: float,
                  into_queue: bool = False) -> bool:
        """Make ``session``'s first live subscriber the primary of its
        run; cancelled subscribers end on the way.  False if none is
        left, and the run is the caller's to stop.

        ``into_queue`` requeues the heir under its own builder (the run
        never started, or cannot).  Otherwise the heir inherits the run
        as it stands, a live or paused handle or the on-disk checkpoint
        of a suspended one, and ``session``'s place among the scheduled.
        """
        self._detach_due(session, now, slo=False)
        if not session._followers:
            return False
        heir, *rest = session._followers
        if into_queue:
            heir._ready_since = now
            self._queue.append(heir)
        else:
            heir._state = session._state
            heir._handle = session._handle
            heir._ckpt_path = session._ckpt_path
            heir._parked_snapshot = session._parked_snapshot
            heir._dispatched_at = session._dispatched_at
            heir._run_s = session._run_s
            heir._ready_since = session._ready_since
            if heir._first_run_at is None:
                heir._first_run_at = session._first_run_at
            self._scheduled[self._scheduled.index(session)] = heir
        # unlinked last: until now the heir's state read the run's
        session._followers = []
        heir._primary = None
        heir._followers = rest
        for follower in rest:
            follower._primary = heir
        self.counters["promotions"] += 1
        self._trace("server.promote", heir, now, primary=session.name,
                    queued=into_queue)
        return True

    def _retire(self, session: Session, state: SessionState, now: float,
                whole_run: bool = True,
                errors: tuple[str, ...] = ()) -> None:
        """End a scheduled session, whether its run is in memory (a
        handle) or suspended to disk (none).

        ``whole_run=False`` means only *this* session's own SLO resolved
        (deadline, target, cancel, metric error): if a live subscriber
        inherits the run, the session leaves with the snapshot pinned
        now, and the run continues until its most-demanding live
        subscriber is satisfied.  Otherwise the run is stopped and
        harvested (a suspended one's checkpoint discarded) and every
        subscriber settles on its snapshot.
        """
        if not whole_run:
            pinned = session.snapshot()
            if self._hand_off(session, now):
                self._end(session, state, pinned, now, interrupted=True,
                          errors=errors)
                return
        self._scheduled.remove(session)
        handle = session._handle
        interrupted = not whole_run
        degraded = False
        run_result = None
        if handle is None:
            snapshot = session.snapshot()   # pinned at suspend time
            self._discard_ckpt(session)
        else:
            if not handle.finished:
                # Deadline, met target, or cancellation of a live run:
                # stop it now so the harvest below is bounded by
                # wind-down time, not by grace_s.  (A naturally finished
                # run is left alone so its result is not misreported as
                # stopped early.)
                handle.request_stop()
            if session._dispatched_at is not None:
                session._run_s += now - session._dispatched_at
                session._dispatched_at = None
            try:
                run_result = handle.result(timeout_s=self._grace_s)
                interrupted = interrupted or run_result.stopped_early
                degraded = bool(run_result.degraded_stages
                                or run_result.failed_stages)
                errors += tuple(f"{stage}: {exc!r}"
                                for stage, exc in run_result.errors)
            except Exception as exc:
                errors += (f"{type(exc).__name__}: {exc}",)
            snapshot = handle.snapshot()
        if state is SessionState.COMPLETED and not interrupted:
            self._memoize(session.key, snapshot, now)
        self._end(session, state, snapshot, now, interrupted=interrupted,
                  degraded=degraded, errors=errors, run_result=run_result)

    def _shed(self, session: Session, now: float, reason: str) -> None:
        self._end(session, SessionState.SHED, session.snapshot(), now,
                  reason=reason, queue_depth=len(self._queue))

    def _trace(self, kind: str, session: Session, now: float,
               **extra: Any) -> None:
        if self._sink is None:
            return
        try:
            self._sink.emit(TraceEvent(
                ts=now - self._t0, kind=kind, stage=session.name,
                args={"sid": session.sid, **extra}))
        except Exception:
            pass
