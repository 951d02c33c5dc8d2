"""The anytime serving layer: many requests, few slots, every answer valid.

:class:`AnytimeServer` multiplexes concurrent automaton runs over a
bounded pool of executor slots.  It inverts the repo's original control
flow: executors no longer own the run loop — each admitted run is
``launch()``-ed into a :class:`~repro.core.executor.RunHandle` and
becomes a schedulable resource the server can pause, resume, stop and
harvest at any tick.  What the server schedules is the *run*
(:class:`~repro.serve.session._Run`), not the request: requests for
the same work subscribe to one run, and each leaves it on its own
terms (see :mod:`repro.serve.session`).  The anytime properties are
what make this serving model cheap and safe:

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
        │                 │                  └──> COMPLETED/…
        │                 └─(held)─precise value─> COMPLETED (v1)
        └──shed (queue full)──> SHED

The scheduler thread ticks at once when a request is submitted,
cancelled or streamed, a deferred metric's precise value comes in, a
running run publishes or seals a version of its watched terminal
buffer, or a run ends (:meth:`~repro.core.executor.RunHandle.watch`).
``tick_s`` only paces deadlines and quanta, and the thread takes that
clock wait only while something is paced (:meth:`_pace`); otherwise it
sleeps until the next memo entry expires, or until woken.  Its harvest
is the one place an SLO is judged: each subscriber whose deadline
passed, whose target its metric meets, or who cancelled leaves its
run, and a run ends when it finishes or its last subscriber leaves
(runs carry no stop condition of their own).  A run also ends when its
lead's metric offers the precise value first: the precise kernel,
computed beside the run, races the ladder, and a run that has not
finished by itself answers with that value as its final version
(``precise_wins``).  The ladder can only answer first for a subscriber
that takes an unscored version: one with a deadline or a stream, or a
lead with a per-request trace sink (the run traces to its lead's sink
alone).  A queued run with none of these is *held*
(:attr:`~repro.serve.session._Run.held`): it stays queued, is not
launched, and the precise value answers it at version 1, so the
precise pass does not share the process with a ladder that cannot
answer first.  A subscriber that joins with a deadline or streams
makes the run launchable, and a precise pass that fails fails the
request.  The tick then fills free slots from the ready pool (queued
runs that are not held, and preempted ones; policy-ranked, with a
starvation guard) and preempts past-quantum runners when ready work
would gain more.  Admission applies backpressure (``submit(wait_s=…)``
blocks while the queue is full) and sheds what it cannot hold.  Three
things are fixed rather than settable: a request that brings no fault
policy degrades (:data:`DEFAULT_FAULTS`), a stopped run gets
:data:`GRACE_S` to wind down, and the starvation guard waits
:data:`STARVATION_QUANTA` quanta.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time as _time
import weakref
from collections import deque
from typing import Any, Callable

from ..core.backends import executor_class, executor_names
from ..core.buffer import Snapshot
from ..core.faults import FaultInjector, FaultPolicy
from ..core.memory import keep_freed_pages
from ..core.tracing import TraceEvent, TraceSink
from .digest import ckpt_filename
from .scheduler import FairSharePolicy, ServePolicy
from .session import Session, SessionState, _Run
from .slo import SLO

__all__ = ["AnytimeServer", "shutdown_all_servers"]

#: fault policy of a request that brings none: graceful degradation,
#: so one faulty request cannot take the server down with a raise
DEFAULT_FAULTS = FaultPolicy(on_failure="degrade")

#: how long a harvest waits for a stopped run to wind down
GRACE_S = 5.0

#: the starvation guard: a ready run older than this many quanta
#: (``quantum_s``) is granted the next slot whatever the policy ranks
STARVATION_QUANTA = 50

#: ``AnytimeServer._last_score`` when no score is kept
_NO_SCORE: tuple[Any, Any, tuple | None, float | None] = (
    None, None, None, None)

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
        The name of a wall-clock executor in
        :data:`~repro.core.backends.EXECUTORS`: ``"threaded"``
        (in-process stage threads, the default) or ``"process"`` (one
        forked worker per stage; POSIX only).
    policy:
        Slot-allocation policy; default :class:`FairSharePolicy`.
    quantum_s:
        Minimum slot tenure before a run becomes preemptible.
    tick_s:
        Longest the scheduler sleeps between ticks while a deadline or
        a quantum may come due.  Submissions, cancels, streams,
        arriving precise values, new versions and ended runs wake it at
        once; with nothing paced it takes no clock wait.
    trace:
        Optional :class:`~repro.core.tracing.TraceSink` receiving
        ``server.*`` events (stage = request name) alongside whatever
        per-run events the executors emit.
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
                 injector: FaultInjector | None = None,
                 trace: TraceSink | None = None,
                 coalesce: bool = True,
                 memo_ttl_s: float = 0.0,
                 resume_dir: str | None = None) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive: {slots}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit cannot be negative: {queue_limit}")
        if not executor_class(executor).WALL_CLOCK:
            raise ValueError(
                f"executor {executor!r} runs in virtual time; serve on "
                f"one of {', '.join(executor_names(WALL_CLOCK=True))}")
        if quantum_s <= 0 or tick_s <= 0:
            raise ValueError("quantum_s and tick_s must be positive")
        self.slots = slots
        self.queue_limit = queue_limit
        self.executor = executor
        self.policy = policy or FairSharePolicy()
        self.quantum_s = quantum_s
        self.tick_s = tick_s
        self._injector = injector
        self._sink = trace
        if memo_ttl_s < 0:
            raise ValueError(f"memo_ttl_s cannot be negative: {memo_ttl_s}")
        self.coalesce = bool(coalesce)
        self.memo_ttl_s = float(memo_ttl_s)
        self._memo: dict[str, tuple[float, Snapshot]] = {}
        #: the last score: (metric, value, (buffer name, version,
        #: final), SNR); forgotten once its run ends (see :meth:`_snr_of`)
        self._last_score: tuple[Any, Any, tuple | None,
                                float | None] = _NO_SCORE
        self.resume_dir = resume_dir
        if resume_dir is not None:
            os.makedirs(resume_dir, exist_ok=True)

        self._lock = threading.RLock()
        self._space = threading.Condition(self._lock)
        # set by whatever should not wait out the tick: a submission, a
        # cancel or a stream, a deferred metric's precise value coming
        # in, a running run's new version or its end, a shutdown; set
        # without the lock, so a calibrate thread, a client or a
        # stage never waits on a scheduler that may be waiting on it
        self._wake = threading.Event()
        self._queue: deque[_Run] = deque()
        self._scheduled: list[_Run] = []   # RUNNING+PREEMPTED+RESUMABLE
        self._parked: deque[_Run] = deque()  # would-be-shed, waiting
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
            "precise_wins": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "AnytimeServer":
        """Start the scheduler thread and begin accepting requests.  The
        process's allocator policy is set first, before any thread of
        the server's starts."""
        keep_freed_pages()
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
        deadline = (None if timeout_s is None
                    else _time.monotonic() + timeout_s)
        with self._lock:
            self._accepting = False
            self._space.notify_all()
            # _finish notifies each time a run leaves
            while self._queue or self._scheduled or self._parked:
                remaining = (None if deadline is None
                             else deadline - _time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._space.wait(timeout=remaining)
            return True

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
            self._wake.set()
        if thread is not None:
            thread.join(timeout=timeout_s)
        with self._lock:
            now = _time.monotonic()
            for run in (list(self._queue) + list(self._parked)
                        + list(self._scheduled)):
                self._finish(run, SessionState.CANCELLED, now)
            self._thread = None
        _LIVE_SERVERS.discard(self)

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
        that error.  Its optional ``on_ready(fn)`` calls ``fn()`` once
        the reference and any precise value are in, which wakes the
        scheduler then rather than a tick later; a held run whose
        metric has none is paced by ``tick_s``.  A metric that races
        has a ``precise`` attribute: None until the run's precise
        terminal value, computed beside the run, is in, then that
        value, which the metric must score ∞ (the server takes that
        score without a call).  A run that has not finished by itself
        when its lead's metric offers it ends at once on it (see
        :meth:`_race`).  A request whose racing metric offers neither
        that value nor an error yet, that has no deadline and is not
        streamed, can only be answered by that value, unless it leads
        its run with a ``trace``: the run is held in the queue, not
        launched, until the precise value ends it, its ``error`` fails
        it, or a subscriber that can take a ladder version joins (see
        :attr:`~repro.serve.session._Run.held`).
        ``wait_s`` is the backpressure budget: how long to block while
        the admission queue is full before giving up; on a still-full
        queue the request is returned in the terminal ``SHED`` state.

        ``key`` is the request's work identity (canonically
        :func:`repro.serve.digest.input_digest`).  When coalescing is
        on, a keyed request whose key matches a queued or running
        request attaches to that run as a *subscriber* instead of
        consuming queue space and a slot of its own; it leaves at its
        own deadline/target with the run's newest sealed snapshot.  A
        keyed request matching a fresh memoized final result completes
        immediately without running.

        ``trace`` attaches a per-request sink (e.g. a conformance
        :class:`~repro.check.invariants.Checker`) to the runs this
        request leads, overriding the server-wide sink; it sees nothing
        when the request is answered by the memo or joins a run another
        request launched.
        """
        if metric is not None and not callable(metric):
            raise TypeError(f"metric must be callable or None, got "
                            f"{type(metric).__name__}")
        slo = slo or SLO()
        on_ready = getattr(metric, "on_ready", None)
        if on_ready is not None:
            on_ready(self._wake.set)
        now = _time.monotonic()
        with self._lock:
            self.counters["submitted"] += 1
            sid = next(self._ids)
            session = Session(
                sid=sid, name=name or f"req-{sid}", builder=builder,
                slo=slo, metric=metric, submitted_at=now, key=key,
                trace=trace,
                faults=faults if faults is not None else DEFAULT_FAULTS)
            session._wake = self._wake.set
            if not self._accepting:
                self._shed(session, now, reason="not-accepting")
                return session
            if self.coalesce and key is not None and (
                    self._memo_answer(session, now)
                    or self._join(session, now)):
                return session
            if len(self._queue) >= self.queue_limit and wait_s > 0.0:
                deadline = now + wait_s
                while (len(self._queue) >= self.queue_limit
                       and self._accepting):
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        break
                    self._space.wait(timeout=remaining)
            now = _time.monotonic()
            if not self._accepting:
                self._shed(session, now, reason="not-accepting")
                return session
            # a matching run may have appeared while we waited
            if self.coalesce and key is not None \
                    and self._join(session, now):
                return session
            full = len(self._queue) >= self.queue_limit
            if full and self.resume_dir is None:
                self._shed(session, now, reason="queue-full")
                return session
            run = session._run = _Run([session], _ready_since=now)
            if full:
                self._park(run, now)
                return session
            self._queue.append(run)
            self._trace("server.enqueue", run, now,
                        queue_depth=len(self._queue))
            self._wake.set()
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
        self._last_score = _NO_SCORE
        return True

    def _join(self, session: Session, now: float) -> bool:
        """Subscribe ``session`` to a live run of its key; True if
        there was one.  Its :attr:`~Session.state` is the run's from
        here on."""
        for run in itertools.chain(self._scheduled, self._queue):
            if run.key == session.key and not all(
                    s._cancel_requested for s in run.subscribers):
                break
        else:
            return False
        session._run = run
        session._coalesced = True
        if run._first_run_at is not None:
            session._first_run_at = now   # the run is under way
        run.subscribers.append(session)
        self.counters["coalesced"] += 1
        self._trace("server.coalesce", session, now, primary=run.name,
                    subscribers=len(run.subscribers))
        # a subscriber that can take a ladder version ends a hold
        self._wake.set()
        return True

    def _snr_of(self, session: Session,
                snapshot: Snapshot) -> float | None:
        """``session``'s metric on ``snapshot``.  A version scored
        last with the same metric is not scored again: not by the
        subscribers settling on it, nor when the request the harvest
        scored it for ends on it.  Each ``snapshot()`` is a new object,
        but every snapshot of one version of one run holds the same
        value object, so that value names it, with the version and
        its finality.  Runs that share a metric and a buffer name
        reach the same version with different values; the value
        keeps one run's score from answering for another's.  The
        metric's own ``precise`` value scores ∞ without a call.  A
        score is forgotten once the requests that could reuse it are
        answered (a run ended, a memo hit served), so the server keeps
        no answered request's metric or value."""
        if session.metric is None or snapshot.value is None:
            return None
        if snapshot.value is getattr(session.metric, "precise", None):
            return math.inf
        scored = (snapshot.name, snapshot.version, snapshot.final)
        metric, value, last, snr = self._last_score
        if (metric is session.metric and value is snapshot.value
                and last == scored):
            return snr
        try:
            snr = float(session.metric(snapshot.value))
        except Exception:
            snr = None
        self._last_score = (session.metric, snapshot.value, scored, snr)
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
            return [session for run in itertools.chain(
                        self._queue, self._scheduled, self._parked)
                    for session in run.subscribers]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            running = sum(1 for run in self._scheduled
                          if run._state is SessionState.RUNNING)
            resumable = sum(1 for run in self._scheduled
                            if run._state is SessionState.RESUMABLE)
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
                    len(run.subscribers) - 1
                    for run in itertools.chain(self._queue,
                                               self._scheduled)),
                "memo_size": len(self._memo),
                "slots": self.slots,
                "queue_limit": self.queue_limit,
                "policy": self.policy.name,
                "executor": self.executor,
            }

    # -- scheduler thread ------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._lock:
                if self._stop_loop:
                    return
                # cleared before the tick: a wake during it ticks again
                self._wake.clear()
                try:
                    self._tick(_time.monotonic())
                    timeout = self._pace(_time.monotonic())
                except Exception:
                    # A tick must never kill the serving thread; broken
                    # sessions are failed individually in _tick.
                    timeout = self.tick_s
            # a submission, an arriving precise value, a new version or
            # a run's end does not wait out the timeout
            self._wake.wait(timeout=timeout)

    def _pace(self, now: float) -> float | None:
        """How long the scheduler may sleep before its next tick.

        ``tick_s`` while something is paced: a scheduled or parked
        run (deadlines, quanta, space to re-queue), a queued run that
        is not held (a slot, a deadline), or a held run with a metric
        that has no ``on_ready`` to wake the scheduler when its
        precise value comes in.  Otherwise every change sets the wake,
        so the thread sleeps until the earliest memo entry expires, or
        for good with an empty memo.
        """
        if self._scheduled or self._parked or any(
                not run.held or any(
                    getattr(s.metric, "on_ready", None) is None
                    for s in run.subscribers)
                for run in self._queue):
            return self.tick_s
        if self._memo:
            return max(0.0, min(expires_at for expires_at, _
                                in self._memo.values()) - now)
        return None

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
        """Judge every request: the one place an SLO is judged.

        A run whose precise value came in first ends on it
        (:meth:`_race`).  Otherwise a subscriber leaves its run once it
        cancelled or its metric failed and, while the run is scheduled,
        once its own deadline passed or its metric meets its target on
        the run's newest version.  A run that finished by itself ends
        with all its subscribers.  A deferred metric whose reference is
        still being computed would block this thread: scoring and
        finishing a run wait for a tick that finds it in (its
        ``on_ready`` wakes one), a deadline does not.
        """
        for run in list(self._queue) + list(self._parked):
            if not self._race(run, now):
                self._release(run, now, slo=False)
        for run in list(self._scheduled):
            if run.finished:
                if all(s.metric_ready() or s.deadline_passed(now)
                       for s in run.subscribers):
                    self._finish(run, SessionState.COMPLETED, now)
                    continue
            elif self._race(run, now):
                continue
            handle = run._handle
            if run._state is SessionState.RUNNING and all(
                    s.metric_ready() for s in run.subscribers):
                assert handle is not None
                snap = None
                for s in run.subscribers:
                    if s.metric is None or s.slo.target_db is None:
                        continue
                    if snap is None:
                        snap = handle.snapshot()
                    if snap.version > s._last_version \
                            and snap.value is not None:
                        s._last_version = snap.version
                        s._last_snr = self._snr_of(s, snap)
            self._release(run, now)

    def _ready(self) -> list[_Run]:
        """Runs that want a slot: queued ones not held for their
        precise value, and preempted or suspended ones with work left (a
        run that finished by itself needs no slot; the harvest ends it
        once it is scored)."""
        return [run for run in self._queue if not run.held] + [
            run for run in self._scheduled
            if run._state in (SessionState.PREEMPTED,
                              SessionState.RESUMABLE)
            and not run.finished]

    def _running(self) -> list[_Run]:
        return [run for run in self._scheduled
                if run._state is SessionState.RUNNING]

    def _fill_slots(self, now: float) -> None:
        free = self.slots - len(self._running())
        starved_s = STARVATION_QUANTA * self.quantum_s
        while free > 0:
            ready = self._ready()
            if not ready:
                return
            starving = [run for run in ready
                        if now - run._ready_since >= starved_s]
            if starving:
                chosen = min(starving, key=lambda run: run._ready_since)
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
            run for run in self._running()
            if run._dispatched_at is not None
            and now - run._dispatched_at >= self.quantum_s
            # holding its final and scoreable, a run leaves at the next
            # harvest: preempting it would only suspend a run that
            # nothing restores
            and not (run.snapshot().final
                     and all(s.metric_ready() for s in run.subscribers))]
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

    def _ckpt_file(self, run: _Run) -> str:
        """Checkpoint path of a run: keyed runs get a stable
        key-derived name (so a fleet router can find a dead worker's
        checkpoints), anonymous ones their lead's name+sid."""
        assert self.resume_dir is not None
        name = (ckpt_filename(run.key) if run.key is not None
                else f"{run.name}-{run.sid}.rck")
        return os.path.join(self.resume_dir, name)

    def _discard_ckpt(self, run: _Run) -> None:
        if run._ckpt_path is not None:
            try:
                os.unlink(run._ckpt_path)
            except OSError:
                pass
        run._ckpt_path = None
        run._parked_snapshot = None

    def _park(self, run: _Run, now: float) -> None:
        """Hold a would-be-shed submission as RESUMABLE; it re-queues
        at the next tick with admission space."""
        run._state = SessionState.RESUMABLE
        self._parked.append(run)
        self.counters["parked"] += 1
        self._trace("server.park", run, now,
                    parked_depth=len(self._parked))

    def _unpark(self, now: float) -> None:
        while self._parked and len(self._queue) < self.queue_limit:
            run = self._parked.popleft()
            run._state = SessionState.QUEUED
            run._ready_since = now
            self._queue.append(run)
            self.counters["requeued"] += 1
            self._trace("server.requeue", run, now,
                        queue_depth=len(self._queue))

    def _suspend(self, run: _Run, now: float) -> bool:
        """Checkpoint a running run to disk and tear its executor down
        entirely, turning paused-in-memory preemption into
        RESUMABLE-on-disk.  False = checkpoint failed; the caller falls
        back to a plain pause.  A run that finished by itself is only
        preempted while its metric waits for its reference; it goes to
        disk holding its final, and the harvest completes it from
        there."""
        handle = run._handle
        assert handle is not None
        path = self._ckpt_file(run)
        # paused first, so the run does not race on to versions the
        # checkpoint will not hold while the file is written
        handle.pause()
        try:
            handle.checkpoint(path)
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            return False
        handle.unwatch(self._wake)
        try:
            if not handle.finished:
                handle.request_stop()
            handle.result(timeout_s=GRACE_S)
        except Exception:
            pass   # the executor is being discarded either way
        run._parked_snapshot = handle.snapshot()
        run._handle = None
        run._ckpt_path = path
        run._run_s += now - (run._dispatched_at or now)
        run._dispatched_at = None
        run._ready_since = now
        run._state = SessionState.RESUMABLE
        run._preemptions += 1
        self.counters["preemptions"] += 1
        self.counters["suspends"] += 1
        self._trace("server.suspend", run, now, path=path,
                    version=run._parked_snapshot.version)
        return True

    def _grant(self, run: _Run, now: float) -> None:
        """Give one slot to a ready run (launch, resume, or
        restore-from-checkpoint) under its lead's builder, faults and
        trace sink."""
        if run._state is SessionState.PREEMPTED:
            assert run._handle is not None
            run._handle.resume()
            run._state = SessionState.RUNNING
            run._dispatched_at = now
            self.counters["resumes"] += 1
            self._trace("server.resume", run, now)
            return
        from_ckpt = run._ckpt_path
        if from_ckpt is None:
            self._queue.remove(run)
            self._space.notify_all()
        lead = run.lead
        try:
            if from_ckpt is not None:
                from ..core.automaton import AnytimeAutomaton
                automaton = AnytimeAutomaton.restore(
                    from_ckpt, builder=lead.builder)
            else:
                automaton = lead.builder()
            handle = automaton.launch(
                self.executor, faults=lead.faults, injector=self._injector,
                trace=lead.trace if lead.trace is not None else self._sink)
        except Exception as exc:
            # a broken builder (or unreadable checkpoint) fails only the
            # lead; the run re-queues under its next subscriber's builder
            if from_ckpt is not None:
                self._scheduled.remove(run)
                self._discard_ckpt(run)
            run._state = SessionState.QUEUED
            run._ready_since = now
            self._queue.append(run)
            self._leave(run, lead, SessionState.FAILED, now,
                        errors=(f"{type(exc).__name__}: {exc}",))
            return
        run._handle = handle
        # every version and the run's end wake the harvest
        handle.watch(self._wake)
        run._state = SessionState.RUNNING
        if run._first_run_at is None:
            run._first_run_at = now
        run._dispatched_at = now
        if from_ckpt is not None:
            # the run is back in memory; its on-disk state is consumed
            self._discard_ckpt(run)
            run._restores += 1
            self.counters["restores"] += 1
            self._trace("server.restore_ckpt", run, now)
            return
        self.counters["admitted"] += 1
        self._scheduled.append(run)
        self._trace("server.admit", run, now,
                    queued_s=round(now - lead.submitted_at, 6))

    # -- ending a request ------------------------------------------------

    def _race(self, run: _Run, now: float) -> bool:
        """End ``run`` on its precise value if its lead's metric
        offers one; True if it did.

        The precise kernel runs beside the ladder as a contract
        algorithm beside an interruptible one, and whichever finishes
        first answers.  The caller has checked that the ladder has not
        finished by itself; when it has, its own final answers.
        """
        precise = getattr(run.lead.metric, "precise", None)
        if precise is None:
            return False
        self._finish(run, SessionState.COMPLETED, now, precise=precise)
        return True

    def _release(self, run: _Run, now: float, slo: bool = True) -> None:
        """Let each subscriber of ``run`` go whose own request
        resolved: it cancelled, its metric failed or, with ``slo``, its
        deadline passed or it met its target.  :meth:`_end` turns the
        outcome into CANCELLED or FAILED where those apply."""
        for session in list(run.subscribers):
            if (session._cancel_requested
                    or session.metric_error() is not None
                    or slo and (session.deadline_passed(now)
                                or session.target_met())):
                self._leave(run, session, SessionState.COMPLETED, now)

    def _leave(self, run: _Run, session: Session, state: SessionState,
               now: float, errors: tuple[str, ...] = ()) -> None:
        """``session`` leaves ``run`` with the run's newest snapshot.
        The last subscriber to leave ends the run; when the lead leaves
        a run that goes on, the next subscriber leads it.  Leaving a
        queued run interrupts nothing."""
        interrupted = run._state is not SessionState.QUEUED
        if len(run.subscribers) == 1:
            self._finish(run, state, now, interrupted=interrupted,
                         errors=errors)
            return
        lead = run.lead
        self._end(session, state, run.snapshot(), now,
                  interrupted=interrupted, errors=errors)
        run.subscribers.remove(session)
        if session is lead:
            self.counters["promotions"] += 1
            self._trace("server.promote", run, now, primary=lead.name,
                        queued=run._state is SessionState.QUEUED)

    def _finish(self, run: _Run, state: SessionState, now: float, *,
                interrupted: bool = False,
                errors: tuple[str, ...] = (),
                precise: Any = None) -> None:
        """End ``run`` with every subscriber still on it.

        A live run is stopped (unless it finished by itself) and
        harvested, a suspended one's checkpoint discarded, a queued or
        parked one dropped.  The subscribers settle on one snapshot,
        outcome, ``degraded`` flag and errors, the lead last, so that
        the others count as ``detaches``.  With ``precise``, the run
        ended on its precise value: the snapshot is that value as
        the final version, one past the ladder's newest, and the
        stopped ladder's flags and errors do not describe it.
        """
        for place in (self._scheduled, self._queue, self._parked):
            if run in place:
                place.remove(run)
        self._space.notify_all()
        handle = run._handle
        degraded = False
        run_result = None
        if handle is None:
            snapshot = run.snapshot()   # pinned at suspend time, or none
            self._discard_ckpt(run)
        else:
            handle.unwatch(self._wake)
            if not handle.finished:
                # Deadline, met target, or cancellation of a live run:
                # stop it now so the harvest below is bounded by
                # wind-down time, not by GRACE_S.  (A naturally finished
                # run is left alone so its result is not misreported as
                # stopped early.)
                handle.request_stop()
            try:
                run_result = handle.result(timeout_s=GRACE_S)
                interrupted = interrupted or run_result.stopped_early
                degraded = bool(run_result.degraded_stages
                                or run_result.failed_stages)
                errors += tuple(f"{stage}: {exc!r}"
                                for stage, exc in run_result.errors)
            except Exception as exc:
                errors += (f"{type(exc).__name__}: {exc}",)
            snapshot = handle.snapshot()
        if precise is not None:
            snapshot = Snapshot(snapshot.name, precise,
                                snapshot.version + 1, True)
            interrupted = degraded = False
            errors = ()
            self.counters["precise_wins"] += 1
            self._trace("server.precise_win", run, now,
                        version=snapshot.version)
        if state is SessionState.COMPLETED and not interrupted:
            self._memoize(run.key, snapshot, now)
        for session in run.subscribers[1:] + run.subscribers[:1]:
            self._end(session, state, snapshot, now,
                      interrupted=interrupted, degraded=degraded,
                      errors=errors, run_result=run_result)
        self._last_score = _NO_SCORE

    def _end(self, session: Session, state: SessionState,
             snapshot: Snapshot, now: float, *, interrupted: bool = False,
             degraded: bool = False, errors: tuple[str, ...] = (),
             run_result: Any = None, **trace_args: Any) -> None:
        """The one way a session turns terminal.

        Three rules hold for everyone: a cancel the client asked for
        outranks the caller's outcome, and a completion whose metric
        failed, or that has no output version, is a failure.  The
        session's own metric scores the snapshot; the outcome is
        counted (plus ``detaches`` for a subscriber leaving a run it
        does not lead) and traced.
        """
        error = session.metric_error()
        if session._cancel_requested:
            state = SessionState.CANCELLED
        elif state is SessionState.COMPLETED and error is not None:
            state = SessionState.FAILED
            errors += (error,)
        elif state is SessionState.COMPLETED and snapshot.version == 0:
            state = SessionState.FAILED
        run = session._run
        if run is not None and session is not run.lead:
            self.counters["detaches"] += 1
            kind = "server.detach"
            trace_args["primary"] = run.name
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

    def _shed(self, session: Session, now: float, reason: str) -> None:
        self._end(session, SessionState.SHED, session.snapshot(), now,
                  reason=reason, queue_depth=len(self._queue))

    def _trace(self, kind: str, who: Session | _Run, now: float,
               **extra: Any) -> None:
        if self._sink is None:
            return
        try:
            self._sink.emit(TraceEvent(
                ts=now - self._t0, kind=kind, stage=who.name,
                args={"sid": who.sid, **extra}))
        except Exception:
            pass
