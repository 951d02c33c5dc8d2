"""Fleet front end: shard anytime requests across worker processes.

:class:`FleetRouter` talks TCP to N :mod:`~repro.serve.fleet` workers —
the ones at its ``endpoints``, else ones it forks on localhost and owns
(:mod:`repro.serve.transport`) — and places each
declarative request ``(app, size, seed, SLO)`` by its canonical work
identity (:func:`~repro.serve.fleet.spec_key`, a hash of the spec
itself: the router never makes an input):

* **Sticky consistent-hash placement.**  A key hashes onto a virtual-
  node ring; identical work therefore lands on the same worker, where
  the server coalesces it onto one shared run, or answers it from the
  input and precise value the worker holds while the key is in
  flight.  An affinity table pins a key to the worker
  that actually took it for :data:`AFFINITY_TTL_S`, so fallback
  decisions stay sticky too.
* **Least-loaded fallback for cold keys.**  A key the fleet has never
  seen may be diverted from its ring home to the least-loaded worker
  when the home holds more than :data:`FALLBACK_MARGIN` requests more
  — cold keys have no run to join, so placement freedom is free
  capacity.
* **Backpressure surfaced to the router.**  Every admission is acked
  with the worker's queue depth; a shed request is retried once on the
  least-loaded other worker before the shed is accepted as final.
* **Worker-death failover, re-spawn, and checkpoint migration.**  A
  dead worker the router started (its link's connection is lost on EOF,
  a reset, a failed write or a garbage frame — the one place a death is
  detected) is
  replaced: a fresh worker is forked at the same index and rejoins the
  consistent-hash ring (the ring maps onto indices, so the replacement
  inherits the dead worker's key range with zero ring churn).  The dead
  worker's in-flight requests are re-dispatched — and when the fleet runs with
  a ``resume_dir``, a request whose run had been suspended to a
  checkpoint (:mod:`repro.ckpt`) *migrates*: the checkpoint is the
  run's reply log, a few KiB at any image size, so the router puts the
  dead worker's last one **inline** in the re-dispatched ``submit``
  frame as its ``resume`` object (no shared filesystem between workers
  assumed) and the run continues from where it stopped instead of
  starting over.  Requests without a readable checkpoint fall back to
  verbatim re-dispatch — requests are specs, not closures, so a re-run
  is safe and its sealed versions are equally valid answers; so does
  one whose ``resume`` the new home cannot replay.  Workers at
  ``endpoints`` are not respawned: the router does not own their
  processes, so survivors absorb the dead worker's key range instead.
* **Fleet-wide memo sharing.**  When any worker seals a *final* answer
  for a key, the router caches the result payload (metrics +
  ``value_digest``) in a TTL store of at most :data:`FLEET_MEMO_MAX`
  entries and answers later duplicates of that key itself — whichever
  worker the key would now land on, including after a death re-placed
  it — without dispatching a run.  Hits are counted (``memo_hits``), traced
  (``fleet.memo_hit``), and marked on the result (``memo_hit`` +
  ``fleet_memo``; neither ``coalesced`` nor ``shared``, which name
  what the worker's answer shared, not the memo's copy of it).

:meth:`aggregate_stats` sums the per-worker serving counters; a
request's :meth:`FleetRequest.outcome` is what
:func:`~repro.serve.workload.summarize` reduces, the same way it
reduces an in-process session's.

All router I/O and state live on one asyncio loop, on the thread
:meth:`FleetRouter.start` creates (each link a
:class:`~repro.serve.fleet.FrameProtocol`, no locks);
the public methods are thin calls onto it, and
:func:`~repro.serve.aiofront.serve_front` runs the front end there too.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import glob
import hashlib
import itertools
import os
import socket
import threading
import time as _time
from collections import OrderedDict
from typing import Any, Callable

from ..core.memory import keep_freed_pages
from ..core.tracing import TraceEvent, TraceSink
from .fleet import (MAX_FRAME, WORKER_DEFAULTS, FrameError, FrameProtocol,
                    ckpt_filename, check_frame, spec_key)
from .transport import (connect_worker, parse_endpoint,
                        spawn_local_tcp_worker)

__all__ = ["FleetRouter", "FleetRequest"]

_VNODES = 64

#: seconds a key stays pinned to the worker that last took it
AFFINITY_TTL_S = 30.0

#: how many more requests in flight a cold key's ring home must hold
#: than the least-loaded worker before the key spills over to that one
FALLBACK_MARGIN = 2

#: entries the fleet-wide memo holds at most
FLEET_MEMO_MAX = 256

#: room a ``submit`` frame leaves its ``resume`` object: the rest of a
#: frame is a spec, an SLO and a few ids
_SUBMIT_BYTES = 1024


def _ring_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big")


def _expire(table: OrderedDict, now: float,
            keep: int | None = None) -> None:
    """Drop ``table``'s expired ``(expires_at, ...)`` entries, then its
    oldest ones past ``keep``.  Every entry of a table lives equally
    long and a refreshed key is re-inserted, so the table is in expiry
    order and whatever goes is at its front."""
    while table and (next(iter(table.values()))[0] <= now
                     or (keep is not None and len(table) > keep)):
        table.popitem(last=False)


class FleetRequest:
    """The client's view of one fleet request (a declarative spec)."""

    def __init__(self, rid: int, app: str, size: int, seed: int,
                 slo: dict[str, Any], key: str) -> None:
        self.rid = rid
        self.app = app
        self.size = size
        self.seed = seed
        self.slo = slo
        self.key = key
        self.submitted_at = _time.monotonic()
        self.worker: int | None = None
        self.redispatches = 0
        self._result: dict[str, Any] | None = None
        self._done = threading.Event()
        self._finish_lock = threading.Lock()
        self._callbacks: list[Callable[["FleetRequest"], None]] = []

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def add_done_callback(
            self, fn: Callable[["FleetRequest"], None]) -> None:
        """Run ``fn(self)`` once the request is terminal (immediately,
        in the caller's thread, if it already is).  Callbacks fire on
        the router's loop thread — keep them cheap and never block."""
        with self._finish_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout_s: float | None = None) -> dict[str, Any]:
        """Block for the terminal outcome dict; TimeoutError on timeout.

        The dict is the worker's ``done`` message plus router fields:
        ``worker`` (index that served it), ``fleet_latency_s``
        (submission-to-terminal as the router's client experienced it)
        and ``redispatches``.
        """
        if not self._done.wait(timeout=timeout_s):
            raise TimeoutError(f"fleet request {self.rid} not terminal "
                               f"after {timeout_s}s")
        assert self._result is not None
        return self._result

    def outcome(self) -> dict[str, Any]:
        """The terminal outcome as :func:`~repro.serve.workload.summarize`
        reads it: :meth:`result`, its ``latency_s`` the latency the
        client saw (``fleet_latency_s``), not the worker's."""
        result = self.result(timeout_s=0.0)
        return {**result, "latency_s": result["fleet_latency_s"]}

    def _finish(self, payload: dict[str, Any]) -> None:
        """First outcome wins: a late duplicate ``done`` (e.g. a
        re-dispatch racing the original worker's own ``done``) is
        dropped, so the client never observes two terminal deliveries.
        """
        with self._finish_lock:
            if self._done.is_set():
                return
            payload.setdefault("state", "failed")
            payload["worker"] = self.worker
            payload["fleet_latency_s"] = (_time.monotonic()
                                          - self.submitted_at)
            payload["redispatches"] = self.redispatches
            self._result = payload
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _WorkerLink(FrameProtocol):
    """Router-side state of one worker: the protocol that reads its
    socket, and its in-flight requests.  Writes never block; a dead
    peer's lost connection re-places its requests."""

    def __init__(self, router: "FleetRouter", index: int, process: Any,
                 sock: socket.socket) -> None:
        super().__init__()
        self.router = router
        self.index = index
        self.process = process
        self.sock = sock
        self.alive = True
        self.inflight: dict[int, FleetRequest] = {}

    @property
    def load(self) -> int:
        return len(self.inflight)

    def frame_received(self, msg: dict[str, Any]) -> None:
        self.router._on_message(self, msg)

    def frame_error(self, exc: FrameError) -> None:
        # the worker spoke garbage, or a frame with a missing or
        # mistyped field: an unusable connection
        self.router.counters["frame_errors"] += 1
        super().frame_error(exc)

    def connection_lost(self, exc: Exception | None) -> None:
        self.router._link_lost(self)

    def pause_writing(self) -> None:
        # reads on: what the router writes to a worker comes from its
        # clients, not from this link's frames, so not reading would
        # bound nothing, and a worker that stopped reading for the
        # same reason would never drain either side
        pass


class FleetRouter:
    """Route requests across ``workers`` AnytimeServer workers: forked
    and owned, or the ones at ``endpoints``.

    Worker behaviour (slots, queue bound, executor, coalescing, memo
    TTL) comes from ``worker_config`` merged over
    :data:`~repro.serve.fleet.WORKER_DEFAULTS`.  Use as a context
    manager; :meth:`submit` returns a :class:`FleetRequest` future.
    """

    def __init__(self, workers: int = 2,
                 worker_config: dict[str, Any] | None = None,
                 respawn: bool = True,
                 resume_dir: str | None = None,
                 endpoints: list[str | tuple[str, int]] | None = None,
                 fleet_memo_ttl_s: float = 30.0,
                 trace: TraceSink | None = None) -> None:
        #: workers someone else launched, one per ring index, configured
        #: by whoever launched them (of ``worker_config``, only ``check``
        #: crosses the wire); None: the router forks and owns its own
        self.endpoints = None if endpoints is None else [
            ep if isinstance(ep, tuple) else parse_endpoint(ep)
            for ep in endpoints]
        if endpoints is not None:
            workers = len(endpoints)
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        self.n_workers = workers
        self.worker_config = {**WORKER_DEFAULTS, **(worker_config or {})}
        #: fork a replacement (same ring index) when a worker the router
        #: started dies
        self.respawn = bool(respawn)
        #: router-visible checkpoint root: worker ``i`` suspends runs
        #: under ``resume_dir/w<i>/``; after a death the router reads
        #: the dead worker's checkpoints there and sends them to the new
        #: home inline in the re-dispatched ``submit`` (the
        #: *destination* needs no shared filesystem)
        self.resume_dir = resume_dir
        if resume_dir is not None:
            os.makedirs(resume_dir, exist_ok=True)
        #: fleet-wide sealed-final memo: key → result payload, answered
        #: by the router itself for ``fleet_memo_ttl_s`` seconds
        self.fleet_memo_ttl_s = float(fleet_memo_ttl_s)
        self._memo: OrderedDict[str, tuple[float, dict[str, Any]]] = \
            OrderedDict()
        self._trace_sink = trace
        self._links: list[_WorkerLink] = []
        #: the event loop all router I/O runs on (None unless started)
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._rids = itertools.count(1)
        #: ids of the router's own asks (``stats`` rids, transfer xids)
        self._ids = itertools.count(1)
        #: (reply op, id) → the future its reply resolves
        self._waiters: dict[tuple[str, Any], asyncio.Future] = {}
        #: key → (expires_at, worker index), in expiry order
        self._affinity: OrderedDict[str, tuple[float, int]] = OrderedDict()
        self._ring: list[tuple[int, int]] = sorted(
            (_ring_hash(f"worker-{w}/vnode-{v}"), w)
            for w in range(workers) for v in range(_VNODES))
        #: orphans taken off a dead link and not yet re-dispatched (or
        #: failed): in no link's ``inflight``, yet not terminal
        self._in_transit: set[FleetRequest] = set()
        #: failover tasks of dead links (re-spawn and re-dispatch)
        self._failovers: set[asyncio.Task] = set()
        #: set by the loop whenever nothing is in flight or in transit
        self._idle = threading.Event()
        self._idle.set()
        self._started = False
        self._closing = False
        self.counters = {
            "dispatched": 0, "redispatched": 0, "shed_retries": 0,
            "worker_deaths": 0, "fallbacks": 0,
            "respawns": 0, "migrated": 0, "migrations_failed": 0,
            "memo_hits": 0, "late_dones": 0, "frame_errors": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "FleetRouter":
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        # before the loop thread starts and the workers fork, which
        # inherit it
        keep_freed_pages()
        spawned = [self._spawn(index) for index in range(self.n_workers)]
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever,
                                        name="fleet-loop", daemon=True)
        self._thread.start()
        self._links = [self._call(self._connect, index, *pair)
                       for index, pair in enumerate(spawned)]
        return self

    def _spawn(self, index: int) -> tuple[Any, socket.socket]:
        """``(process, socket)`` of the worker at ring index ``index``:
        one the router forks (process owned), or its endpoint's (None)."""
        if self.endpoints is not None:
            return None, connect_worker(self.endpoints[index])
        config = dict(self.worker_config)
        if self.resume_dir is not None:
            config["resume_dir"] = os.path.join(self.resume_dir,
                                                f"w{index}")
        process, endpoint = spawn_local_tcp_worker(config)
        try:
            return process, connect_worker(endpoint)
        except OSError:
            process.kill()
            raise

    async def _connect(self, index: int, process: Any,
                       sock: socket.socket) -> _WorkerLink:
        """Read a worker's socket with a link."""
        _, link = await self.loop.create_connection(
            lambda: _WorkerLink(self, index, process, sock), sock=sock)
        return link

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop every worker; fail any request still in flight."""
        if self.loop is None:
            return
        links = self._call(self._say_shutdown)
        deadline = _time.monotonic() + timeout_s
        for link in links:
            if link.process is not None:
                link.process.join(
                    timeout=max(0.1, deadline - _time.monotonic()))
                if link.process.is_alive():
                    link.process.terminate()
                    link.process.join(timeout=2.0)
        self._call(self._close)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()
        self.loop = self._thread = None

    def _say_shutdown(self) -> list[_WorkerLink]:
        self._closing = True   # link ends from here on are not deaths
        for link in self._links:
            if link.alive:
                link.send({"op": "shutdown"})
        return list(self._links)

    async def _close(self) -> None:
        stranded = list(self._in_transit)
        self._in_transit.clear()
        for link in self._links:
            link.alive = False
            link.transport.close()
            stranded.extend(link.inflight.values())
            link.inflight.clear()
        for request in stranded:
            request._finish({"state": "cancelled",
                             "errors": ["fleet shutdown"]})
        self._idle.set()
        # failovers, and calls from other threads still waiting on the
        # loop, end here: nothing runs them once the loop stops
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def drain(self, timeout_s: float | None = None) -> bool:
        """Wait (from any thread but the loop's) until every submitted
        request is terminal; True if all are — a dead worker's orphans
        count while they migrate."""
        return self._idle.wait(timeout_s)

    def _call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` on the loop, waited for; inline (no coroutine
        functions then) when called there or with no loop running."""
        if self.loop is None or threading.current_thread() is self._thread:
            if asyncio.iscoroutinefunction(fn):
                raise RuntimeError(f"{fn.__name__}: the router's loop "
                                   f"is not running or is the caller")
            return fn(*args)

        async def call() -> Any:
            result = fn(*args)
            return await result if asyncio.iscoroutine(result) else result

        return asyncio.run_coroutine_threadsafe(call(), self.loop).result()

    # -- client API ------------------------------------------------------

    def submit(self, app: str, size: int = 32, seed: int = 0,
               slo: dict[str, Any] | None = None,
               wait_s: float = 0.0) -> FleetRequest:
        """Place and dispatch one declarative request.  Before any
        dispatch, a bad spec raises from ``spec_key``, and a mistyped
        ``slo`` or ``wait_s`` a :class:`~repro.serve.fleet.FrameError`:
        the worker would refuse its frame."""
        key = spec_key(app, size, seed)
        slo = check_frame({"op": "submit", "rid": 0, "app": app,
                           "slo": slo, "wait_s": wait_s})["slo"]
        request = FleetRequest(next(self._rids), app, int(size),
                               int(seed), slo, key)
        self._call(self._submit, request, wait_s)
        return request

    def _submit(self, request: FleetRequest, wait_s: float) -> None:
        memo = self._memo_lookup(request.key)
        if memo is not None:
            # fleet-wide memo: a worker sealed this key's final
            # recently; answer from the router without any dispatch
            self.counters["memo_hits"] += 1
            self._emit("fleet.memo_hit", key=request.key, rid=request.rid)
            # a memo answer joined no run and shared no live spec
            request._finish({**memo, "memo_hit": True, "fleet_memo": True,
                             "coalesced": False, "shared": False})
            return
        link = self._place(request.key)
        if link is None:
            request._finish({"state": "failed",
                             "errors": ["no live workers"]})
            return
        self._dispatch(request, link, wait_s=wait_s)

    def alive_workers(self) -> int:
        return self._call(
            lambda: sum(1 for link in self._links if link.alive))

    def aggregate_stats(self, timeout_s: float = 5.0) -> dict[str, Any]:
        """Fleet-wide serving counters: per-worker stats plus sums.
        Every live worker is asked at once, with one wait of
        ``timeout_s`` for all of them."""
        return self._call(self._aggregate_stats, timeout_s)

    async def _aggregate_stats(self, timeout_s: float) -> dict[str, Any]:
        asks: list[asyncio.Future | None] = []
        for link in self._links:
            if not link.alive:
                asks.append(None)
                continue
            rid = next(self._ids)
            asks.append(self._expect("stats", rid))
            link.send({"op": "stats", "rid": rid})
        live = [ask for ask in asks if ask is not None]
        if live:
            await asyncio.wait(live, timeout=timeout_s)
        per_worker = [ask.result()["stats"]
                      if ask is not None and ask.done() else None
                      for ask in asks]
        for ask in live:
            ask.cancel()
        totals: dict[str, Any] = {}
        for stats in per_worker:
            if not stats:
                continue
            for name, value in stats.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    totals[name] = totals.get(name, 0) + value
        return {"workers": len(self._links),
                "alive": sum(1 for link in self._links if link.alive),
                "router": dict(self.counters),
                "fleet_memo": {"size": len(self._memo),
                               "ttl_s": self.fleet_memo_ttl_s,
                               "max": FLEET_MEMO_MAX,
                               "hits": self.counters["memo_hits"]},
                "per_worker": per_worker,
                "totals": totals}

    # -- placement -------------------------------------------------------

    def _place(self, key: str) -> _WorkerLink | None:
        alive = [link for link in self._links if link.alive]
        if not alive:
            return None
        now = _time.monotonic()
        _expire(self._affinity, now)
        pinned = self._affinity.pop(key, None)
        if pinned is not None and self._links[pinned[1]].alive:
            link = self._links[pinned[1]]
        else:
            link = self._ring_lookup(key)
            least = min(alive, key=lambda cand: cand.load)
            if link.load > least.load + FALLBACK_MARGIN:
                # cold key, clearly uneven fleet: spill to the
                # least-loaded worker (duplicates will follow via the
                # affinity pin)
                link = least
                self.counters["fallbacks"] += 1
        self._affinity[key] = (now + AFFINITY_TTL_S, link.index)
        return link

    def _ring_lookup(self, key: str) -> _WorkerLink:
        point = _ring_hash(key)
        start = bisect.bisect(self._ring, (point, -1))
        for offset in range(len(self._ring)):
            _, index = self._ring[(start + offset) % len(self._ring)]
            if self._links[index].alive:
                return self._links[index]
        raise RuntimeError("no live workers on the ring")

    def _dispatch(self, request: FleetRequest, link: _WorkerLink,
                  wait_s: float = 0.0,
                  extra: dict[str, Any] | None = None) -> None:
        request.worker = link.index
        link.inflight[request.rid] = request
        self._idle.clear()
        self.counters["dispatched"] += 1
        self._emit("fleet.dispatch", key=request.key, rid=request.rid,
                   worker=link.index)
        message = {
            "op": "submit", "rid": request.rid, "app": request.app,
            "size": request.size, "seed": request.seed,
            "slo": request.slo, "wait_s": wait_s,
        }
        if self.worker_config.get("check"):
            message["check"] = True
        if extra:
            message.update(extra)
        link.send(message)

    def _update_idle(self) -> None:
        if self._in_transit or any(link.inflight for link in self._links):
            self._idle.clear()
        else:
            self._idle.set()

    # -- worker I/O ------------------------------------------------------

    def _link_lost(self, link: _WorkerLink) -> None:
        """A link's connection ended: the one place a death is detected
        (EOF, a reset, a failed write, which closes the transport, or a
        garbage frame) — unless the worker said ``bye`` first or the
        router is shutting down."""
        died = link.alive and not self._closing
        link.alive = False
        if died:
            task = self.loop.create_task(self._mark_dead(link))
            self._failovers.add(task)
            task.add_done_callback(self._failovers.discard)

    def _on_message(self, link: _WorkerLink, msg: dict[str, Any]) -> None:
        op = msg["op"]
        if op == "done":
            request = link.inflight.pop(msg["rid"], None)
            if request is None:
                # a shed rid finishing on the worker that shed it, or
                # a duplicate: the first outcome won
                self.counters["late_dones"] += 1
                return
            self._memo_store(request.key, msg)
            request._finish(msg)
            self._update_idle()
        elif op == "ack":
            self._on_ack(link, msg)
        elif op == "stats":
            waiter = self._waiters.get((op, msg["rid"]))
            if waiter is not None and not waiter.done():
                waiter.set_result(msg)
        elif op == "error":
            # worker reported a protocol violation from our side;
            # nothing to retract — count it and carry on
            self.counters["frame_errors"] += 1
        elif op == "bye":
            link.alive = False
            link.transport.close()

    def _expect(self, op: str, ident: int) -> asyncio.Future:
        """A future for the ``op`` reply carrying ``ident``."""
        future = self.loop.create_future()
        self._waiters[(op, ident)] = future
        future.add_done_callback(
            lambda _: self._waiters.pop((op, ident), None))
        return future

    def _on_ack(self, link: _WorkerLink, msg: dict[str, Any]) -> None:
        if msg["state"] != "shed":
            return
        request = link.inflight.pop(msg["rid"], None)
        if request is None:
            return
        # admission backpressure surfaced: retry once elsewhere
        alive = [cand for cand in self._links
                 if cand.alive and cand is not link]
        if request.redispatches == 0 and alive:
            target = min(alive, key=lambda cand: cand.load)
            request.redispatches += 1
            self.counters["shed_retries"] += 1
            self._affinity.pop(request.key, None)
            self._affinity[request.key] = (
                _time.monotonic() + AFFINITY_TTL_S, target.index)
            self._dispatch(request, target)
        else:
            link.inflight[request.rid] = request
            # the worker's own `done` (state=shed) finalizes it

    async def _mark_dead(self, link: _WorkerLink) -> None:
        """Record a worker's death, replace it at the same ring index
        when the router owns it (the replacement takes over the dead
        worker's key range without remapping anyone else's), and
        re-place its orphaned in-flight requests."""
        self.counters["worker_deaths"] += 1
        self._emit("fleet.worker_death", worker=link.index,
                   orphans=len(link.inflight))
        for key, (_, index) in list(self._affinity.items()):
            if index == link.index:
                del self._affinity[key]
        orphans = list(link.inflight.values())
        link.inflight.clear()
        self._in_transit.update(orphans)
        self._sweep_stale_temps(link.index)
        if self.respawn and self.endpoints is None:
            try:
                fresh = await self._connect(link.index,
                                            *self._spawn(link.index))
            except Exception:
                fresh = None
            if fresh is not None:
                self._links[link.index] = fresh
                self.counters["respawns"] += 1
                self._emit("fleet.respawn", worker=link.index)
        for request in orphans:
            try:
                await self._redispatch_orphan(link, request)
            finally:
                self._in_transit.discard(request)
                self._update_idle()

    async def _redispatch_orphan(self, link: _WorkerLink,
                                 request: FleetRequest) -> None:
        """Re-place one orphan.  A request whose run had been
        suspended to a checkpoint *migrates*: the checkpoint's payload
        rides in the re-dispatched ``submit`` as its ``resume`` object
        and the run continues from where it stopped.  Runs without a
        readable one re-dispatch fresh."""
        survivor = self._place(request.key)
        if survivor is None:
            request._finish({
                "state": "failed",
                "errors": [f"worker {link.index} died"]})
            return
        request.redispatches += 1
        self.counters["redispatched"] += 1
        self._emit("fleet.redispatch", key=request.key,
                   rid=request.rid, worker=survivor.index)
        resume = self._take_checkpoint(link.index, request.key)
        if resume is not None:
            self.counters["migrated"] += 1
            self._emit("fleet.migrate", key=request.key,
                       rid=request.rid, worker=survivor.index)
        self._dispatch(request, survivor,
                       extra=None if resume is None else {"resume": resume})

    def _sweep_stale_temps(self, dead_index: int) -> None:
        """Delete the atomic-write temps (``<key>.rck.tmp.<pid>``) a
        worker killed mid-checkpoint left behind: never a checkpoint,
        and nothing else would ever remove them."""
        if self.resume_dir is None:
            return
        pattern = os.path.join(glob.escape(self.resume_dir),
                               f"w{dead_index}", "*.rck.tmp.*")
        for path in glob.glob(pattern):
            try:
                os.unlink(path)
            except OSError:
                pass

    def _take_checkpoint(self, dead_index: int,
                         key: str) -> dict[str, Any] | None:
        """The payload of the dead worker's last checkpoint of this key,
        if one is readable and fits a frame.  The file is consumed
        either way: a past must never be resumed twice."""
        if self.resume_dir is None:
            return None
        path = os.path.join(self.resume_dir, f"w{dead_index}",
                            ckpt_filename(key))
        if not os.path.exists(path):
            return None
        from ..ckpt import CheckpointError, load_checkpoint

        try:
            header, payload = load_checkpoint(path)
        except CheckpointError:
            payload = None
        finally:
            with contextlib.suppress(OSError):
                os.unlink(path)
        if payload is None or \
                header["payload_len"] + _SUBMIT_BYTES > MAX_FRAME:
            self.counters["migrations_failed"] += 1
            return None
        return payload

    # -- fleet-wide memo -------------------------------------------------

    def _memo_lookup(self, key: str) -> dict[str, Any] | None:
        """A fresh sealed-final payload for ``key``, or None (expired
        entries evicted on the way)."""
        _expire(self._memo, _time.monotonic())
        entry = self._memo.get(key)
        return None if entry is None else entry[1]

    def _memo_store(self, key: str, msg: dict[str, Any]) -> None:
        """Cache a worker's ``done`` if it is a sealed *final* answer.
        Bounded: expired entries purged, then earliest-expiry evicted
        over :data:`FLEET_MEMO_MAX`."""
        if self.fleet_memo_ttl_s <= 0:
            return
        if not (msg["state"] == "completed" and msg["final"]
                and msg["value_digest"]):
            return
        now = _time.monotonic()
        self._memo.pop(key, None)
        _expire(self._memo, now, keep=FLEET_MEMO_MAX - 1)
        payload = {k: v for k, v in msg.items() if k != "rid"}
        self._memo[key] = (now + self.fleet_memo_ttl_s, payload)

    def _emit(self, kind: str, *, key: str | None = None,
              **args: Any) -> None:
        sink = self._trace_sink
        if sink is None:
            return
        try:
            sink.emit(TraceEvent(ts=_time.monotonic(), kind=kind,
                                 stage="router", target=key,
                                 args=args))
        except Exception:
            pass
