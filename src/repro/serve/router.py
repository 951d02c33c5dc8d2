"""Fleet front end: shard anytime requests across worker processes.

:class:`FleetRouter` owns N :mod:`~repro.serve.fleet` workers — forked
locally over AF_UNIX socketpairs or reached over TCP
(:mod:`repro.serve.transport`) — and places each declarative request
``(app, size, seed, SLO)`` by its canonical work identity
(:func:`~repro.serve.fleet.spec_key`, a hash of the spec itself: the
router never makes an input):

* **Sticky consistent-hash placement.**  A key hashes onto a virtual-
  node ring; identical work therefore lands on the same worker, where
  the server coalesces it onto one shared run (or answers from its
  sealed-results memo).  A short-TTL affinity table pins a key to the
  worker that actually took it, so fallback decisions stay sticky too.
* **Least-loaded fallback for cold keys.**  A key the fleet has never
  seen may be diverted from its ring home to the least-loaded worker
  when the home is clearly busier — cold keys have no run to join, so
  placement freedom is free capacity.
* **Backpressure surfaced to the router.**  Every admission is acked
  with the worker's queue depth; a shed request is retried once on the
  least-loaded other worker before the shed is accepted as final.
* **Worker-death failover, re-spawn, and checkpoint migration.**  A
  dead worker (its link's reader ends on EOF, a reset or a garbage
  frame — the one place a death is detected) is replaced: a fresh worker is
  forked at the same index and rejoins the consistent-hash ring (the
  ring maps onto indices, so the replacement inherits the dead
  worker's key range with zero ring churn).  The dead worker's
  in-flight requests are re-dispatched — and when the fleet runs with
  a ``resume_dir``, a request whose run had been suspended to a
  checkpoint (:mod:`repro.ckpt`) *migrates*: the router ships the dead
  worker's last checkpoint to the new home **in-band** (chunked,
  sha256-verified ``ckpt_*`` frames — no shared filesystem between
  workers assumed) and the run continues from where it stopped instead
  of starting over.  Requests without a checkpoint, or whose transfer
  is refused, fall back to verbatim re-dispatch — requests are specs,
  not closures, so a re-run is safe and its sealed versions are
  equally valid answers.  Remote (TCP) workers are not respawned: the
  router does not own their processes, so survivors absorb the dead
  worker's key range instead.
* **Fleet-wide memo sharing.**  When any worker seals a *final* answer
  for a key, the router caches the result payload (metrics +
  ``value_digest``) in a bounded TTL store and answers later
  duplicates of that key itself — whichever worker the key would now
  land on, including after a death re-placed it — without dispatching
  a run.  Hits are counted (``memo_hits``), traced
  (``fleet.memo_hit``), and marked on the result (``memo_hit`` +
  ``fleet_memo``).

Fleet-wide metrics (:func:`summarize_fleet`, :meth:`aggregate_stats`)
sum the per-worker serving counters and reduce per-request outcomes to
p50/p99 latency, goodput, shed rate and SLO attainment.

All router I/O and state live on one asyncio loop, on the thread
:meth:`FleetRouter.start` creates (one reader task per link, no locks);
the public methods are thin calls onto it, and
:func:`~repro.serve.aiofront.serve_front` runs the front end there too.
"""

from __future__ import annotations

import asyncio
import base64
import bisect
import glob
import hashlib
import itertools
import os
import socket
import threading
import time as _time
from typing import Any, Callable

from ..core.tracing import TraceEvent, TraceSink
from .fleet import (CKPT_CHUNK_BYTES, FIELD_ERRORS, FrameError,
                    WORKER_DEFAULTS, ckpt_filename, pack_msg, read_msg,
                    spec_key)
from .transport import ForkTransport, TcpTransport
from .workload import percentile

__all__ = ["FleetRouter", "FleetRequest", "summarize_fleet"]

_VNODES = 64


def _ring_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big")


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

    def _finish(self, payload: dict[str, Any]) -> None:
        """First outcome wins: a late duplicate ``done`` (e.g. a
        re-dispatch racing the original worker's completion pump) is
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


class _WorkerLink:
    """Router-side state of one worker: its socket wrapped in asyncio
    streams, the task that reads them, and its in-flight requests."""

    def __init__(self, index: int, process: Any, sock: socket.socket,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.index = index
        self.process = process
        self.sock = sock
        self.reader = reader
        self.writer = writer
        self.alive = True
        self.inflight: dict[int, FleetRequest] = {}
        self.queue_depth = 0
        self.task: asyncio.Task | None = None

    @property
    def load(self) -> int:
        return len(self.inflight)

    def send(self, msg: dict[str, Any]) -> None:
        # never blocks; a dead peer's reader re-places its requests
        self.writer.write(pack_msg(msg))


class FleetRouter:
    """Route requests across ``workers`` forked AnytimeServer workers.

    Worker behaviour (slots, queue bound, executor, coalescing, memo
    TTL) comes from ``worker_config`` merged over
    :data:`~repro.serve.fleet.WORKER_DEFAULTS`.  Use as a context
    manager; :meth:`submit` returns a :class:`FleetRequest` future.
    """

    def __init__(self, workers: int = 2,
                 worker_config: dict[str, Any] | None = None,
                 affinity_ttl_s: float = 30.0,
                 fallback_margin: int = 2,
                 respawn: bool = True,
                 resume_dir: str | None = None,
                 endpoints: list[str | tuple[str, int]] | None = None,
                 transport: Any = None,
                 fleet_memo_ttl_s: float = 30.0,
                 fleet_memo_max: int = 256,
                 trace: TraceSink | None = None) -> None:
        if transport is None:
            transport = (TcpTransport(endpoints) if endpoints
                         else ForkTransport())
        #: how worker sockets are obtained (fork+socketpair or TCP)
        self.transport = transport
        if endpoints is not None:
            workers = len(endpoints)
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        self.n_workers = workers
        self.worker_config = {**WORKER_DEFAULTS, **(worker_config or {})}
        self.affinity_ttl_s = affinity_ttl_s
        self.fallback_margin = fallback_margin
        #: fork a replacement worker (same ring index) when one dies —
        #: only meaningful on a respawnable (fork) transport
        self.respawn = bool(respawn)
        #: router-visible checkpoint root: worker ``i`` suspends runs
        #: under ``resume_dir/w<i>/``; after a death the router reads
        #: the dead worker's checkpoints there and ships them to the
        #: new home in-band (the *destination* needs no shared
        #: filesystem)
        self.resume_dir = resume_dir
        if resume_dir is not None:
            os.makedirs(resume_dir, exist_ok=True)
        #: fleet-wide sealed-final memo: key → result payload, answered
        #: by the router itself for ``fleet_memo_ttl_s`` seconds
        self.fleet_memo_ttl_s = float(fleet_memo_ttl_s)
        self.fleet_memo_max = int(fleet_memo_max)
        self._memo: dict[str, tuple[float, dict[str, Any]]] = {}
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
        self.ckpt_ack_timeout_s = 15.0
        self._affinity: dict[str, tuple[int, float]] = {}
        self._ring: list[tuple[int, int]] = sorted(
            (_ring_hash(f"worker-{w}/vnode-{v}"), w)
            for w in range(workers) for v in range(_VNODES))
        #: orphans taken off a dead link and not yet re-dispatched (or
        #: failed): in no link's ``inflight``, yet not terminal
        self._in_transit: set[FleetRequest] = set()
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
        spawned = [self._spawn(index) for index in range(self.n_workers)]
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever,
                                        name="fleet-loop", daemon=True)
        self._thread.start()
        self._call(self._open_links, spawned)
        return self

    def _spawn(self, index: int) -> tuple[Any, socket.socket]:
        """Fork the worker at ring index ``index``, or connect to it,
        through the transport."""
        config = dict(self.worker_config)
        if self.resume_dir is not None:
            config["resume_dir"] = os.path.join(self.resume_dir,
                                                f"w{index}")
        return self.transport.spawn(index, config)

    async def _connect(self, index: int, process: Any,
                       sock: socket.socket) -> _WorkerLink:
        """Wrap a worker's socket in streams and start its reader."""
        reader, writer = await asyncio.open_connection(sock=sock)
        link = _WorkerLink(index, process, sock, reader, writer)
        link.task = asyncio.create_task(self._read_link(link))
        return link

    async def _open_links(self, spawned: list[tuple[Any, Any]]) -> None:
        for index, pair in enumerate(spawned):
            self._links.append(await self._connect(index, *pair))

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
            link.writer.close()
            stranded.extend(link.inflight.values())
            link.inflight.clear()
        for request in stranded:
            request._finish({"state": "cancelled",
                             "errors": ["fleet shutdown"]})
        self._idle.set()
        # readers and failovers end; their turn closes the sockets
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
        """Place and dispatch one declarative request (a bad spec
        raises from ``spec_key``, before any dispatch)."""
        key = spec_key(app, size, seed)
        request = FleetRequest(next(self._rids), app, int(size),
                               int(seed), slo or {}, key)
        self._call(self._submit, request, wait_s)
        return request

    def _submit(self, request: FleetRequest, wait_s: float) -> None:
        memo = self._memo_lookup(request.key)
        if memo is not None:
            # fleet-wide memo: a worker sealed this key's final
            # recently; answer from the router without any dispatch
            self.counters["memo_hits"] += 1
            self._emit("fleet.memo_hit", key=request.key, rid=request.rid)
            payload = dict(memo)
            payload["memo_hit"] = True
            payload["fleet_memo"] = True
            request._finish(payload)
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
        per_worker = [ask.result().get("stats")
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
                               "max": self.fleet_memo_max,
                               "hits": self.counters["memo_hits"]},
                "per_worker": per_worker,
                "totals": totals}

    # -- placement -------------------------------------------------------

    def _place(self, key: str) -> _WorkerLink | None:
        alive = [link for link in self._links if link.alive]
        if not alive:
            return None
        now = _time.monotonic()
        pinned = self._affinity.get(key)
        if pinned is not None:
            index, expires_at = pinned
            link = self._links[index]
            if link.alive and now < expires_at:
                self._affinity[key] = (index, now + self.affinity_ttl_s)
                return link
            del self._affinity[key]
        home = self._ring_lookup(key)
        link = home
        least = min(alive, key=lambda cand: cand.load)
        if home.load > least.load + self.fallback_margin:
            # cold key, clearly uneven fleet: spill to the least-loaded
            # worker (duplicates will follow via the affinity pin)
            link = least
            self.counters["fallbacks"] += 1
        self._affinity[key] = (link.index, now + self.affinity_ttl_s)
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

    async def _read_link(self, link: _WorkerLink) -> None:
        """Read one worker's frames until its connection ends: the one
        place a death is detected (EOF, a reset, a failed write, which
        closes the transport, or a garbage frame)."""
        while True:
            try:
                msg = await read_msg(link.reader)
                if msg is None or msg.get("op") == "bye":
                    break
                self._on_message(link, msg)
            except (FrameError, *FIELD_ERRORS):
                # the worker spoke garbage, or a frame with a missing or
                # mistyped field: an unusable connection
                self.counters["frame_errors"] += 1
                msg = None
                break
            except OSError:
                msg = None
                break
        died = link.alive and msg is None and not self._closing
        link.alive = False
        link.writer.close()
        if died:
            await self._mark_dead(link)

    def _on_message(self, link: _WorkerLink, msg: dict[str, Any]) -> None:
        op = msg.get("op")
        if op == "done":
            request = link.inflight.pop(msg.get("rid"), None)
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
        elif op in ("stats", "ckpt_ack"):
            waiter = self._waiters.get(
                (op, msg.get("rid" if op == "stats" else "xid")))
            if waiter is not None and not waiter.done():
                waiter.set_result(msg)
        elif op == "error":
            # worker reported a protocol violation from our side;
            # nothing to retract — count it and carry on
            self.counters["frame_errors"] += 1

    def _expect(self, op: str, ident: int) -> asyncio.Future:
        """A future for the ``op`` reply carrying ``ident``."""
        future = self.loop.create_future()
        self._waiters[(op, ident)] = future
        future.add_done_callback(
            lambda _: self._waiters.pop((op, ident), None))
        return future

    def _on_ack(self, link: _WorkerLink, msg: dict[str, Any]) -> None:
        link.queue_depth = int(msg.get("queue_depth", 0))
        if msg.get("state") != "shed":
            return
        request = link.inflight.pop(msg.get("rid"), None)
        if request is None:
            return
        # admission backpressure surfaced: retry once elsewhere
        alive = [cand for cand in self._links
                 if cand.alive and cand is not link]
        if request.redispatches == 0 and alive:
            target = min(alive, key=lambda cand: cand.load)
            request.redispatches += 1
            self.counters["shed_retries"] += 1
            self._affinity[request.key] = (
                target.index, _time.monotonic() + self.affinity_ttl_s)
            self._dispatch(request, target)
        else:
            link.inflight[request.rid] = request
            # the worker's own `done` (state=shed) finalizes it

    async def _mark_dead(self, link: _WorkerLink) -> None:
        """Record a worker's death, replace it at the same ring index
        (fork transport: the replacement takes over the dead worker's
        key range without remapping anyone else's), and re-place its
        orphaned in-flight requests."""
        self.counters["worker_deaths"] += 1
        self._emit("fleet.worker_death", worker=link.index,
                   orphans=len(link.inflight))
        for key, (index, _) in list(self._affinity.items()):
            if index == link.index:
                del self._affinity[key]
        orphans = list(link.inflight.values())
        link.inflight.clear()
        self._in_transit.update(orphans)
        self._sweep_stale_temps(link.index)
        if self.respawn and self.transport.respawnable:
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
        suspended to a checkpoint *migrates*: the checkpoint is shipped
        to the new home in-band and the run continues from where it
        stopped.  Runs without one (or whose transfer fails) re-dispatch
        fresh; so does one whose new home dies during the shipment."""
        while True:
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
            source = self._migration_source(link.index, request.key)
            extra = None
            if source is not None:
                extra = await self._ship_checkpoint(survivor, request.key,
                                                    source)
                if extra is not None:
                    self.counters["migrated"] += 1
                    self._emit("fleet.migrate", key=request.key,
                               rid=request.rid, worker=survivor.index)
                else:
                    self.counters["migrations_failed"] += 1
            if survivor.alive:
                self._dispatch(request, survivor, extra=extra)
                return

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

    def _migration_source(self, dead_index: int,
                          key: str) -> str | None:
        """The dead worker's last checkpoint of this key, if any."""
        if self.resume_dir is None:
            return None
        path = os.path.join(self.resume_dir, f"w{dead_index}",
                            ckpt_filename(key))
        return path if os.path.exists(path) else None

    async def _ship_checkpoint(self, link: _WorkerLink, key: str,
                               path: str) -> dict[str, Any] | None:
        """Ship one ``.rck`` file to a worker in-band: chunked base64
        frames bracketed by ``ckpt_begin``/``ckpt_end``, acknowledged
        after the worker re-verifies the sha256 and the ``RPROCKP1``
        header.  Returns the ``{"resume_xfer": xid}`` submit extra on
        success, None on any failure (the caller falls back to a fresh
        re-dispatch — always safe, anytime re-runs are valid)."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        xid = next(self._ids)
        ack = self._expect("ckpt_ack", xid)
        try:
            link.send({"op": "ckpt_begin", "xid": xid, "key": key,
                       "size": len(data),
                       "sha256": hashlib.sha256(data).hexdigest()})
            for off in range(0, len(data), CKPT_CHUNK_BYTES):
                chunk = data[off:off + CKPT_CHUNK_BYTES]
                link.send({"op": "ckpt_chunk", "xid": xid,
                           "data": base64.b64encode(chunk).decode()})
                await link.writer.drain()
            link.send({"op": "ckpt_end", "xid": xid})
            reply = await asyncio.wait_for(ack, self.ckpt_ack_timeout_s)
        except (OSError, asyncio.TimeoutError):
            return None
        finally:
            ack.cancel()
        if not reply.get("ok"):
            return None
        try:
            # consumed: the receiver now owns the only live copy, and
            # a past must never be resumed twice
            os.unlink(path)
        except OSError:
            pass
        return {"resume_xfer": xid}

    # -- fleet-wide memo -------------------------------------------------

    def _memo_lookup(self, key: str) -> dict[str, Any] | None:
        """A fresh sealed-final payload for ``key``, or None (expired
        entries evicted on the way)."""
        entry = self._memo.get(key)
        if entry is None:
            return None
        expires_at, payload = entry
        if _time.monotonic() >= expires_at:
            del self._memo[key]
            return None
        return payload

    def _memo_store(self, key: str, msg: dict[str, Any]) -> None:
        """Cache a worker's ``done`` if it is a sealed *final* answer.
        Bounded: expired entries purged, then earliest-expiry evicted
        over ``fleet_memo_max``."""
        if self.fleet_memo_ttl_s <= 0:
            return
        if not (msg.get("state") == "completed" and msg.get("final")
                and msg.get("value_digest")):
            return
        now = _time.monotonic()
        for stale in [k for k, (exp, _) in self._memo.items()
                      if now >= exp]:
            del self._memo[stale]
        if key not in self._memo \
                and len(self._memo) >= self.fleet_memo_max:
            oldest = min(self._memo, key=lambda k: self._memo[k][0])
            del self._memo[oldest]
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


def summarize_fleet(requests: list[FleetRequest],
                    wall_s: float | None = None) -> dict[str, Any]:
    """Reduce terminal fleet requests to fleet-wide serving metrics."""
    import math

    if not requests:
        raise ValueError("no requests to summarize")
    results = []
    for request in requests:
        if not request.done:
            raise RuntimeError(f"fleet request {request.rid} is not "
                               f"terminal; drain the router first")
        results.append(request.result(timeout_s=0.0))
    by_state: dict[str, int] = {}
    for r in results:
        by_state[r["state"]] = by_state.get(r["state"], 0) + 1
    served = [r for r in results if r["state"] == "completed"]
    latencies = [r["fleet_latency_s"] for r in served]
    if wall_s is None:
        first = min(request.submitted_at for request in requests)
        last = max(request.submitted_at + r["fleet_latency_s"]
                   for request, r in zip(requests, results))
        wall_s = max(last - first, 1e-9)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else math.nan

    return {
        "requests": len(results),
        "states": by_state,
        "completed": len(served),
        "shed": by_state.get("shed", 0),
        "failed": by_state.get("failed", 0),
        "wall_s": wall_s,
        "goodput_rps": len(served) / wall_s,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p99_s": percentile(latencies, 99),
        "latency_mean_s": mean(latencies),
        "coalesced": sum(1 for r in served if r.get("coalesced")),
        "memo_hits": sum(1 for r in served if r.get("memo_hit")),
        "redispatched": sum(1 for r in results
                            if r.get("redispatches", 0) > 0),
        "slo_attainment": (sum(1 for r in served if r.get("slo_met"))
                           / len(served)) if served else math.nan,
        "workers_used": sorted({r.get("worker") for r in served
                                if r.get("worker") is not None}),
    }
