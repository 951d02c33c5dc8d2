"""Asyncio front end: external clients for a fleet, over TCP.

:class:`AioFrontend` is a single-threaded event-loop server that
accepts external client connections speaking the same length-prefixed
JSON frame protocol as the fleet data plane (:mod:`repro.serve.fleet`)
and bridges them to a :class:`~repro.serve.router.FleetRouter`:

* **Per-connection backpressure.**  Each connection may have at most
  ``max_pending_per_conn`` requests in flight; the frame reader stops
  consuming (and therefore stops ACKing TCP) until one completes, so a
  firehose client is throttled at the socket instead of ballooning the
  router's queues.
* **Idle timeouts.**  A connection with nothing in flight and no frame
  for ``idle_timeout_s`` is told ``bye`` and closed.
* **Graceful drain.**  ``SIGTERM``/``SIGINT`` (see :func:`serve_front`)
  or :meth:`AioFrontend.stop` stops accepting connections, rejects new
  submits with ``state="draining"``, waits for in-flight requests to
  finish delivering, then closes.

Client-bound ops mirror the fleet's: ``ack`` (admission echo), ``done``
(terminal result payload — the router's, including ``value_digest``,
``memo_hit`` and ``fleet_memo``), ``stats``, ``error``, ``bye``.
Worker-bound ops accepted: ``submit`` (``rid`` chosen by the client),
``stats``, ``bye``.  Oversized, truncated, or non-JSON frames get a
structured ``error`` (when the socket still writes) and a close —
never a hang.

:class:`AioFleetClient` is the matching client used by the tests, the
tutorial, and the CI smoke.

:func:`serve_front` runs the front end on the router's own loop: a
submit is dispatched inline, and a ``done`` reaches its connection on
the same thread.  On any other loop the ``done`` hand-off
(``loop.call_soon_threadsafe``) works just the same; only the rare
``stats`` op uses an executor.  A connection waits on *the next frame
or the next completion*, so a ``done`` leaves the moment the router
finishes the request — no delivery poll.
"""

from __future__ import annotations

import asyncio
import functools
import signal
from typing import Any

from .fleet import (FIELD_ERRORS, MAX_FRAME, FrameError, pack_msg,
                    read_msg)
from .router import FleetRequest, FleetRouter

__all__ = ["AioFrontend", "AioFleetClient", "serve_front"]


class AioFrontend:
    """Event-loop server bridging external TCP clients to a router."""

    def __init__(self, router: FleetRouter,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_pending_per_conn: int = 8,
                 idle_timeout_s: float = 60.0,
                 drain_timeout_s: float = 30.0,
                 max_frame: int = MAX_FRAME) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.max_pending_per_conn = int(max_pending_per_conn)
        self.idle_timeout_s = float(idle_timeout_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.max_frame = int(max_frame)
        self.counters = {"connections": 0, "submits": 0, "dones": 0,
                         "rejected": 0, "frame_errors": 0,
                         "idle_closes": 0}
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._pending_total = 0
        self._all_drained = asyncio.Event()
        self._all_drained.set()

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``
        (useful with port 0)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self, drain_timeout_s: float | None = None) -> bool:
        """Graceful drain: stop accepting, refuse new submits, wait
        (bounded) for in-flight requests to deliver, close every
        connection.  True if the drain completed cleanly."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        timeout = (self.drain_timeout_s if drain_timeout_s is None
                   else drain_timeout_s)
        clean = True
        try:
            await asyncio.wait_for(self._all_drained.wait(),
                                   timeout=timeout)
        except asyncio.TimeoutError:
            clean = False
        for task in list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        return clean

    # -- internals --------------------------------------------------------

    def _pending_delta(self, delta: int) -> None:
        self._pending_total += delta
        if self._pending_total <= 0:
            self._all_drained.set()
        else:
            self._all_drained.clear()

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        self.counters["connections"] += 1
        loop = asyncio.get_running_loop()
        pending: dict[int, FleetRequest] = {}
        done_queue: asyncio.Queue = asyncio.Queue()

        async def send(obj: dict[str, Any]) -> None:
            writer.write(pack_msg(obj))
            await writer.drain()

        def bridge(rid: int, request: FleetRequest) -> None:
            # runs on whichever thread finished the request: the
            # router's loop, which may or may not be this one
            loop.call_soon_threadsafe(done_queue.put_nowait,
                                      (rid, request))

        def next_frame() -> asyncio.Task:
            return loop.create_task(read_msg(reader, self.max_frame))

        async def deliver() -> None:
            """Send the ``done`` of the next request to complete
            (waits for one)."""
            nonlocal completion
            rid, request = await completion
            completion = loop.create_task(done_queue.get())
            if pending.pop(rid, None) is None:
                return
            self._pending_delta(-1)
            payload = dict(request.result(timeout_s=0.0))
            payload["op"] = "done"
            payload["rid"] = rid
            self.counters["dones"] += 1
            await send(payload)

        async def submit(msg: dict[str, Any]) -> None:
            rid = int(msg.get("rid", 0))
            if self._draining:
                self.counters["rejected"] += 1
                await send({"op": "ack", "rid": rid,
                            "state": "draining"})
                return
            while len(pending) >= self.max_pending_per_conn:
                # backpressure: stop reading frames until a slot frees
                # (TCP pushes back on the client)
                await deliver()
            try:
                request = self.router.submit(
                    msg["app"], size=msg.get("size", 32),
                    seed=msg.get("seed", 0), slo=msg.get("slo"),
                    wait_s=float(msg.get("wait_s", 0.0)))
            except Exception as exc:
                # a bad spec fails only this request
                await send({"op": "done", "rid": rid,
                            "state": "failed",
                            "errors": [f"{type(exc).__name__}: {exc}"]})
                return
            pending[rid] = request
            self._pending_delta(+1)
            self.counters["submits"] += 1
            await send({"op": "ack", "rid": rid, "state": "accepted",
                        "pending": len(pending)})
            request.add_done_callback(functools.partial(bridge, rid))

        # the connection sleeps on "a frame arrived" or "a request
        # completed", whichever is first — never on a timer, except the
        # idle timeout while nothing is in flight
        read = next_frame()
        completion = loop.create_task(done_queue.get())
        idle_since = loop.time()
        try:
            while True:
                timeout = None
                if not pending:
                    timeout = (idle_since + self.idle_timeout_s
                               - loop.time())
                    if timeout <= 0:
                        self.counters["idle_closes"] += 1
                        try:
                            await send({"op": "bye",
                                        "reason": "idle-timeout"})
                        except (ConnectionError, OSError):
                            pass
                        return
                await asyncio.wait({read, completion}, timeout=timeout,
                                   return_when=asyncio.FIRST_COMPLETED)
                if completion.done():
                    await deliver()
                    continue
                if not read.done():
                    continue
                try:
                    msg = read.result()
                    if msg is None:
                        return      # clean EOF or mid-frame disconnect
                    op = msg.get("op")
                    if op == "submit":
                        await submit(msg)
                    elif op == "stats":
                        stats = await loop.run_in_executor(
                            None, self.router.aggregate_stats)
                        await send({"op": "stats", "rid": msg.get("rid"),
                                    "stats": stats,
                                    "frontend": dict(self.counters)})
                    elif op in ("bye", "shutdown"):
                        while pending:
                            await deliver()
                        await send({"op": "bye"})
                        return
                    # unknown ops ignored: forward compatibility
                except (FrameError, *FIELD_ERRORS) as exc:
                    # a corrupt frame, or one whose field is missing or
                    # mistyped: report it and close the connection
                    self.counters["frame_errors"] += 1
                    try:
                        await send({"op": "error", "error": str(exc)})
                    except (ConnectionError, OSError):
                        pass
                    return
                read = next_frame()
                idle_since = loop.time()
        except OSError:
            return          # a reset, mid-frame or not
        finally:
            read.cancel()
            completion.cancel()
            self._pending_delta(-len(pending))
            pending.clear()
            writer.close()
            # reap both waits (and whatever a finished one raised)
            await asyncio.gather(read, completion,
                                 return_exceptions=True)
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class AioFleetClient:
    """Async client for :class:`AioFrontend` (tests / tutorial / CI).

    ``submit`` returns once the front end ACKs and resolves to an
    awaitable future of the terminal ``done`` payload.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 max_frame: int = MAX_FRAME) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._rids = iter(range(1, 1 << 31))
        self._acks: dict[int, asyncio.Future] = {}
        self._dones: dict[int, asyncio.Future] = {}
        self._stats: list[asyncio.Future] = []
        self._closed = asyncio.get_running_loop().create_future()
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int,
                      **kwargs: Any) -> "AioFleetClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, **kwargs)

    async def _read_loop(self) -> None:
        error: Exception | None = None
        try:
            while True:
                msg = await read_msg(self._reader, self._max_frame)
                if msg is None:
                    return
                op = msg.get("op")
                if op == "ack":
                    fut = self._acks.pop(int(msg.get("rid", 0)), None)
                    if fut is not None and not fut.done():
                        fut.set_result(msg)
                elif op == "done":
                    # a refused spec gets its `done` and never an `ack`
                    for table in (self._dones, self._acks):
                        fut = table.pop(int(msg.get("rid", 0)), None)
                        if fut is not None and not fut.done():
                            fut.set_result(msg)
                elif op == "stats":
                    if self._stats:
                        fut = self._stats.pop(0)
                        if not fut.done():
                            fut.set_result(msg)
                elif op == "error":
                    error = RuntimeError(msg.get("error", "protocol"))
                    return
                elif op == "bye":
                    return
        except ConnectionError:
            return
        except FrameError as exc:
            error = exc
            return
        finally:
            eof = error or ConnectionError("frontend closed")
            for table in (self._acks, self._dones):
                for fut in table.values():
                    if not fut.done():
                        fut.set_exception(eof)
                table.clear()
            for fut in self._stats:
                if not fut.done():
                    fut.set_exception(eof)
            self._stats.clear()
            if not self._closed.done():
                if error is not None:
                    self._closed.set_exception(error)
                else:
                    self._closed.set_result(None)

    async def _send(self, obj: dict[str, Any]) -> None:
        self._writer.write(pack_msg(obj))
        await self._writer.drain()

    async def submit(self, app: str, size: int = 32, seed: int = 0,
                     slo: dict[str, Any] | None = None,
                     wait_s: float = 0.0) -> asyncio.Future:
        """Submit one spec; returns after the ACK with a future that
        resolves to the ``done`` payload."""
        loop = asyncio.get_running_loop()
        rid = next(self._rids)
        ack_fut = self._acks[rid] = loop.create_future()
        done = self._dones[rid] = loop.create_future()
        await self._send({"op": "submit", "rid": rid, "app": app,
                          "size": size, "seed": seed, "slo": slo,
                          "wait_s": wait_s})
        ack = await ack_fut
        if ack.get("state") != "accepted":
            self._dones.pop(rid, None)
            if not done.done():
                done.set_result({"op": "done", "rid": rid,
                                 "state": ack.get("state", "rejected"),
                                 "errors": ["not accepted"]})
        return done

    async def stats(self) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._stats.append(fut)
        await self._send({"op": "stats"})
        return await fut

    async def close(self, polite: bool = True) -> None:
        """Close the connection (``bye`` first when ``polite`` — the
        front end flushes every pending ``done`` before replying)."""
        if polite:
            try:
                await self._send({"op": "bye"})
                await asyncio.wait_for(asyncio.shield(self._closed),
                                       timeout=10.0)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
        self._task.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def serve_front(router: FleetRouter, host: str = "127.0.0.1",
                port: int = 0,
                announce: Any = None, **kwargs: Any) -> None:
    """Run a front end on the started ``router``'s own loop until
    SIGTERM/SIGINT, then drain gracefully (the blocking entry point
    behind ``repro serve-front``).  ``announce(host, port)`` runs on
    that loop once the port is bound."""
    loop = router.loop
    if loop is None:
        raise RuntimeError("serve_front needs a started router")
    stop_requested = asyncio.Event()

    async def main() -> None:
        front = AioFrontend(router, host, port, **kwargs)
        bound = await front.start()
        if announce is not None:
            announce(*bound)
        await stop_requested.wait()
        await front.stop()

    def on_signal(signum: int, frame: Any) -> None:
        loop.call_soon_threadsafe(stop_requested.set)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, on_signal)
        except ValueError:      # not the main thread: no signals here
            pass
    try:
        asyncio.run_coroutine_threadsafe(main(), loop).result()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
