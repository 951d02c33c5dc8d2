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
  submits with ``state="draining"``, waits (:data:`DRAIN_TIMEOUT_S`
  unless told otherwise) for in-flight requests to finish delivering,
  then closes.

Client-bound ops mirror the fleet's: ``ack`` (admission echo), ``done``
(terminal result payload — the router's, including ``value_digest``,
``memo_hit`` and ``fleet_memo``), ``stats``, ``error``, ``bye``.
Worker-bound ops accepted: ``submit`` (``rid`` chosen by the client; a
``rid`` already pending on the connection is refused, acked
``state="rejected"``), ``stats``, ``bye``.  Frames over
:data:`~repro.serve.fleet.MAX_FRAME`, non-JSON frames and frames whose
fields break :data:`~repro.serve.fleet.FIELDS` get a structured
``error`` (when the socket still writes) and a close; a truncated frame
is a clean EOF — never a hang.

:class:`AioFleetClient` is the matching client used by the tests, the
tutorial, and the CI smoke.

:func:`serve_front` runs the front end on the router's own loop: a
submit is dispatched inline, and a ``done`` reaches its connection on
the same thread.  On any other loop the ``done`` hand-off
(``loop.call_soon_threadsafe``) works just the same; only the rare
``stats`` op uses an executor.  Each connection is one
:class:`~repro.serve.fleet.FrameProtocol`: frames are acted on as they
are cut, and a ``done`` is sent from its request's callback, so it
leaves the moment the router finishes the request — no delivery poll
and no task per connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import signal
from typing import Any

from .fleet import FrameError, FrameProtocol
from .router import FleetRequest, FleetRouter

__all__ = ["AioFrontend", "AioFleetClient", "serve_front"]

#: seconds a graceful drain waits for in-flight requests by default
DRAIN_TIMEOUT_S = 30.0


class AioFrontend:
    """Event-loop server bridging external TCP clients to a router."""

    def __init__(self, router: FleetRouter,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_pending_per_conn: int = 8,
                 idle_timeout_s: float = 60.0) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.max_pending_per_conn = int(max_pending_per_conn)
        self.idle_timeout_s = float(idle_timeout_s)
        self.counters = {"connections": 0, "submits": 0, "dones": 0,
                         "rejected": 0, "frame_errors": 0,
                         "idle_closes": 0}
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._connections: set[_Connection] = set()
        #: set while no connection has a request in flight
        self._drained = asyncio.Event()
        self._drained.set()

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``
        (useful with port 0)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self, drain_timeout_s: float = DRAIN_TIMEOUT_S) -> bool:
        """Graceful drain: stop accepting, refuse new submits, wait
        (at most ``drain_timeout_s``) for in-flight requests to
        deliver, close every connection, dropping what a client left
        unread.  True if the drain completed cleanly."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        clean = True
        try:
            await asyncio.wait_for(self._drained.wait(),
                                   timeout=drain_timeout_s)
        except asyncio.TimeoutError:
            clean = False
        connections = list(self._connections)
        for conn in connections:
            # what a client has not read by now it never will: a close
            # would wait for it to read the rest
            conn.transport.abort()
        await asyncio.gather(*(asyncio.shield(c.closed) for c in connections))
        if self._server is not None:
            await self._server.wait_closed()
        return clean

    def _check_drained(self) -> None:
        if not any(conn.pending for conn in self._connections):
            self._drained.set()


class _Connection(FrameProtocol):
    """One client of an :class:`AioFrontend`.

    A ``done`` is sent from its request's callback, handed to this loop
    (``call_soon_threadsafe``) by whichever thread finished it.  No
    frame is read (a hold) while ``max_pending_per_conn`` requests are
    in flight, while a ``stats`` is out, or after a ``bye``.  One timer
    closes the connection once nothing was in flight and no frame came
    for ``idle_timeout_s``."""

    def __init__(self, front: AioFrontend) -> None:
        super().__init__()
        self.front = front
        self.loop = asyncio.get_running_loop()
        self.closed = self.loop.create_future()
        self.pending: dict[int, FleetRequest] = {}
        self._idle = self.loop.call_later(front.idle_timeout_s,
                                          self._on_idle)
        self._said_bye = False

    def connection_made(self, transport: Any) -> None:
        super().connection_made(transport)
        self.front._connections.add(self)
        self.front.counters["connections"] += 1

    def connection_lost(self, exc: Exception | None) -> None:
        self._idle.cancel()
        self.pending.clear()
        self.front._connections.discard(self)
        self.front._check_drained()
        self.closed.set_result(None)

    def frame_error(self, exc: FrameError) -> None:
        self.front.counters["frame_errors"] += 1
        super().frame_error(exc)

    def frame_received(self, msg: dict[str, Any]) -> None:
        op = msg["op"]
        if op == "submit":
            self._submit(msg)
        elif op == "stats":
            self.hold("stats")
            self.loop.run_in_executor(
                None, self.front.router.aggregate_stats).add_done_callback(
                functools.partial(self._send_stats, msg["rid"]))
        elif op in ("bye", "shutdown"):
            # every pending done is sent before the bye
            self._said_bye = True
            self.hold("bye")
            if not self.pending:
                self._close_with({"op": "bye"})
        # unknown ops ignored: forward compatibility
        self._rearm_idle()

    def _submit(self, msg: dict[str, Any]) -> None:
        front, rid = self.front, msg["rid"]
        if front._draining or rid in self.pending:
            # a rid already in flight is refused: its done would be lost
            front.counters["rejected"] += 1
            self.send({"op": "ack", "rid": rid,
                       "state": "draining" if front._draining
                       else "rejected"})
            return
        try:
            request = front.router.submit(
                msg["app"], size=msg["size"], seed=msg["seed"],
                slo=msg["slo"], wait_s=msg["wait_s"])
        except Exception as exc:
            # a bad spec fails only this request
            self.send({"op": "done", "rid": rid, "state": "failed",
                       "errors": [f"{type(exc).__name__}: {exc}"]})
            return
        self.pending[rid] = request
        front._drained.clear()
        front.counters["submits"] += 1
        self.send({"op": "ack", "rid": rid, "state": "accepted",
                   "pending": len(self.pending)})
        if len(self.pending) >= front.max_pending_per_conn:
            # backpressure: no frame is read until a slot frees, so TCP
            # pushes back on the client
            self.hold("full")
        request.add_done_callback(
            lambda request: self.loop.call_soon_threadsafe(
                self._deliver, rid, request))

    def _deliver(self, rid: int, request: FleetRequest) -> None:
        if self.pending.pop(rid, None) is None:
            return      # the connection ended first
        self.front.counters["dones"] += 1
        self.send({**request.result(timeout_s=0.0), "op": "done",
                   "rid": rid})
        if not self.pending:
            self.front._check_drained()
            if self._said_bye:
                self._close_with({"op": "bye"})
            self._rearm_idle()
        self.release("full")

    def _send_stats(self, rid: int | None, future: asyncio.Future) -> None:
        if future.exception() is not None:
            self._close_with({"op": "error",
                              "error": repr(future.exception())})
            return
        self.send({"op": "stats", "rid": rid, "stats": future.result(),
                   "frontend": dict(self.front.counters)})
        self.release("stats")

    def _close_with(self, msg: dict[str, Any]) -> None:
        self.send(msg)
        self.transport.close()

    def _rearm_idle(self) -> None:
        """Run the idle timer from now, if nothing is in flight."""
        self._idle.cancel()
        if not (self.pending or self.transport.is_closing()):
            self._idle = self.loop.call_later(
                self.front.idle_timeout_s, self._on_idle)

    def _on_idle(self) -> None:
        self.front.counters["idle_closes"] += 1
        self._close_with({"op": "bye", "reason": "idle-timeout"})


class AioFleetClient(FrameProtocol):
    """Async client for :class:`AioFrontend` (tests / tutorial / CI).

    ``submit`` returns once the front end ACKs and resolves to an
    awaitable future of the terminal ``done`` payload.
    """

    def __init__(self) -> None:
        super().__init__()
        self._rids = itertools.count(1)
        #: (reply op, rid) → the future that reply resolves
        self._waiters: dict[tuple[str, int], asyncio.Future] = {}
        self._error: Exception | None = None
        self._closed = asyncio.get_running_loop().create_future()

    @classmethod
    async def connect(cls, host: str, port: int) -> "AioFleetClient":
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port)
        return client

    def frame_received(self, msg: dict[str, Any]) -> None:
        op = msg["op"]
        if op in ("ack", "done", "stats"):
            # a refused spec gets its `done` and never an `ack`
            for reply in (op, "ack") if op == "done" else (op,):
                future = self._waiters.pop((reply, msg["rid"]), None)
                if future is not None and not future.done():
                    future.set_result(msg)
        elif op in ("error", "bye"):
            if op == "error":
                self._error = RuntimeError(msg["error"])
            self.transport.close()

    def frame_error(self, exc: FrameError) -> None:
        self._error = exc
        self.transport.close()

    def pause_writing(self) -> None:
        # reads on: a client's writes come from its caller, not from
        # the replies it reads (see the router's worker links)
        pass

    def connection_lost(self, exc: Exception | None) -> None:
        for future in self._waiters.values():
            if not future.done():
                future.set_exception(
                    self._error or ConnectionError("frontend closed"))
        self._waiters.clear()
        if self._error is None:
            self._closed.set_result(None)
        else:
            self._closed.set_exception(self._error)

    def _ask(self, msg: dict[str, Any],
             *replies: str) -> list[asyncio.Future]:
        """Send ``msg`` under a new rid; the futures of its replies."""
        if self.transport.is_closing():
            raise ConnectionError("frontend closed")
        rid = next(self._rids)
        self.send({**msg, "rid": rid})
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in replies]
        self._waiters.update(zip([(op, rid) for op in replies], futures))
        return futures

    async def submit(self, app: str, size: int = 32, seed: int = 0,
                     slo: dict[str, Any] | None = None,
                     wait_s: float = 0.0) -> asyncio.Future:
        """Submit one spec; returns after the ACK with a future that
        resolves to the ``done`` payload."""
        ack, done = self._ask({"op": "submit", "app": app, "size": size,
                               "seed": seed, "slo": slo, "wait_s": wait_s},
                              "ack", "done")
        ack = await ack
        if ack["state"] != "accepted" and not done.done():
            self._waiters.pop(("done", ack["rid"]), None)
            done.set_result({"op": "done", "rid": ack["rid"],
                             "state": ack["state"],
                             "errors": ["not accepted"]})
        return done

    async def stats(self) -> dict[str, Any]:
        (reply,) = self._ask({"op": "stats"}, "stats")
        return await reply

    async def close(self, polite: bool = True) -> None:
        """Close the connection (``bye`` first when ``polite`` — the
        front end flushes every pending ``done`` before replying)."""
        if polite and not self.transport.is_closing():
            self.send({"op": "bye"})
            with contextlib.suppress(ConnectionError, OSError,
                                     asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.shield(self._closed),
                                       timeout=10.0)
        self.transport.close()
        with contextlib.suppress(Exception):
            await self._closed


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
