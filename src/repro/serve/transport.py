"""Fleet transports: how a router reaches its workers.

The fleet's wire protocol (:mod:`repro.serve.fleet`) is transport-
agnostic — length-prefixed JSON frames over any stream socket.  This
module supplies the two ways a :class:`~repro.serve.router.FleetRouter`
obtains those sockets; the router's ``endpoints`` choose between them
(given: TCP, absent: fork):

:class:`ForkTransport`
    The original single-host mode: fork a worker process per ring
    index over an ``AF_UNIX`` socketpair.  Dead workers are
    re-forkable (``respawnable``), so the router replaces them at the
    same ring index.

:class:`TcpTransport`
    Cross-host mode: connect to externally launched workers
    (``repro serve-worker --listen host:port``) over ``AF_INET``.  The
    router does not own those processes, so a dead worker is *not*
    respawned — its keys and in-flight requests migrate to survivors,
    with suspend checkpoints inline in the re-dispatched ``submit``
    (the destination never needs a shared filesystem).

Helpers: :func:`parse_endpoint` (``"host:port"`` → tuple),
:func:`serve_worker_listener` (the accept loop behind
``repro serve-worker``), and :func:`spawn_local_tcp_worker` (fork a
localhost TCP worker and report its bound port — what tests, the
latency benchmark and the tutorial use to stand up a fleet without
separate terminals).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
from typing import Any, Callable

from .fleet import worker_main

__all__ = ["parse_endpoint", "ForkTransport", "TcpTransport",
           "serve_worker_listener", "spawn_local_tcp_worker"]

#: seconds a router waits to connect to a TCP worker
CONNECT_TIMEOUT_S = 10.0

#: seconds :func:`spawn_local_tcp_worker` waits for its bound port
START_TIMEOUT_S = 15.0


def parse_endpoint(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (host may contain colons only
    if bracketed is not needed — IPv4/hostname form)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {text!r}")
    return host, int(port)


class ForkTransport:
    """Fork one worker per ring index over an AF_UNIX socketpair."""

    #: the router may fork a replacement at a dead worker's ring index
    respawnable = True

    def spawn(self, index: int,
              config: dict[str, Any]) -> tuple[Any, socket.socket]:
        ctx = multiprocessing.get_context("fork")
        parent_sock, child_sock = socket.socketpair()
        process = ctx.Process(
            target=_fork_entry, args=(child_sock, config),
            name=f"fleet-worker-{index}", daemon=True)
        process.start()
        child_sock.close()
        return process, parent_sock


def _fork_entry(sock: socket.socket, config: dict[str, Any]) -> None:
    # a worker forked while a front end handles SIGTERM (a respawn under
    # ``serve_front``) must still die of it
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    worker_main(sock, config)


class TcpTransport:
    """Connect to externally launched TCP workers, one per endpoint.

    The worker at ``endpoints[i]`` takes ring index ``i``.  Worker
    behaviour (slots, executor, resume_dir, …) is fixed by whoever
    launched the worker; the router's ``worker_config`` does not cross
    the wire.  Workers are not owned by the router: a death is
    terminal for that ring index (no respawn), and survivors absorb
    its key range.
    """

    respawnable = False

    def __init__(self, endpoints: list[str | tuple[str, int]]) -> None:
        if not endpoints:
            raise ValueError("TcpTransport needs at least one endpoint")
        self.endpoints = [ep if isinstance(ep, tuple)
                          else parse_endpoint(ep) for ep in endpoints]

    def spawn(self, index: int,
              config: dict[str, Any]) -> tuple[None, socket.socket]:
        host, port = self.endpoints[index]
        sock = socket.create_connection((host, port),
                                        timeout=CONNECT_TIMEOUT_S)
        sock.settimeout(None)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        return None, sock


def serve_worker_listener(listen: str | tuple[str, int],
                          config: dict[str, Any] | None = None,
                          *, once: bool = True,
                          announce: Callable[[str, int], None]
                          | None = None) -> None:
    """Bind a TCP listener and serve routers (``repro serve-worker``).

    Accepts one router connection at a time and runs
    :func:`~repro.serve.fleet.worker_main` on it (a fresh
    ``AnytimeServer`` per connection); returns after the first router
    disconnects unless ``once=False``.  ``announce`` receives the
    actually bound ``(host, port)`` — useful with port 0.
    """
    host, port = (parse_endpoint(listen) if isinstance(listen, str)
                  else listen)
    listener = socket.create_server((host, port))
    try:
        bound = listener.getsockname()
        if announce is not None:
            announce(bound[0], bound[1])
        while True:
            conn, _ = listener.accept()
            try:
                conn.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
            except OSError:
                pass
            try:
                worker_main(conn, config)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
            if once:
                return
    finally:
        try:
            listener.close()
        except OSError:
            pass


def spawn_local_tcp_worker(config: dict[str, Any] | None = None,
                           ) -> tuple[Any, tuple[str, int]]:
    """Fork a localhost TCP worker; returns ``(process, (host, port))``.

    The child runs :func:`serve_worker_listener` on an ephemeral
    ``127.0.0.1`` port, reports the port back over a pipe, then serves
    exactly one router connection to EOF.  The caller owns the process
    (terminate/join it after shutting the router down).
    """
    ctx = multiprocessing.get_context("fork")
    ready_r, ready_w = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_tcp_worker_entry, args=(ready_w, config),
        name="fleet-tcp-worker", daemon=True)
    process.start()
    ready_w.close()
    if not ready_r.poll(START_TIMEOUT_S):
        process.terminate()
        process.join(timeout=2.0)
        raise RuntimeError("TCP worker did not report a bound port")
    port = ready_r.recv()
    ready_r.close()
    return process, ("127.0.0.1", int(port))


def _tcp_worker_entry(ready: Any, config: dict[str, Any] | None) -> None:
    def announce(host: str, port: int) -> None:
        ready.send(port)
        ready.close()

    serve_worker_listener(("127.0.0.1", 0), config, announce=announce)
    os._exit(0)
