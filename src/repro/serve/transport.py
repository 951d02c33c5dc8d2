"""Fleet transport: how a router reaches its workers.

The fleet's wire protocol (:mod:`repro.serve.fleet`) is length-prefixed
JSON frames over a TCP socket, and every worker is the same TCP
listener.  A :class:`~repro.serve.router.FleetRouter` reaches its
workers one of two ways:

* **Owned local workers** (no ``endpoints``): the router forks each one
  with :func:`spawn_local_tcp_worker` and connects to it.  It owns the
  process, so with ``respawn`` it forks a replacement at a dead
  worker's ring index.
* **Endpoints**: the router connects to workers someone else launched
  (``repro serve-worker --listen host:port``), possibly on other hosts.
  It does not own them, so a death is terminal for that ring index; its
  keys and in-flight requests migrate to survivors, with suspend
  checkpoints inline in the re-dispatched ``submit`` (the destination
  never needs a shared filesystem).

Helpers: :func:`parse_endpoint` (``"host:port"`` → tuple),
:func:`connect_worker` (the router's side of either way),
:func:`serve_worker_listener` (bind and serve, behind
``repro serve-worker``), and :func:`spawn_local_tcp_worker` (fork a
localhost worker on a port bound before the fork — what the router,
tests, the latency benchmark and the tutorial use to stand up a fleet
without separate terminals).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
from typing import Any, Callable

from .fleet import worker_main

__all__ = ["parse_endpoint", "connect_worker", "serve_worker_listener",
           "spawn_local_tcp_worker"]

#: seconds a router waits to connect to a TCP worker
CONNECT_TIMEOUT_S = 10.0


def parse_endpoint(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (host may contain colons only
    if bracketed is not needed — IPv4/hostname form)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {text!r}")
    return host, int(port)


def _no_delay(sock: socket.socket) -> socket.socket:
    # a frame is small and a reply often follows another at once: Nagle
    # would hold it for the peer's delayed ACK (40 ms on Linux)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def connect_worker(endpoint: tuple[str, int]) -> socket.socket:
    """A blocking ``TCP_NODELAY`` connection to the worker at
    ``endpoint``."""
    sock = socket.create_connection(endpoint, timeout=CONNECT_TIMEOUT_S)
    sock.settimeout(None)
    return _no_delay(sock)


def _serve(listener: socket.socket, config: dict[str, Any] | None,
           once: bool) -> None:
    """Accept one router at a time on ``listener`` and run
    :func:`~repro.serve.fleet.worker_main` on it (a fresh
    ``AnytimeServer`` per connection)."""
    while True:
        conn, _ = listener.accept()
        with conn:
            worker_main(_no_delay(conn), config)
        if once:
            return


def serve_worker_listener(listen: str | tuple[str, int],
                          config: dict[str, Any] | None = None,
                          *, once: bool = True,
                          announce: Callable[[str, int], None]
                          | None = None) -> None:
    """Bind a TCP listener and serve routers (``repro serve-worker``).

    Returns after the first router disconnects unless ``once=False``.
    ``announce`` receives the actually bound ``(host, port)`` — useful
    with port 0.
    """
    host, port = (parse_endpoint(listen) if isinstance(listen, str)
                  else listen)
    with socket.create_server((host, port)) as listener:
        if announce is not None:
            announce(*listener.getsockname()[:2])
        _serve(listener, config, once)


def spawn_local_tcp_worker(config: dict[str, Any] | None = None,
                           ) -> tuple[Any, tuple[str, int]]:
    """Fork a localhost TCP worker; returns ``(process, (host, port))``.

    The port is bound here, before the fork, so the caller can connect
    at once: the child accepts exactly one router connection, serves it
    to EOF and exits.  The caller owns the process (terminate/join it
    after shutting the router down).
    """
    with socket.create_server(("127.0.0.1", 0)) as listener:
        process = multiprocessing.get_context("fork").Process(
            target=_local_worker_entry, args=(listener, config),
            name="fleet-tcp-worker", daemon=True)
        process.start()
        return process, listener.getsockname()[:2]


def _local_worker_entry(listener: socket.socket,
                        config: dict[str, Any] | None) -> None:
    # a worker forked while its spawner handles SIGTERM (a respawn under
    # ``serve_front``) must still die of it
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _serve(listener, config, once=True)
    os._exit(0)
