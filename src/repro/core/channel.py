"""Update channels for synchronous pipelines (paper Section III-C2).

A synchronous pipeline streams a diffusive parent's *updates* ``X_i`` to a
distributive child instead of whole output versions ``F_i``.  Unlike the
asynchronous case — where skipping versions is fine because only ``F_n``
matters — every update is necessary for the child's final output, so the
parent "must synchronize such that f does not overwrite X_i with X_{i+1}
before g_S(X_i) begins executing".  A FIFO queue provides exactly that
guarantee; an optional capacity bound models a small hardware buffer with
backpressure.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

__all__ = ["ChannelClosed", "UpdateChannel"]


class ChannelClosed(Exception):
    """Raised when receiving from a closed, drained channel."""


class UpdateChannel:
    """A FIFO stream of updates from one producer to one consumer.

    Parameters
    ----------
    name:
        Channel name (for diagnostics).
    capacity:
        Maximum queued updates before the producer blocks (None =
        unbounded).  Capacity 1 reproduces the paper's strictest
        synchronization: the producer may run at most one update ahead.
    """

    def __init__(self, name: str, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._cond = threading.Condition()
        self._queue: deque[Any] = deque()
        self._closed = False
        self._aborted = False
        self.emitted = 0
        self.received = 0
        #: optional observability hook ``tracer(kind, name, **args)``,
        #: installed by an executor when tracing is enabled (see
        #: :mod:`repro.core.tracing`); called outside the lock
        self.tracer = None

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def aborted(self) -> bool:
        with self._cond:
            return self._aborted

    def __len__(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def full(self) -> bool:
        with self._cond:
            return (self.capacity is not None
                    and len(self._queue) >= self.capacity)

    def emit(self, update: Any, timeout: float | None = None) -> None:
        """Enqueue one update; blocks while the channel is full."""
        with self._cond:
            if self._closed:
                raise ChannelClosed(
                    f"emit on closed channel {self.name!r}")
            while (self.capacity is not None
                   and len(self._queue) >= self.capacity):
                if not self._cond.wait(timeout):
                    raise TimeoutError(
                        f"emit timed out on full channel {self.name!r}")
                if self._closed:
                    raise ChannelClosed(
                        f"emit on closed channel {self.name!r}")
            self._queue.append(update)
            self.emitted += 1
            self._cond.notify_all()
            queued = len(self._queue)
        if self.tracer is not None:
            self.tracer("channel.emit", self.name, queued=queued)

    def try_emit(self, update: Any) -> bool:
        """Non-blocking emit; returns False when full."""
        with self._cond:
            if self._closed:
                raise ChannelClosed(
                    f"emit on closed channel {self.name!r}")
            if (self.capacity is not None
                    and len(self._queue) >= self.capacity):
                return False
            self._queue.append(update)
            self.emitted += 1
            self._cond.notify_all()
            queued = len(self._queue)
        if self.tracer is not None:
            self.tracer("channel.emit", self.name, queued=queued)
        return True

    def close(self) -> None:
        """Mark the stream complete; queued updates remain receivable."""
        with self._cond:
            already = self._closed
            self._closed = True
            self._cond.notify_all()
        if self.tracer is not None and not already:
            self.tracer("channel.close", self.name)

    def abort(self) -> None:
        """Close the stream because one endpoint died (fault path).

        Unlike :meth:`close`, an aborted channel marks the stream
        *incomplete*: updates were lost, so the consumer's aggregate
        must not be published as final.  Queued updates remain
        receivable; a blocked producer is released (its next emit
        raises :class:`ChannelClosed`).
        """
        with self._cond:
            already = self._aborted
            self._closed = True
            self._aborted = True
            self._cond.notify_all()
            queued = len(self._queue)
        if self.tracer is not None and not already:
            self.tracer("channel.abort", self.name, queued=queued)

    def wait_ready(self, sending: bool, timeout: float,
                   halt: threading.Event | None = None) -> None:
        """Block up to ``timeout`` until an emit (``sending``) or a recv
        would not block, the channel closes, or ``halt`` is set (whoever
        sets it then calls :meth:`wake`).  Pairs with :meth:`try_emit` /
        :meth:`try_recv` for a caller that applies them under a lock of
        its own."""
        with self._cond:
            self._cond.wait_for(
                lambda: self._closed
                or (halt is not None and halt.is_set()) or (
                    self.capacity is None
                    or len(self._queue) < self.capacity if sending
                    else bool(self._queue)), timeout)

    def wake(self) -> None:
        """Make every :meth:`wait_ready` look at its conditions again:
        a run that halts sets its halt event, then wakes its channels,
        so a stage blocked on one sees the halt at once."""
        with self._cond:
            self._cond.notify_all()

    def recv(self, timeout: float | None = None) -> Any:
        """Dequeue the next update; blocks while empty.

        Raises :class:`ChannelClosed` once the channel is closed and
        drained — the consumer's signal to finalize its output.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    raise ChannelClosed(
                        f"channel {self.name!r} is closed and drained")
                if not self._cond.wait(timeout):
                    raise TimeoutError(
                        f"recv timed out on channel {self.name!r}")
            update = self._queue.popleft()
            self.received += 1
            self._cond.notify_all()
            queued = len(self._queue)
        if self.tracer is not None:
            self.tracer("channel.recv", self.name, queued=queued)
        return update

    def try_recv(self) -> tuple[bool, Any]:
        """Non-blocking receive: (True, update) or (False, None).

        Raises :class:`ChannelClosed` when closed and drained.
        """
        with self._cond:
            if not self._queue:
                if self._closed:
                    raise ChannelClosed(
                        f"channel {self.name!r} is closed and drained")
                return False, None
            self.received += 1
            update = self._queue.popleft()
            self._cond.notify_all()
            queued = len(self._queue)
        if self.tracer is not None:
            self.tracer("channel.recv", self.name, queued=queued)
        return True, update
