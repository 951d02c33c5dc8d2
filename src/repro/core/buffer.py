"""Versioned output buffers (paper Properties 2 and 3).

Every anytime computation stage owns exactly one output buffer; all of its
intermediate outputs go into that buffer, no other stage may write it
(Property 2), and each write is atomic (Property 3).  Consumers take
*snapshots*: an immutable (value, version, final) triple.  A consumer never
observes a half-written value, and the model's correctness argument — "g
processes whichever output F_i happens to be in the buffer" — rests on
these two properties.

Arrays are stored with ``writeable=False`` and snapshots hand out the same
frozen array, so a misbehaving consumer that tries to mutate its input
(violating Property 1 purity) fails loudly instead of corrupting the
producer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["Snapshot", "VersionedBuffer"]


@dataclass(frozen=True)
class Snapshot:
    """An atomic view of a buffer: value, its version and finality.

    ``version`` starts at 0 (nothing written yet, ``value is None``) and
    increments with each write.  ``final`` marks the precise output: the
    guarantee of the model is that every buffer eventually carries a final
    snapshot.  ``sealed`` marks a buffer frozen *without* reaching its
    final version — its producer degraded, so the newest version is the
    best approximation this run will ever hold (fault tolerance).
    """

    name: str
    value: Any
    version: int
    final: bool
    sealed: bool = False

    @property
    def empty(self) -> bool:
        """True when nothing has been written yet."""
        return self.version == 0

    @property
    def exhausted(self) -> bool:
        """No newer version will ever appear (final or sealed)."""
        return self.final or self.sealed


def _freeze(value: Any, transfer: bool = False) -> Any:
    """Make a value being written read-only, copying only when needed.

    The default path copies defensively: the writer may keep mutating
    its array after the write.  ``transfer=True`` is the writer's
    promise that it hands over ownership (the array is freshly
    allocated and never touched again), so the copy is skipped and the
    caller's array itself is frozen in place.  An array that is already
    non-writeable is immutable by construction and is likewise stored
    as-is — either way a version costs O(1) array allocations instead
    of O(elements).
    """
    if isinstance(value, np.ndarray):
        if not value.flags.writeable:
            return value
        if transfer:
            value.setflags(write=False)
            return value
        frozen = value.copy()
        frozen.setflags(write=False)
        return frozen
    return value


class VersionedBuffer:
    """A single-writer, atomically updated, versioned value holder.

    Parameters
    ----------
    name:
        Buffer name (unique within an automaton graph).

    Thread safety: writes and snapshots are serialized by an internal
    lock.  A consumer waits for a newer version on an event registered
    with :meth:`subscribe`, which every write and seal sets.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: Any = None
        self._version = 0
        self._final = False
        self._sealed = False
        self._writer: str | None = None
        self._watchers: list[threading.Event] = []
        #: optional observability hook ``tracer(kind, name, **args)``,
        #: installed by an executor when tracing is enabled (see
        #: :mod:`repro.core.tracing`); called outside the lock
        self.tracer = None

    def register_writer(self, stage_name: str) -> None:
        """Claim this buffer for a stage (Property 2 enforcement).

        Raises ``ValueError`` if another stage already owns it.
        """
        with self._lock:
            if self._writer is not None and self._writer != stage_name:
                raise ValueError(
                    f"buffer {self.name!r} already written by "
                    f"{self._writer!r}; {stage_name!r} may not write it "
                    f"(Property 2)")
            self._writer = stage_name

    @property
    def writer(self) -> str | None:
        return self._writer

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    @property
    def final(self) -> bool:
        with self._lock:
            return self._final

    @property
    def sealed(self) -> bool:
        with self._lock:
            return self._sealed

    def write(self, value: Any, final: bool = False,
              writer: str | None = None, transfer: bool = False) -> int:
        """Atomically publish a new version; returns the version number.

        A buffer that has carried its final version is frozen: further
        writes are rejected (the precise output must not regress).  A
        sealed buffer likewise rejects writes — its producer degraded
        and downstream may already have finished on the sealed version.

        ``transfer=True`` declares an ownership-transfer write: the
        caller promises never to touch ``value`` again, so the
        defensive copy is skipped and the array is frozen in place
        (see :func:`_freeze`).
        """
        with self._lock:
            if writer is not None and self._writer is not None \
                    and writer != self._writer:
                raise ValueError(
                    f"stage {writer!r} wrote buffer {self.name!r} owned "
                    f"by {self._writer!r} (Property 2)")
            if self._final:
                raise ValueError(
                    f"buffer {self.name!r} is final; writes are frozen")
            if self._sealed:
                raise ValueError(
                    f"buffer {self.name!r} is sealed (producer "
                    f"degraded); writes are frozen")
            self._value = _freeze(value, transfer=transfer)
            self._version += 1
            self._final = bool(final)
            self._notify()
            version = self._version
        if self.tracer is not None:
            self.tracer("buffer.write", self.name, version=version,
                        final=bool(final), writer=writer)
        return version

    def seal(self) -> None:
        """Freeze the buffer at its current version without finality.

        Idempotent.  Consumers waiting for a newer version wake up and
        observe ``sealed=True``: the newest version is the best this
        producer will ever publish (it degraded or the run is winding
        down), so waiting longer is pointless.
        """
        with self._lock:
            already = self._sealed
            self._sealed = True
            self._notify()
            version = self._version
        if self.tracer is not None and not already:
            self.tracer("buffer.seal", self.name, version=version)

    def subscribe(self, event: threading.Event) -> None:
        """Register an event set on every write or seal.

        Lets a consumer block on *several* input buffers at once: it
        subscribes one event to each and waits on that single event
        (the threaded executor's multi-input wake-up path).
        """
        with self._lock:
            if event not in self._watchers:
                self._watchers.append(event)

    def unsubscribe(self, event: threading.Event) -> None:
        with self._lock:
            if event in self._watchers:
                self._watchers.remove(event)

    def _notify(self) -> None:
        # caller holds self._lock
        for event in self._watchers:
            event.set()

    def snapshot(self) -> Snapshot:
        """Atomically read (value, version, final, sealed)."""
        with self._lock:
            return Snapshot(self.name, self._value, self._version,
                            self._final, self._sealed)
