"""Zero-copy shared-memory data plane for the process executor.

The process backend (:mod:`repro.core.procexec`) runs one worker process
per stage; only *control* messages travel over its pipes.  Every ndarray
payload of a buffer version is carried out-of-band in a
:class:`SlabRing` — a small ring of fixed-size slots inside one
``multiprocessing.shared_memory`` segment — and the control channel sees
nothing but :class:`NDRef` descriptors ``(segment, slot, offset, shape,
dtype)``.  A consumer process attaches the segment once and maps each
descriptor to a read-only ndarray view, so publishing a 1024x1024 image
version costs exactly one memcpy (producer heap -> slab) instead of a
pickle + pipe write + unpickle round trip.

Snapshot atomicity across the process boundary (paper Property 3) is
preserved by *slot pinning*: each slot carries a generation tag (the
version it holds) and a pin count in the slab header.  The coordinator
pins the slot it hands to a consumer and unpins the one that consumer
previously held; the writer never reuses a pinned slot or the slot it
wrote last.  With ``consumers + 2`` slots there is always a free slot
(latest + one pin per consumer + one spare), so the writer never blocks
and a consumer mid-computation can never observe a torn value.

All segments are registered with a :class:`SegmentRegistry`; the
coordinator unlinks every segment at the end of the run (including
abandoned generations after a ring grew), so no shared memory outlives
the executor even when workers are terminated mid-run.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

__all__ = [
    "NDRef", "SlabRing", "SlabWriter", "SegmentRegistry",
    "encode_payload", "decode_payload", "payload_arrays",
    "contains_ndarray",
]

#: bytes per slot header entry: (version int64, pins int64)
_HDR_ENTRY = 16

#: payload tree tags
_INLINE = "inline"
_ND = "nd"
_LIST = "list"
_TUPLE = "tuple"
_DICT = "dict"


@dataclass(frozen=True)
class NDRef:
    """Descriptor for one ndarray living in a slab slot.

    The only thing that crosses the control channel for an array
    payload.  ``segment`` names the shared-memory block, ``slots`` /
    ``slot_bytes`` describe the ring geometry (enough to attach without
    a side channel), ``slot``/``offset`` locate the bytes and
    ``shape``/``dtype`` rebuild the view.
    """

    segment: str
    slots: int
    slot_bytes: int
    slot: int
    offset: int
    shape: tuple[int, ...]
    dtype: str


def _new_segment_name() -> str:
    """A collision-resistant shared-memory name (``repro_`` prefixed)."""
    return f"repro_{secrets.token_hex(6)}"


class SlabRing:
    """A ring of fixed-size payload slots in one shared-memory segment.

    Layout: ``slots`` header entries of ``(version, pins)`` int64 pairs,
    then ``slots`` payload areas of ``slot_bytes`` each.  Header fields
    are only ever mutated under the owning buffer's lock (held by the
    writer when picking a slot and by the coordinator when pinning), so
    plain int64 stores suffice — no atomics needed.
    """

    def __init__(self, shm: shared_memory.SharedMemory, slots: int,
                 slot_bytes: int, owner: bool) -> None:
        self.shm = shm
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self.owner = owner
        header = np.frombuffer(shm.buf, dtype=np.int64,
                               count=2 * self.slots)
        self._header = header.reshape(self.slots, 2)

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, slots: int, slot_bytes: int) -> "SlabRing":
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        size = slots * _HDR_ENTRY + slots * slot_bytes
        shm = shared_memory.SharedMemory(create=True, size=size,
                                         name=_new_segment_name())
        ring = cls(shm, slots, slot_bytes, owner=True)
        ring._header[:] = 0
        return ring

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int) -> "SlabRing":
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, slots, slot_bytes, owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    # -- header ----------------------------------------------------------

    def version_of(self, slot: int) -> int:
        return int(self._header[slot, 0])

    def pins_of(self, slot: int) -> int:
        return int(self._header[slot, 1])

    def pin(self, slot: int) -> None:
        self._header[slot, 1] += 1

    def unpin(self, slot: int) -> None:
        if self._header[slot, 1] <= 0:   # pragma: no cover - invariant
            raise RuntimeError(
                f"unpin of unpinned slot {slot} in {self.name}")
        self._header[slot, 1] -= 1

    def pick_slot(self, skip: int | None) -> int | None:
        """An unpinned slot other than ``skip`` (None when full).

        ``skip`` is the writer's most recent slot, or None.  Caller
        holds the buffer lock.  With ``consumers + 2`` slots this never
        returns None (latest + one pin per consumer + a spare): every
        process write waits for its reply, so no slot is in flight.
        """
        for slot in range(self.slots):
            if slot != skip and self._header[slot, 1] == 0:
                return slot
        return None

    # -- payload ---------------------------------------------------------

    def write_arrays(self, slot: int, version: int,
                     arrays: list[np.ndarray]) -> list[tuple[int, Any,
                                                             str]]:
        """Copy arrays into a slot; returns ``(offset, shape, dtype)``s."""
        placements: list[tuple[int, Any, str]] = []
        offset = 0
        base = self.slots * _HDR_ENTRY + slot * self.slot_bytes
        for arr in arrays:
            nbytes = arr.nbytes
            if offset + nbytes > self.slot_bytes:   # pragma: no cover
                raise ValueError(
                    f"slot overflow in {self.name}: {offset + nbytes} > "
                    f"{self.slot_bytes}")
            dest = np.frombuffer(self.shm.buf, dtype=arr.dtype,
                                 count=arr.size,
                                 offset=base + offset)
            np.copyto(dest, arr.reshape(-1))
            placements.append((offset, tuple(arr.shape), arr.dtype.str))
            offset += nbytes
        self._header[slot, 0] = version
        return placements

    def view(self, slot: int, offset: int, shape: tuple[int, ...],
             dtype: str) -> np.ndarray:
        """A read-only ndarray view of one array in a slot."""
        dt = np.dtype(dtype)
        count = 1
        for s in shape:
            count *= s
        base = self.slots * _HDR_ENTRY + slot * self.slot_bytes
        arr = np.frombuffer(self.shm.buf, dtype=dt, count=count,
                            offset=base + offset).reshape(shape)
        arr.flags.writeable = False
        return arr

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        # numpy views pin the exported buffer; drop them before close()
        self._header = None
        try:
            self.shm.close()
        except BufferError:   # pragma: no cover - defensive
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


class SegmentRegistry:
    """Attachment cache + cleanup ledger for slab segments.

    Every process keeps one: workers cache reader attachments; the
    coordinator additionally records every segment name ever created
    (reported over the control channel) so it can unlink them all at
    shutdown — even segments whose creating worker was terminated.
    """

    def __init__(self) -> None:
        self._rings: dict[str, SlabRing] = {}
        self._known: set[str] = set()

    def register(self, names: list[str] | tuple[str, ...] | set[str],
                 ) -> None:
        self._known.update(names)

    @property
    def known(self) -> set[str]:
        return set(self._known)

    def add_ring(self, ring: SlabRing) -> None:
        self._rings[ring.name] = ring
        self._known.add(ring.name)

    def ring_for(self, ref: NDRef) -> SlabRing:
        ring = self._rings.get(ref.segment)
        if ring is None:
            ring = SlabRing.attach(ref.segment, ref.slots, ref.slot_bytes)
            self._rings[ref.segment] = ring
            self._known.add(ref.segment)
        return ring

    def close_all(self) -> None:
        for ring in self._rings.values():
            ring.close()
        self._rings.clear()

    def unlink_all(self) -> None:
        """Close cached rings and unlink every known segment."""
        rings, self._rings = dict(self._rings), {}
        for name in sorted(self._known):
            ring = rings.pop(name, None)
            if ring is not None:
                ring.close()
                ring.unlink()
            else:
                try:
                    shm = shared_memory.SharedMemory(name=name)
                except FileNotFoundError:
                    continue
                shm.close()
                shm.unlink()
        for ring in rings.values():   # pragma: no cover - defensive
            ring.close()
        self._known.clear()


# Resource-tracker accounting (why there is no manual unregister here):
# the coordinator calls resource_tracker.ensure_running() *before*
# forking, so every worker inherits the same tracker and all REGISTER
# lines (create and, before Python 3.13, attach too) land in one
# name-deduplicated set.  Exactly one unlink per segment happens — in
# the coordinator's unlink_all — and SharedMemory.unlink() sends the
# single matching UNREGISTER.  Any extra manual unregister would make
# the tracker raise KeyError; any missing unlink would make it warn
# about leaked shared_memory objects at exit.


# ---------------------------------------------------------------------------
# Payload codec


def contains_ndarray(value: Any) -> bool:
    """Whether a payload tree has any ndarray leaf worth slab transport."""
    if isinstance(value, np.ndarray):
        return value.dtype != object
    if isinstance(value, dict):
        return any(contains_ndarray(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(contains_ndarray(v) for v in value)
    return False


def _collect_arrays(value: Any, out: list[np.ndarray]) -> Any:
    """Replace ndarray leaves with placeholder indices, gathering them."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        out.append(np.ascontiguousarray(value))
        return (_ND, len(out) - 1)
    if isinstance(value, dict):
        return (_DICT, [(k, _collect_arrays(v, out))
                        for k, v in value.items()])
    if isinstance(value, tuple):
        return (_TUPLE, [_collect_arrays(v, out) for v in value])
    if isinstance(value, list):
        return (_LIST, [_collect_arrays(v, out) for v in value])
    return (_INLINE, value)


def _resolve(tree: Any, leaves: list[Any]) -> Any:
    tag, body = tree
    if tag == _ND:
        return leaves[body]
    if tag == _DICT:
        return {k: _resolve(v, leaves) for k, v in body}
    if tag == _TUPLE:
        return tuple(_resolve(v, leaves) for v in body)
    if tag == _LIST:
        return [_resolve(v, leaves) for v in body]
    return body


def encode_payload(value: Any,
                   place: Callable[[list[np.ndarray]], list[NDRef]],
                   ) -> Any:
    """Encode a value for the control channel.

    ``place`` copies the gathered arrays into slab storage and returns
    one :class:`NDRef` per array.  Values without array leaves are
    passed inline (scalars, small tuples — pickling those is fine); the
    returned payload tree contains **no ndarrays**, which
    ``tests/test_procexec.py`` asserts on live message traffic.
    """
    if not contains_ndarray(value):
        return (_INLINE, value)
    arrays: list[np.ndarray] = []
    tree = _collect_arrays(value, arrays)
    refs = place(arrays)
    return ("tree", tree, refs)


def decode_payload(payload: Any, registry: SegmentRegistry,
                   copy: bool = False) -> Any:
    """Rebuild a value from a payload tree.

    Returns read-only slab views by default (the zero-copy consumer
    path); ``copy=True`` materializes private copies (the coordinator
    uses it for watched timeline values and final results, which must
    outlive the slabs).
    """
    tag = payload[0]
    if tag == _INLINE:
        return payload[1]
    _, tree, refs = payload
    leaves = []
    for ref in refs:
        view = registry.ring_for(ref).view(ref.slot, ref.offset,
                                           ref.shape, ref.dtype)
        leaves.append(np.array(view) if copy else view)
    return _resolve(tree, leaves)


def payload_arrays(payload: Any) -> list[NDRef]:
    """The :class:`NDRef` descriptors of a payload (empty when inline)."""
    if payload[0] == _INLINE:
        return []
    return list(payload[2])


class SlabWriter:
    """Producer-side slab management for one buffer.

    Created lazily in the worker on the first array write (slot size is
    only known then).  Grows by allocating a fresh, larger ring when a
    version outgrows the current slots; abandoned generations stay
    mapped for any still-pinned readers and are unlinked by the
    coordinator at shutdown.
    """

    #: headroom factor applied when sizing (and re-sizing) slots
    GROWTH = 1.25

    def __init__(self, buffer_name: str, slots: int, lock: Any,
                 on_segment: Callable[[list[str]], None]) -> None:
        self.buffer_name = buffer_name
        self.slots = int(slots)
        self.lock = lock
        self.on_segment = on_segment
        self.ring: SlabRing | None = None
        self._retired: list[SlabRing] = []
        self._last_slot: int | None = None

    def encode(self, value: Any, version: int) -> Any:
        """Encode ``value`` into the slab (inline when it holds no
        array)."""
        return encode_payload(
            value, lambda arrays: self._place(arrays, version))

    def _place(self, arrays: list[np.ndarray],
               version: int) -> list[NDRef]:
        total = sum(a.nbytes for a in arrays)
        if self.ring is None or total > self.ring.slot_bytes:
            if self.ring is not None:
                self._retired.append(self.ring)
            slot_bytes = max(int(total * self.GROWTH), total, 1)
            self.ring = SlabRing.create(self.slots, slot_bytes)
            self._last_slot = None
            self.on_segment([self.ring.name])
        ring = self.ring
        with self.lock:
            slot = ring.pick_slot(self._last_slot)
            if slot is None:   # pragma: no cover - sizing invariant
                raise RuntimeError(
                    f"no free slab slot for buffer "
                    f"{self.buffer_name!r} ({self.slots} slots)")
            placements = ring.write_arrays(slot, version, arrays)
        self._last_slot = slot
        return [NDRef(ring.name, ring.slots, ring.slot_bytes, slot,
                      offset, shape, dtype)
                for offset, shape, dtype in placements]

    def close(self) -> None:
        if self.ring is not None:
            self.ring.close()
            self.ring = None
        for ring in self._retired:
            ring.close()
        self._retired.clear()
