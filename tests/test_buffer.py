"""Tests for versioned buffers (paper Properties 2 and 3)."""

import threading
import time

import numpy as np
import pytest

from repro.core.buffer import Snapshot, VersionedBuffer


class TestVersioning:
    def test_initial_state_is_empty(self):
        b = VersionedBuffer("b")
        snap = b.snapshot()
        assert snap.empty and snap.version == 0 and snap.value is None
        assert not snap.final

    def test_writes_increment_versions(self):
        b = VersionedBuffer("b")
        assert b.write(1) == 1
        assert b.write(2) == 2
        assert b.snapshot().value == 2

    def test_final_freezes_buffer(self):
        """The precise output must never regress."""
        b = VersionedBuffer("b")
        b.write(1, final=True)
        with pytest.raises(ValueError, match="final"):
            b.write(2)

    def test_snapshot_is_atomic_triple(self):
        b = VersionedBuffer("b")
        b.write("x", final=True)
        snap = b.snapshot()
        assert (snap.value, snap.version, snap.final) == ("x", 1, True)
        assert snap.name == "b"


class TestPropertyTwo:
    def test_register_writer_claims_buffer(self):
        b = VersionedBuffer("b")
        b.register_writer("f")
        with pytest.raises(ValueError, match="Property 2"):
            b.register_writer("g")

    def test_same_writer_may_reregister(self):
        b = VersionedBuffer("b")
        b.register_writer("f")
        b.register_writer("f")
        assert b.writer == "f"

    def test_write_with_wrong_writer_token_rejected(self):
        b = VersionedBuffer("b")
        b.register_writer("f")
        with pytest.raises(ValueError, match="Property 2"):
            b.write(1, writer="g")
        b.write(1, writer="f")


class TestPropertyThree:
    def test_array_snapshots_are_frozen(self):
        """A consumer must not be able to corrupt a published version."""
        b = VersionedBuffer("b")
        b.write(np.arange(4))
        snap = b.snapshot()
        with pytest.raises(ValueError):
            snap.value[0] = 99

    def test_writer_mutation_after_write_is_invisible(self):
        """write() copies: later mutation of the source array does not
        leak into the published version."""
        b = VersionedBuffer("b")
        src = np.arange(4)
        b.write(src)
        src[0] = 99
        assert b.snapshot().value[0] == 0

    def test_concurrent_writers_and_readers_see_whole_versions(self):
        """Hammer the buffer from a writer thread while readers snapshot;
        every observed array must be internally consistent (all elements
        equal — each version is a constant array)."""
        b = VersionedBuffer("b")
        b.write(np.zeros(64, dtype=np.int64))
        stop = threading.Event()
        torn = []

        def writer():
            v = 0
            while not stop.is_set():
                v += 1
                b.write(np.full(64, v, dtype=np.int64))

        def reader():
            for _ in range(500):
                value = b.snapshot().value
                if not (value == value[0]).all():
                    torn.append(value.copy())

        wt = threading.Thread(target=writer, daemon=True)
        rt = threading.Thread(target=reader, daemon=True)
        wt.start()
        rt.start()
        rt.join()
        stop.set()
        wt.join()
        assert not torn, "readers observed a torn write (Property 3)"


def wait_newer(b, version, event):
    """Wait for a version of ``b`` newer than ``version`` on an event
    subscribed to it, as the threaded executor's input wait does: clear
    the event, look, and block only while nothing newer can appear."""
    while True:
        event.clear()
        snap = b.snapshot()
        if snap.version > version or snap.exhausted:
            return snap
        event.wait()


def subscribed(b):
    event = threading.Event()
    b.subscribe(event)
    return event


def waiting(b, version, got):
    """A thread blocked in :func:`wait_newer`; it appends the snapshot
    it returns to ``got``."""
    event = subscribed(b)
    t = threading.Thread(
        target=lambda: got.append(wait_newer(b, version, event)),
        daemon=True)
    t.start()
    time.sleep(0.05)
    assert not got
    return t


@pytest.mark.timeout(30)
class TestWaitNewer:
    """Waiting for a newer version through a subscribed event: a lost
    wakeup hangs the waiter, which the conftest watchdog fails."""

    def test_returns_immediately_when_newer_exists(self):
        b = VersionedBuffer("b")
        b.write(1)
        snap = wait_newer(b, 0, subscribed(b))
        assert snap.version == 1

    def test_wakes_on_write(self):
        b = VersionedBuffer("b")
        got = []
        t = waiting(b, 0, got)
        b.write("hello")
        t.join(5.0)
        assert not t.is_alive()
        assert got and got[0].value == "hello"

    def test_wakes_on_seal(self):
        b = VersionedBuffer("b")
        b.write(1)
        got = []
        t = waiting(b, 1, got)
        b.seal()
        t.join(5.0)
        assert not t.is_alive()
        assert got[0].version == 1 and got[0].sealed

    def test_final_buffer_returns_without_wait(self):
        b = VersionedBuffer("b")
        b.write(1, final=True)
        snap = wait_newer(b, 5, subscribed(b))
        assert snap.final

    def test_unsatisfying_notifies_do_not_end_wait_early(self):
        """Writes that don't satisfy the version predicate set the event;
        the wait must re-arm instead of returning stale."""
        b = VersionedBuffer("b")
        b.write("v1")
        got = []
        t = waiting(b, 11, got)
        for _ in range(10):
            b.write("noise")
            time.sleep(0.005)
        assert not got and b.version == 11
        b.write("v12")
        t.join(5.0)
        assert not t.is_alive()
        assert got[0].version == 12 and got[0].value == "v12"

    def test_sealed_buffer_returns_without_wait(self):
        b = VersionedBuffer("b")
        b.write(1)
        b.seal()
        snap = wait_newer(b, 5, subscribed(b))
        assert snap.sealed and not snap.final and snap.exhausted


class TestSealing:
    def test_seal_freezes_writes(self):
        b = VersionedBuffer("b")
        b.write(1)
        b.seal()
        with pytest.raises(ValueError, match="sealed"):
            b.write(2)

    def test_seal_is_idempotent(self):
        b = VersionedBuffer("b")
        b.seal()
        b.seal()
        assert b.sealed

    def test_subscribe_event_set_on_write_and_seal(self):
        b = VersionedBuffer("b")
        e = threading.Event()
        b.subscribe(e)
        b.write(1)
        assert e.is_set()
        e.clear()
        b.seal()
        assert e.is_set()
        b.unsubscribe(e)
        e.clear()
        # no further notifications after unsubscribe
        b2_event_untouched = not e.is_set()
        assert b2_event_untouched


class TestSnapshotValueSemantics:
    def test_non_array_values_pass_through(self):
        b = VersionedBuffer("b")
        b.write({"k": 1})
        assert b.snapshot().value == {"k": 1}


class TestOwnershipTransfer:
    """``transfer=True`` writes skip the defensive copy (O(1) per
    version instead of O(elements))."""

    def test_default_write_copies_defensively(self):
        b = VersionedBuffer("b")
        a = np.arange(6.0)
        b.write(a)
        snap = b.snapshot()
        assert snap.value is not a
        a[0] = 99.0                    # writer keeps mutating
        assert snap.value[0] == 0.0    # snapshot is unaffected

    def test_transfer_write_freezes_in_place(self):
        b = VersionedBuffer("b")
        a = np.arange(6.0)
        b.write(a, transfer=True)
        snap = b.snapshot()
        assert snap.value is a         # the very same array: no copy
        assert not a.flags.writeable   # ... frozen in the caller's hands

    def test_already_frozen_array_stored_as_is(self):
        b = VersionedBuffer("b")
        a = np.arange(6.0)
        a.setflags(write=False)
        b.write(a)
        assert b.snapshot().value is a

    def test_transfer_is_constant_space(self):
        """Regression: a transfer write must not allocate a copy of the
        payload (numpy allocations are tracemalloc-visible)."""
        import tracemalloc

        b = VersionedBuffer("b")
        payload = np.zeros(1 << 18)    # 2 MiB
        tracemalloc.start()
        try:
            b.write(payload, transfer=True)
            _, transfer_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            b2 = VersionedBuffer("b2")
            b2.write(np.zeros(1 << 18))
            _, copy_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert transfer_peak < payload.nbytes // 2
        assert copy_peak >= payload.nbytes
