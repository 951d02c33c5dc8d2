"""Tests for synchronous-pipeline update channels (paper III-C2).

A channel has one way to wait: :meth:`UpdateChannel.wait_ready`, paired
with the non-blocking :meth:`~UpdateChannel.try_emit` and
:meth:`~UpdateChannel.try_recv`.  ``emit`` and ``recv`` below are the
loops a blocked stage runs.
"""

import threading
import time

import pytest

from repro.core.channel import ChannelClosed, UpdateChannel

# a lost wakeup hangs a waiting thread; the conftest watchdog fails it
pytestmark = pytest.mark.timeout(30)


def emit(ch, update):
    while not ch.try_emit(update):
        ch.wait_ready(sending=True)


def recv(ch):
    while True:
        got, update = ch.try_recv()
        if got:
            return update
        ch.wait_ready(sending=False)


def closed_recv(ch):
    """``recv`` that must end in :class:`ChannelClosed`."""
    with pytest.raises(ChannelClosed):
        recv(ch)
    return "closed"


def started(target):
    """Run ``target`` on a thread; give it time to block."""
    t = threading.Thread(target=target, daemon=True)
    t.start()
    time.sleep(0.05)
    return t


class TestFifo:
    def test_order_preserved(self):
        ch = UpdateChannel("x")
        for i in range(5):
            assert ch.try_emit(i)
        assert [recv(ch) for _ in range(5)] == list(range(5))
        assert ch.emitted == 5 and ch.received == 5

    def test_len(self):
        ch = UpdateChannel("x")
        ch.try_emit(1)
        ch.try_emit(2)
        assert len(ch) == 2


class TestClose:
    def test_recv_drains_then_raises(self):
        """Every update must be deliverable after close — the paper's
        requirement that all g_S(X_i) are computed."""
        ch = UpdateChannel("x")
        ch.try_emit("a")
        ch.close()
        assert recv(ch) == "a"
        with pytest.raises(ChannelClosed):
            recv(ch)

    def test_emit_after_close_rejected(self):
        ch = UpdateChannel("x")
        ch.close()
        with pytest.raises(ChannelClosed):
            ch.try_emit(1)

    def test_try_recv_after_close(self):
        ch = UpdateChannel("x")
        ch.try_emit(1)
        ch.close()
        assert ch.try_recv() == (True, 1)
        with pytest.raises(ChannelClosed):
            ch.try_recv()


class TestCapacity:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            UpdateChannel("x", capacity=0)

    def test_try_emit_full(self):
        ch = UpdateChannel("x", capacity=1)
        assert ch.try_emit(1)
        assert not ch.try_emit(2)
        assert ch.full

    def test_emit_blocks_until_consumer_pops(self):
        """Capacity 1 is the paper's synchronization: the producer may
        not overwrite X_i before g_S(X_i) starts."""
        ch = UpdateChannel("x", capacity=1)
        assert ch.try_emit("X1")
        done = []
        t = started(lambda: (emit(ch, "X2"), done.append(True)))
        assert not done                 # waiting on the full channel
        assert ch.try_recv() == (True, "X1")
        t.join(5.0)
        assert not t.is_alive()
        assert done
        assert ch.try_recv() == (True, "X2")

    def test_unbounded_never_full(self):
        ch = UpdateChannel("x")
        for i in range(1000):
            ch.try_emit(i)
        assert not ch.full


class TestBlockingRecv:
    def test_try_recv_empty(self):
        assert UpdateChannel("x").try_recv() == (False, None)

    def test_recv_wakes_on_emit(self):
        ch = UpdateChannel("x")
        got = []
        t = started(lambda: got.append(recv(ch)))
        assert not got
        assert ch.try_emit("late")
        t.join(5.0)
        assert not t.is_alive()
        assert got == ["late"]

    def test_recv_wakes_on_close(self):
        ch = UpdateChannel("x")
        got = []
        t = started(lambda: got.append(closed_recv(ch)))
        assert not got
        ch.close()
        t.join(5.0)
        assert not t.is_alive()
        assert got == ["closed"] and not ch.aborted

    def test_recv_wakes_on_abort(self):
        ch = UpdateChannel("x")
        got = []
        t = started(lambda: got.append(closed_recv(ch)))
        assert not got
        ch.abort()
        t.join(5.0)
        assert not t.is_alive()
        assert got == ["closed"] and ch.aborted

    def test_wait_ready_wakes_on_halt(self):
        """A run that halts sets its halt event, then wakes the channel:
        the waiter returns with the channel still empty."""
        ch = UpdateChannel("x")
        halt = threading.Event()
        t = started(lambda: ch.wait_ready(sending=False, halt=halt))
        assert t.is_alive()
        halt.set()
        ch.wake()
        t.join(5.0)
        assert not t.is_alive()
        assert ch.try_recv() == (False, None)
