"""One wire: every fleet endpoint reads frames through ``FrameProtocol``.

The decoder is fed byte streams cut at arbitrary points: it must hand
the reader the same checked frames in order, read a truncated tail as a
clean EOF, refuse an oversized header before any payload arrives, and
end the connection at the first frame that breaks the field table —
after handling every frame before it.  Then the two faults a reader
that checked fields by hand let through, each ending in an answer: a
mistyped SLO field, and a ``rid`` reused while its request is pending.
Last, a client that submits and never reads cannot grow the front
end's write buffer without bound.
"""

import asyncio
import contextlib
import gc
import json
import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.aiofront import AioFleetClient, AioFrontend
from repro.serve.fleet import (MAX_FRAME, FrameError, FrameProtocol,
                               check_frame, pack_msg, recv_msg, send_msg,
                               worker_main)
from repro.serve.router import FleetRequest, FleetRouter, _WorkerLink
from repro.serve.slo import SLO

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

_LEN = struct.Struct(">I")


# -- the decoder, on a fake transport ------------------------------------

class FakeTransport:
    def __init__(self):
        self.closing = False
        self.reading = True
        self.written = []

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    def write(self, data):
        self.written.append(data)

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


class Recorder(FrameProtocol):
    def __init__(self):
        super().__init__()
        self.frames = []
        self.errors = []
        self.connection_made(FakeTransport())

    def frame_received(self, msg):
        self.frames.append(msg)

    def frame_error(self, exc):
        self.errors.append(exc)
        super().frame_error(exc)


ints = st.integers(-2**40, 2**40)
numbers = st.one_of(ints, st.floats(allow_nan=False, allow_infinity=False))
texts = st.text(max_size=12)

frames = st.one_of(
    st.fixed_dictionaries(
        {"op": st.just("submit"), "rid": ints, "app": texts},
        optional={"size": ints, "seed": ints, "wait_s": numbers,
                  "check": st.booleans(),
                  "slo": st.one_of(st.none(), st.fixed_dictionaries(
                      {}, optional={"deadline_s": numbers,
                                    "target_db": numbers,
                                    "priority": numbers}))}),
    st.fixed_dictionaries(
        {"op": st.just("ack"), "rid": ints, "state": texts},
        optional={"queue_depth": ints}),
    st.fixed_dictionaries(
        {"op": st.just("done"), "rid": ints},
        optional={"state": texts, "final": st.booleans(),
                  "value_digest": st.one_of(st.none(), texts),
                  "latency_s": numbers}),
    st.fixed_dictionaries(
        {"op": st.just("stats")},
        optional={"rid": st.one_of(st.none(), ints),
                  "stats": st.dictionaries(texts, ints, max_size=3)}),
    st.fixed_dictionaries({"op": st.just("error")},
                          optional={"error": texts}),
    st.fixed_dictionaries({"op": st.sampled_from(["bye", "shutdown"])}),
    # an op a newer peer may send passes through unchecked
    st.fixed_dictionaries({"op": st.just("gossip"), "rid": texts}),
)


def _cuts(data, points):
    """``data`` cut at ``points`` (fractions of its length)."""
    at = sorted({int(p * len(data)) for p in points})
    return [data[a:b] for a, b in zip([0, *at], [*at, len(data)])]


def _feed(proto, chunks, hold_every=0):
    """Feed ``chunks``; with ``hold_every``, the transport asks to pause
    writing after every that many chunks and resumes before the next."""
    for n, chunk in enumerate(chunks, start=1):
        proto.data_received(chunk)
        if hold_every and n % hold_every == 0:
            proto.pause_writing()
            assert not proto.transport.reading
            proto.resume_writing()


cut_points = st.lists(st.floats(0, 1), max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.lists(frames, max_size=12), cut_points, st.integers(0, 3))
def test_any_chunking_decodes_the_same_frames_in_order(msgs, points,
                                                       hold_every):
    data = b"".join(pack_msg(msg) for msg in msgs)
    proto = Recorder()
    _feed(proto, _cuts(data, points), hold_every)
    assert proto.frames == [check_frame(dict(msg)) for msg in msgs]
    assert proto.errors == [] and not proto.transport.closing
    assert proto.transport.reading


@settings(max_examples=100, deadline=None)
@given(st.lists(frames, max_size=6), frames, st.floats(0, 1), cut_points)
def test_a_truncated_tail_reads_as_a_clean_eof(msgs, last, keep, points):
    tail = pack_msg(last)
    tail = tail[:min(int(keep * len(tail)), len(tail) - 1)]
    data = b"".join(pack_msg(msg) for msg in msgs) + tail
    proto = Recorder()
    _feed(proto, _cuts(data, points))
    proto.eof_received()
    proto.connection_lost(None)
    assert proto.frames == [check_frame(dict(msg)) for msg in msgs]
    assert proto.errors == [] and proto.transport.written == []


@settings(max_examples=100, deadline=None)
@given(st.lists(frames, max_size=6), st.integers(MAX_FRAME + 1, 2**32 - 1),
       cut_points)
def test_an_oversized_header_fails_before_its_payload(msgs, length,
                                                      points):
    # no payload byte is ever sent: the header alone must trip the bound
    data = b"".join(pack_msg(msg) for msg in msgs) + _LEN.pack(length)
    proto = Recorder()
    _feed(proto, _cuts(data, points))
    assert proto.frames == [check_frame(dict(msg)) for msg in msgs]
    assert len(proto.errors) == 1 and "exceeds" in str(proto.errors[0])
    assert proto.transport.closing
    assert len(proto._buffer) <= _LEN.size


bad_frames = st.one_of(
    st.fixed_dictionaries({"op": st.just("submit"), "app": texts}),
    st.fixed_dictionaries({"op": st.just("submit"), "app": texts,
                           "rid": st.one_of(st.booleans(), texts,
                                            st.floats())}),
    st.fixed_dictionaries({"op": st.just("submit"), "rid": ints,
                           "app": texts,
                           "slo": st.fixed_dictionaries(
                               {"target_db": st.one_of(texts,
                                                       st.booleans())})}),
    st.fixed_dictionaries({"op": st.just("submit"), "rid": ints,
                           "app": texts, "resume": texts}),
    st.fixed_dictionaries({"op": st.just("ack"), "rid": ints,
                           "state": texts, "queue_depth": texts}),
    st.fixed_dictionaries({"op": st.just("done"),
                           "rid": st.lists(ints, max_size=2)}),
    st.fixed_dictionaries({"op": st.just("stats"), "stats": ints}),
    st.fixed_dictionaries({"rid": ints}),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(frames, max_size=6), bad_frames,
       st.lists(frames, max_size=3), cut_points)
def test_a_frame_that_breaks_the_table_ends_the_connection(
        before, bad, after, points):
    data = b"".join(pack_msg(msg) for msg in [*before, bad, *after])
    proto = Recorder()
    _feed(proto, _cuts(data, points))
    assert proto.frames == [check_frame(dict(msg)) for msg in before]
    assert len(proto.errors) == 1
    assert isinstance(proto.errors[0], FrameError)
    assert proto.transport.closing
    (reply,) = proto.transport.written
    assert b'"op":"error"' in reply


def test_json_nested_past_the_recursion_limit_is_a_frame_error():
    payload = b"[" * 100_000
    proto = Recorder()
    proto.data_received(pack_msg({"op": "stats"}) + _LEN.pack(len(payload))
                        + payload)
    assert [f["op"] for f in proto.frames] == ["stats"]
    assert len(proto.errors) == 1 and "not JSON" in str(proto.errors[0])
    assert proto.transport.closing


def test_a_held_connection_cuts_no_frame_until_released():
    proto = Recorder()
    proto.hold("full")
    proto.data_received(pack_msg({"op": "stats"}) * 2)
    assert proto.frames == [] and not proto.transport.reading
    proto.release("full")
    assert [f["op"] for f in proto.frames] == ["stats", "stats"]
    assert proto.transport.reading


def test_an_end_whose_writes_answer_no_frame_reads_on_while_they_wait():
    """The router's worker links and the client write what their callers
    ask, not replies to what they read: they read on while the transport
    asks to pause writing, so two ends whose writes back up at once do
    not wait on each other for good."""
    seen = []
    router = SimpleNamespace(
        _on_message=lambda link, msg: seen.append(msg["op"]))

    async def main():
        client = AioFleetClient()
        for end in (_WorkerLink(router, 0, None, None), client):
            end.connection_made(FakeTransport())
            end.pause_writing()
            end.data_received(pack_msg({"op": "stats", "rid": 1}))
            assert end.transport.reading
        return client

    asyncio.run(main())
    assert seen == ["stats"]


# -- a mistyped SLO field ends in an answer, not a hang -------------------

@pytest.mark.parametrize("field,value", [
    ("target_db", "x"), ("deadline_s", True), ("priority", "high"),
    ("deadline_s", float("inf"))])
def test_slo_refuses_a_field_it_cannot_compare(field, value):
    with pytest.raises((TypeError, ValueError), match=field):
        SLO(**{field: value})


def test_worker_answers_a_mistyped_slo_field():
    router_end, worker_end = socket.socketpair()
    router_end.settimeout(10.0)
    thread = threading.Thread(target=worker_main,
                              args=(worker_end, {"slots": 1}), daemon=True)
    thread.start()
    try:
        send_msg(router_end, {"op": "submit", "rid": 1, "app": "2dconv",
                              "size": 32, "seed": 0,
                              "slo": {"target_db": "x"}})
        reply = recv_msg(router_end)
        assert reply["op"] == "error" and "target_db" in reply["error"]
        assert recv_msg(router_end) is None
    finally:
        router_end.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def _frame_session(router, scenario, **front_kwargs):
    """Run ``scenario(front, reader, writer)`` on a raw connection to a
    started front end."""
    async def main():
        front = AioFrontend(router, port=0, **front_kwargs)
        host, port = await front.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            return await asyncio.wait_for(
                scenario(front, reader, writer), 30.0)
        finally:
            writer.close()
            await front.stop(drain_timeout_s=0.1)

    return asyncio.run(main())


async def _ask(reader, writer, msg):
    writer.write(pack_msg(msg))
    await writer.drain()
    return await _next(reader)


async def _next(reader):
    header = await asyncio.wait_for(reader.readexactly(_LEN.size), 10.0)
    body = await reader.readexactly(_LEN.unpack(header)[0])
    return check_frame(json.loads(body))


def test_front_end_answers_a_mistyped_slo_field():
    with FleetRouter(workers=1, worker_config={"slots": 1}) as fleet:
        async def scenario(front, reader, writer):
            reply = await _ask(reader, writer, {
                "op": "submit", "rid": 1, "app": "2dconv", "size": 32,
                "slo": {"target_db": "x"}})
            return reply, dict(front.counters)

        reply, counters = _frame_session(fleet, scenario)
        assert reply["op"] == "error" and "target_db" in reply["error"]
        assert counters["frame_errors"] == 1
        # in-process, the router refuses it before any dispatch
        with pytest.raises(FrameError, match="target_db"):
            fleet.submit("2dconv", size=32, slo={"target_db": "x"})
        out = fleet.submit("2dconv", size=32, slo={"target_db": 20.0})
        assert out.result(timeout_s=60.0)["state"] == "completed"
        assert fleet.counters["worker_deaths"] == 0


# -- a rid is unique among a connection's pending requests ----------------

class HeldRouter:
    """A router whose requests finish when the test says."""

    def __init__(self, delay_s=None):
        self.delay_s = delay_s
        self.requests = []

    def submit(self, app, size=32, seed=0, slo=None, wait_s=0.0):
        request = FleetRequest(len(self.requests) + 1, app, size, seed,
                               slo or {}, f"{app}:{seed}")
        self.requests.append(request)
        if self.delay_s == 0:
            request._finish({"state": "completed", "final": True})
        return request

    def aggregate_stats(self):
        return {}


def test_a_reused_rid_is_refused_and_the_drain_completes():
    router = HeldRouter()

    async def scenario(front, reader, writer):
        submit = {"op": "submit", "rid": 7, "app": "dwt53"}
        first = await _ask(reader, writer, submit)
        second = await _ask(reader, writer, submit)
        router.requests[0]._finish({"state": "completed", "final": True})
        done = await _next(reader)
        writer.close()
        start = time.monotonic()
        clean = await front.stop(drain_timeout_s=1.0)
        return first, second, done, clean, time.monotonic() - start

    first, second, done, clean, took = _frame_session(router, scenario)
    assert first["state"] == "accepted"
    assert second["state"] == "rejected" and second["rid"] == 7
    assert done["op"] == "done" and done["rid"] == 7
    assert len(router.requests) == 1        # never dispatched
    assert clean and took < 0.5


def test_a_submit_without_a_rid_is_a_frame_error():
    router = HeldRouter()

    async def scenario(front, reader, writer):
        reply = await _ask(reader, writer, {"op": "submit", "app": "dwt53"})
        eof = await reader.read()
        return reply, eof, dict(front.counters)

    reply, eof, counters = _frame_session(router, scenario)
    assert reply["op"] == "error" and "rid" in reply["error"]
    assert eof == b"" and counters["frame_errors"] == 1
    assert router.requests == []


# -- a client that submits and never reads --------------------------------

def _server_transport(port):
    """The front end's side of its one connection, found by address."""
    for obj in gc.get_objects():
        if isinstance(obj, asyncio.Transport) and not obj.is_closing():
            sockname = obj.get_extra_info("sockname")
            if sockname is not None and sockname[1] == port:
                return obj
    return None


def _flooding_client(host, port, count):
    """A client that sends ``count`` submits and never reads; returns
    it and its sending thread."""
    blob = b"".join(pack_msg({"op": "submit", "rid": rid, "app": "dwt53"})
                    for rid in range(1, count + 1))
    client = socket.socket()
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    client.connect((host, port))
    client.settimeout(3.0)

    def flood():
        try:
            client.sendall(blob)
        except OSError:
            pass            # the front end stopped reading

    sender = threading.Thread(target=flood, daemon=True)
    sender.start()
    return client, sender


def test_a_client_that_never_reads_cannot_grow_the_write_buffer():
    count = 20000

    async def main():
        front = AioFrontend(HeldRouter(delay_s=0), port=0)
        client, sender = _flooding_client(*await front.start(), count)
        port = client.getpeername()[1]
        peak, transport = 0, None
        # the kernel's socket buffers may take the whole flood at once:
        # watch the front end read it for a while, not the sender send it
        until = time.monotonic() + 2.0
        while time.monotonic() < until:
            await asyncio.sleep(0.005)
            transport = transport or _server_transport(port)
            if transport is not None:
                peak = max(peak, transport.get_write_buffer_size())
        submits = front.counters["submits"]
        client.shutdown(socket.SHUT_RDWR)
        client.close()
        sender.join(timeout=5.0)
        await front.stop(drain_timeout_s=0.1)
        return peak, submits, transport is not None

    peak, submits, seen = asyncio.run(main())
    assert seen
    # the transport's high-water mark is 64 KiB; a frame or a few of
    # in-flight answers may overshoot it
    assert peak < 256 * 1024, peak
    assert submits < count      # it stopped reading the flood


def test_stop_returns_while_a_client_never_reads():
    async def main():
        front = AioFrontend(HeldRouter(delay_s=0), port=0)
        client, sender = _flooding_client(*await front.start(), 20000)
        await asyncio.sleep(1.0)
        try:
            return await asyncio.wait_for(front.stop(drain_timeout_s=0.2),
                                          10.0)
        finally:
            with contextlib.suppress(OSError):    # reset by the abort
                client.shutdown(socket.SHUT_RDWR)
            client.close()
            sender.join(timeout=5.0)

    assert asyncio.run(main()) is True
