"""A well-formed frame with a missing or mistyped field.

The frame codec rejects bytes that are not a JSON object
(``FrameError``); a JSON object whose ``rid``, ``xid`` or
``queue_depth`` is missing or of the wrong type gets past it.  Each of
the three readers (the worker, the client-facing front end and the
router's worker links) must treat such a frame like a ``FrameError``:
count it, answer with an ``error`` frame where a reply is possible,
and end that one connection — never raise out of its loop.
"""

import asyncio
import socket
import threading

import pytest

from repro.serve.aiofront import AioFrontend
from repro.serve.fleet import (pack_msg, read_msg, recv_msg, send_msg,
                               spec_key, worker_main)
from repro.serve.router import FleetRouter

pytestmark = [pytest.mark.serve, pytest.mark.timeout(60)]


@pytest.mark.parametrize("frame", [
    {"op": "submit", "app": "dwt53"},
    {"op": "submit", "rid": "x", "app": "dwt53"},
    {"op": "ckpt_end"},
    {"op": "ckpt_end", "xid": "x"},
], ids=["submit-no-rid", "submit-bad-rid", "ckpt-end-no-xid",
        "ckpt-end-bad-xid"])
def test_worker_answers_a_bad_field_with_an_error_frame(frame):
    router_end, worker_end = socket.socketpair()
    router_end.settimeout(10.0)
    raised = []

    def run():
        try:
            worker_main(worker_end, {"slots": 1})
        except Exception as exc:   # what the listener would re-raise
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        send_msg(router_end, frame)
        reply = recv_msg(router_end)
        assert reply is not None and reply["op"] == "error", reply
        assert recv_msg(router_end) is None     # then it hangs up
    finally:
        router_end.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert raised == []


class _NoRouter:
    """A router the front end must never reach with a bad frame."""

    def submit(self, *args, **kwargs):
        raise AssertionError("a frame with a bad rid reached the router")

    def aggregate_stats(self):
        return {}


def test_front_end_answers_a_bad_rid_with_an_error_frame():
    async def main():
        front = AioFrontend(_NoRouter(), port=0)
        host, port = await front.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(pack_msg({"op": "submit", "rid": "x",
                                   "app": "dwt53"}))
            await writer.drain()
            reply = await asyncio.wait_for(read_msg(reader), 10.0)
            eof = await asyncio.wait_for(read_msg(reader), 10.0)
        finally:
            writer.close()
            await front.stop(drain_timeout_s=0.1)
        return reply, eof, dict(front.counters)

    reply, eof, counters = asyncio.run(main())
    assert reply is not None and reply["op"] == "error", reply
    assert eof is None
    assert counters["frame_errors"] == 1


def fake_worker(answer):
    """A one-connection TCP worker that replies to each ``submit`` with
    the frames ``answer(msg)`` returns; returns its endpoint."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        listener.close()
        with conn:
            try:
                while (msg := recv_msg(conn)) is not None:
                    if msg.get("op") == "submit":
                        for frame in answer(msg):
                            send_msg(conn, frame)
                    elif msg.get("op") == "shutdown":
                        send_msg(conn, {"op": "bye"})
                        return
            except OSError:
                return

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()[:2]


def _good(msg):
    return [{"op": "ack", "rid": msg["rid"], "state": "queued",
             "queue_depth": 0},
            {"op": "done", "rid": msg["rid"], "state": "completed",
             "final": True}]


@pytest.mark.parametrize("bad", [
    lambda msg: [{"op": "ack", "rid": msg["rid"], "state": "queued",
                  "queue_depth": "x"}],
    lambda msg: [{"op": "ack", "rid": msg["rid"], "state": "queued",
                  "queue_depth": 0},
                 {"op": "done", "rid": [msg["rid"]],
                  "state": "completed"}],
], ids=["ack-bad-queue-depth", "done-bad-rid"])
def test_router_link_with_a_bad_field_dies_and_its_request_moves(bad):
    endpoints = [fake_worker(bad), fake_worker(_good)]
    with FleetRouter(endpoints=endpoints, fleet_memo_ttl_s=0.0) as router:
        # a spec the ring homes on the bad worker (index 0)
        seed = next(s for s in range(1000)
                    if router._ring_lookup(
                        spec_key("dwt53", 16, s)).index == 0)
        request = router.submit("dwt53", size=16, seed=seed)
        out = request.result(timeout_s=10.0)
        assert router.drain(timeout_s=10.0)
        counters = dict(router.counters)
    assert out["state"] == "completed"
    assert out["worker"] == 1 and out["redispatches"] == 1
    assert counters["frame_errors"] == 1
    assert counters["worker_deaths"] == 1
