"""A well-formed frame with a missing or mistyped field.

The frame codec rejects bytes that are not a JSON object
(``FrameError``); a JSON object whose ``rid``, ``resume`` or
``queue_depth`` is missing or of the wrong type gets past it.  Each of
the three readers (the worker, the client-facing front end and the
router's worker links) must treat such a frame like a ``FrameError``:
count it, answer with an ``error`` frame where a reply is possible,
and end that one connection — never raise out of its loop.

A ``resume`` object of the right shape that does not replay on the
worker's graph is not a protocol violation: the worker runs the spec
fresh, so the answer is still the precise one.
"""

import asyncio
import socket
import threading

import pytest

from repro.serve.aiofront import AioFrontend
from repro.serve.fleet import recv_msg, send_msg, spec_key, worker_main
from repro.serve.router import FleetRouter

pytestmark = [pytest.mark.serve, pytest.mark.timeout(60)]


@pytest.mark.parametrize("frame", [
    {"op": "submit", "app": "dwt53"},
    {"op": "submit", "rid": "x", "app": "dwt53"},
    {"op": "submit", "rid": 1, "app": "dwt53", "resume": "x"},
    {"op": "submit", "rid": 1, "app": "dwt53",
     "resume": {"stages": {}, "log": {}, "reports": {}, "energy": 0.0,
                "duration": 0.0}},
], ids=["submit-no-rid", "submit-bad-rid", "submit-resume-not-object",
        "submit-resume-log-not-list"])
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


def _worker_pair(config=None):
    """A worker on one end of a socketpair; returns the other end and
    the worker thread."""
    router_end, worker_end = socket.socketpair()
    router_end.settimeout(60.0)
    thread = threading.Thread(
        target=worker_main, args=(worker_end, {"slots": 1, **(config or {})}),
        daemon=True)
    thread.start()
    return router_end, thread


def _submit(sock, **fields):
    """Send one dwt53 submit; returns its ``done`` frame."""
    send_msg(sock, {"op": "submit", "rid": 1, "app": "dwt53", "size": 16,
                    "seed": 0, "slo": {"deadline_s": 60.0}, **fields})
    frames = [recv_msg(sock), recv_msg(sock)]
    assert [f["op"] for f in frames] == ["ack", "done"], frames
    return frames[1]


def _checkpoint_payload(tmp_path):
    """The payload of a dwt53 16² run checkpointed at version 2."""
    from repro.apps.registry import get_app
    from repro.ckpt import load_checkpoint
    from repro.core.controller import VersionCountStop

    record = get_app("dwt53")
    path = tmp_path / "run.rck"
    record.build(record.make_input(16, 0)).run_simulated(
        stop=VersionCountStop(2), checkpoint_at_stop=str(path))
    return path, load_checkpoint(str(path))[1]


def _precise_digest():
    from repro.apps.registry import get_app
    from repro.serve.fleet import value_digest

    record = get_app("dwt53")
    return value_digest(
        record.build(record.make_input(16, 0)).precise_output())


def _never_published(payload):
    """A wait reply naming a version its producer never publishes."""
    log = [list(event) for event in payload["log"]]
    wait = next(e for e in log if e[1] == "r" and e[2])
    wait[2] = [v + 1000 for v in wait[2]]
    return {**payload, "log": log}


def _unknown_stage(payload):
    return {**payload, "log": [["no-such-stage", "p", 0]]
            + [list(event) for event in payload["log"]]}


@pytest.mark.parametrize("corrupt", [_never_published, _unknown_stage],
                         ids=["wait-for-unpublished-version",
                              "unknown-stage"])
def test_inconsistent_resume_runs_fresh_to_the_precise_answer(
        corrupt, tmp_path):
    _, payload = _checkpoint_payload(tmp_path)
    sock, thread = _worker_pair()
    try:
        done = _submit(sock, resume=corrupt(payload))
        send_msg(sock, {"op": "shutdown"})
        assert recv_msg(sock) == {"op": "bye"}
    finally:
        sock.close()
    thread.join(timeout=10.0)
    assert done["state"] == "completed" and done["final"], done
    assert done["value_digest"] == _precise_digest()


def test_resume_from_a_path_is_ignored(tmp_path):
    """``submit`` takes no worker-local path: naming a checkpoint file
    neither reads nor deletes it, and the spec runs fresh."""
    path, _ = _checkpoint_payload(tmp_path)
    before = path.read_bytes()
    sock, thread = _worker_pair()
    try:
        done = _submit(sock, resume_from=str(path))
        send_msg(sock, {"op": "shutdown"})
        assert recv_msg(sock) == {"op": "bye"}
    finally:
        sock.close()
    thread.join(timeout=10.0)
    assert path.read_bytes() == before
    assert done["state"] == "completed" and done["final"], done
    assert done["value_digest"] == _precise_digest()


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
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            send_msg(sock, {"op": "submit", "rid": "x", "app": "dwt53"})
            reply = await asyncio.to_thread(recv_msg, sock)
            eof = await asyncio.to_thread(recv_msg, sock)
        finally:
            sock.close()
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
