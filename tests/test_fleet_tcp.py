"""TCP transport conformance for the serving fleet.

Two layers:

* **Wire-protocol negatives** — the length-prefixed JSON framing must
  fail *closed*: a declared length beyond the bound is rejected before
  any allocation, garbage payloads produce a structured in-band
  ``error`` frame, and truncation at any byte boundary reads as clean
  EOF.  A real TCP worker fed each of these must reply or exit — never
  hang (every test runs under the watchdog with short socket
  timeouts).

* **Transport equivalence** — the same duplicate-heavy workload on an
  AF_UNIX (fork) fleet and on a two-worker localhost TCP fleet must
  seal bit-identical ``value_digest`` sets per seed: the anytime
  guarantee cannot depend on which socket family carried the frames.
"""

import asyncio
import socket
import struct
import threading
import time
from unittest import mock

import pytest

from repro.serve.aiofront import AioFleetClient, AioFrontend
from repro.serve import fleet
from repro.serve.fleet import (FrameError, FrameProtocol, MAX_FRAME,
                               recv_msg, send_msg)
from repro.serve.router import FleetRequest, FleetRouter
from repro.serve.workload import summarize
from repro.serve.transport import (parse_endpoint,
                                   spawn_local_tcp_worker)

pytestmark = [pytest.mark.serve, pytest.mark.timeout(180)]

SLO_OK = {"deadline_s": 60.0}
_LEN = struct.Struct(">I")


# -- frame bound / parse unit tests (no worker involved) ----------------

def protocol_read_on(sock, max_frame=MAX_FRAME):
    """One frame off ``sock`` through ``FrameProtocol``, the reader
    every fleet endpoint uses: the frame, None at EOF, or the
    ``FrameError`` it reported."""
    async def read():
        loop = asyncio.get_running_loop()
        got = loop.create_future()

        class One(FrameProtocol):
            def frame_received(self, msg):
                if not got.done():
                    got.set_result(msg)

            def frame_error(self, exc):
                if not got.done():
                    got.set_exception(exc)
                self.transport.close()

            def connection_lost(self, exc):
                if not got.done():
                    got.set_result(None)

        transport, _ = await loop.connect_accepted_socket(One, sock)
        try:
            return await asyncio.wait_for(got, 10.0)
        finally:
            transport.close()

    with mock.patch.object(fleet, "MAX_FRAME", max_frame):
        return asyncio.run(read())


class TestRecvMsgBound:
    """One frame codec: every case runs against the blocking reader
    here and against ``FrameProtocol`` in the subclass below.  The
    frames are ``bye``, whose op has no fields, so the protocol's field
    check hands them over unchanged."""

    recv = staticmethod(recv_msg)

    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(10.0)
        b.settimeout(10.0)
        return a, b

    def test_oversized_declared_length_rejected_before_payload(self):
        a, b = self._pair()
        try:
            # header only — no payload bytes exist; the bound must trip
            # on the declared length alone, before any allocation
            a.sendall(_LEN.pack(MAX_FRAME + 1))
            with pytest.raises(FrameError, match="exceeds"):
                self.recv(b)
        finally:
            a.close()
            b.close()

    def test_frame_at_the_bound_passes(self):
        a, b = self._pair()
        pad = "x" * (MAX_FRAME - len('{"op":"bye","pad":""}'))
        frame = {"op": "bye", "pad": pad}
        # a full-size frame outgrows the socket buffer: send it from
        # a thread while the reader drains it
        sender = threading.Thread(target=send_msg, args=(a, frame))
        sender.start()
        try:
            assert self.recv(b) == frame
        finally:
            sender.join(timeout=10.0)
            a.close()
            b.close()

    def test_custom_max_frame_parameter(self):
        a, b = self._pair()
        try:
            send_msg(a, {"op": "bye", "pad": "x" * 64})
            with pytest.raises(FrameError, match="max_frame 16"):
                self.recv(b, max_frame=16)
        finally:
            a.close()
            b.close()

    def test_frame_within_custom_bound_passes(self):
        a, b = self._pair()
        try:
            send_msg(a, {"op": "bye"})
            assert self.recv(b, max_frame=64) == {"op": "bye"}
        finally:
            a.close()
            b.close()

    def test_garbage_payload_raises_frame_error(self):
        a, b = self._pair()
        try:
            payload = b"this is not json"
            a.sendall(_LEN.pack(len(payload)) + payload)
            with pytest.raises(FrameError, match="not JSON"):
                self.recv(b)
        finally:
            a.close()
            b.close()

    def test_non_object_json_raises_frame_error(self):
        a, b = self._pair()
        try:
            payload = b"[1, 2, 3]"
            a.sendall(_LEN.pack(len(payload)) + payload)
            with pytest.raises(FrameError, match="not a JSON object"):
                self.recv(b)
        finally:
            a.close()
            b.close()

    def test_truncated_length_prefix_is_clean_eof(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00")   # 2 of 4 header bytes
            a.close()
            assert self.recv(b) is None
        finally:
            b.close()

    def test_mid_frame_disconnect_is_clean_eof(self):
        a, b = self._pair()
        try:
            a.sendall(_LEN.pack(100) + b"x" * 10)
            a.close()
            assert self.recv(b) is None
        finally:
            b.close()


class TestReadMsgBound(TestRecvMsgBound):
    """The same cases read through ``FrameProtocol``."""

    recv = staticmethod(protocol_read_on)


# -- the same negatives against a live TCP worker -----------------------

def _connect(endpoint):
    sock = socket.create_connection(endpoint, timeout=10.0)
    sock.settimeout(10.0)
    return sock


@pytest.fixture
def tcp_worker():
    process, endpoint = spawn_local_tcp_worker(
        {"slots": 1, "queue_limit": 4})
    yield process, endpoint
    if process.is_alive():
        process.terminate()
    process.join(timeout=10.0)


class TestWireNegativesAgainstWorker:
    def test_stats_round_trip_sanity(self, tcp_worker):
        process, endpoint = tcp_worker
        sock = _connect(endpoint)
        try:
            send_msg(sock, {"op": "stats", "rid": 1})
            reply = recv_msg(sock)
            assert reply["op"] == "stats"
            assert reply["stats"]["running"] == 0
            send_msg(sock, {"op": "shutdown"})
            assert recv_msg(sock) == {"op": "bye"}
        finally:
            sock.close()
        process.join(timeout=10.0)
        assert process.exitcode == 0

    def test_oversized_length_gets_error_frame_then_eof(self, tcp_worker):
        process, endpoint = tcp_worker
        sock = _connect(endpoint)
        try:
            sock.sendall(_LEN.pack(MAX_FRAME + 1))
            reply = recv_msg(sock)
            assert reply["op"] == "error"
            assert "exceeds" in reply["error"]
            assert recv_msg(sock) is None   # worker closed after error
        finally:
            sock.close()
        process.join(timeout=10.0)
        assert process.exitcode == 0

    def test_garbage_json_gets_error_frame_then_eof(self, tcp_worker):
        process, endpoint = tcp_worker
        sock = _connect(endpoint)
        try:
            payload = b"}{ not json at all"
            sock.sendall(_LEN.pack(len(payload)) + payload)
            reply = recv_msg(sock)
            assert reply["op"] == "error"
            assert "JSON" in reply["error"]
            assert recv_msg(sock) is None
        finally:
            sock.close()
        process.join(timeout=10.0)
        assert process.exitcode == 0

    def test_truncated_prefix_disconnect_exits_worker(self, tcp_worker):
        process, endpoint = tcp_worker
        sock = _connect(endpoint)
        sock.sendall(b"\x00")        # 1 of 4 header bytes
        sock.close()
        process.join(timeout=10.0)   # clean EOF — worker must exit
        assert process.exitcode == 0

    def test_mid_frame_disconnect_exits_worker(self, tcp_worker):
        process, endpoint = tcp_worker
        sock = _connect(endpoint)
        sock.sendall(_LEN.pack(4096) + b"y" * 100)
        sock.close()
        process.join(timeout=10.0)
        assert process.exitcode == 0


# -- transport equivalence: AF_UNIX vs TCP digests ----------------------

def _digest_map(requests):
    digests = {}
    for request in requests:
        out = request.result(timeout_s=0.0)
        if out["state"] == "completed" and out.get("final"):
            digests.setdefault(request.seed, set()).add(
                out["value_digest"])
    return digests


class TestTransportEquivalence:
    SPECS = [("dwt53", 16, seed) for seed in (0, 1, 2)] * 2

    def _run(self, fleet):
        requests = [fleet.submit(app, size=size, seed=seed, slo=SLO_OK)
                    for app, size, seed in self.SPECS]
        assert fleet.drain(timeout_s=90.0)
        summary = summarize(requests)
        assert summary["completed"] == len(self.SPECS)
        assert summary["failed"] == 0
        return _digest_map(requests)

    def test_tcp_fleet_seals_identical_digests(self):
        config = {"slots": 2, "queue_limit": 32}
        with FleetRouter(workers=2, worker_config=config) as fleet:
            unix_digests = self._run(fleet)

        procs, endpoints = [], []
        try:
            for _ in range(2):
                process, endpoint = spawn_local_tcp_worker(config)
                procs.append(process)
                endpoints.append(endpoint)
            with FleetRouter(endpoints=endpoints,
                             worker_config=config) as fleet:
                tcp_digests = self._run(fleet)
        finally:
            for process in procs:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=10.0)

        assert set(unix_digests) == {0, 1, 2}
        for seed, seen in unix_digests.items():
            assert len(seen) == 1, (seed, seen)
        assert unix_digests == tcp_digests


# -- the asyncio front end over a stub router ----------------------------

class StubRouter:
    """``FleetRouter`` as far as ``AioFrontend`` uses it: ``submit``
    returns a ``FleetRequest`` that finishes when the test says —
    ``delay_s`` None: never by itself, 0: before ``submit`` returns
    (a router memo hit), > 0: that much later, from another thread."""

    def __init__(self, delay_s=None):
        self.delay_s = delay_s
        self.requests = []
        self.finished_at = {}

    def submit(self, app, size=32, seed=0, slo=None, wait_s=0.0):
        request = FleetRequest(len(self.requests) + 1, app, size, seed,
                               slo or {}, f"{app}:{seed}")
        self.requests.append(request)
        delay_s = seed / 1000.0 if self.delay_s == "seed" \
            else self.delay_s
        if delay_s == 0:
            self.finish(request)
        elif delay_s is not None:
            threading.Timer(delay_s, self.finish, (request,)).start()
        return request

    def finish(self, request):
        self.finished_at[request.rid] = time.monotonic()
        request._finish({"state": "completed", "final": True})

    def aggregate_stats(self):
        return {"workers": 0}


def front_session(router, scenario, **front_kwargs):
    """Run ``scenario(front, client)`` against a started front end."""
    async def main():
        front = AioFrontend(router, port=0, **front_kwargs)
        host, port = await front.start()
        client = await AioFleetClient.connect(host, port)
        try:
            return await asyncio.wait_for(scenario(front, client), 30.0)
        finally:
            await client.close(polite=False)
            await front.stop(drain_timeout_s=0.1)

    return asyncio.run(main())


class TestAioFrontendDelivery:
    """A ``done`` leaves the front end when the router finishes the
    request, not at the next turn of a delivery poll."""

    def test_memo_hit_done_is_not_held_for_a_poll(self):
        async def scenario(front, client):
            times = []
            for seed in range(7):
                start = time.monotonic()
                reply = await (await client.submit("dwt53", seed=seed))
                times.append(time.monotonic() - start)
                assert reply["state"] == "completed"
            return sorted(times)

        times = front_session(StubRouter(delay_s=0), scenario)
        assert times[len(times) // 2] < 0.025, times

    def test_dones_arrive_when_they_finish_not_on_a_grid(self):
        router = StubRouter(delay_s="seed")     # seed = delay in ms
        arrived = {}

        async def scenario(front, client):
            dones = [await client.submit("dwt53", seed=delay_ms)
                     for delay_ms in (10, 70)]
            for rid, done in enumerate(dones, start=1):
                done.add_done_callback(
                    lambda _f, rid=rid:
                    arrived.setdefault(rid, time.monotonic()))
            await asyncio.gather(*dones)

        front_session(router, scenario)
        late = [arrived[rid] - router.finished_at[rid] for rid in (1, 2)]
        assert max(late) < 0.03, late
        gap = arrived[2] - arrived[1]
        assert 0.03 < gap < 0.09, gap      # 60 ms apart, as finished


class TestAioFrontendConnectionRules:
    def test_idle_connection_is_told_bye(self):
        async def scenario(front, client):
            await asyncio.wait_for(client._closed, 5.0)
            return dict(front.counters)

        counters = front_session(StubRouter(), scenario,
                                 idle_timeout_s=0.2)
        assert counters["idle_closes"] == 1

    def test_pending_request_outlives_the_idle_timeout(self):
        async def scenario(front, client):
            return await (await client.submit("dwt53"))

        reply = front_session(StubRouter(delay_s=0.5), scenario,
                              idle_timeout_s=0.2)
        assert reply["state"] == "completed"

    def test_backpressure_holds_the_frame_past_the_limit(self):
        router = StubRouter()

        async def scenario(front, client):
            dones = [await client.submit("dwt53") for _ in range(2)]
            third = asyncio.ensure_future(client.submit("dwt53"))
            await asyncio.sleep(0.2)
            held = (not third.done(), len(router.requests))
            router.finish(router.requests[0])
            dones.append(await asyncio.wait_for(third, 5.0))  # acked now
            for request in router.requests[1:]:
                router.finish(request)
            await asyncio.gather(*dones)
            return held, len(router.requests)

        held, forwarded = front_session(router, scenario,
                                        max_pending_per_conn=2)
        assert held == (True, 2)    # not acked, not even forwarded
        assert forwarded == 3

    def test_drain_refuses_new_work_and_delivers_the_old_once(self):
        router = StubRouter()

        async def scenario(front, client):
            first = await client.submit("dwt53")
            stopping = asyncio.ensure_future(front.stop())
            await asyncio.sleep(0.1)
            refused = await (await client.submit("dwt53"))
            assert not stopping.done()      # still waiting for `first`
            router.finish(router.requests[0])
            reply = await first
            clean = await asyncio.wait_for(stopping, 5.0)
            return refused, reply, clean, dict(front.counters)

        refused, reply, clean, counters = front_session(router, scenario)
        assert refused["state"] == "draining"
        assert reply["state"] == "completed"
        assert clean
        assert counters["dones"] == 1 and counters["rejected"] == 1
        assert len(router.requests) == 1

    def test_drain_times_out_on_a_request_that_never_finishes(self):
        async def scenario(front, client):
            done = await client.submit("dwt53")
            clean = await front.stop(drain_timeout_s=0.2)
            done.cancel()
            return clean

        assert front_session(StubRouter(), scenario) is False


class TestParseEndpoint:
    def test_round_trip(self):
        assert parse_endpoint("example.com:9701") == ("example.com",
                                                      9701)

    @pytest.mark.parametrize("bad", ["nohost", ":9", "h:", "h:x",
                                     "9701"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)
