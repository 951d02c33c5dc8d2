"""Sharded serving fleet (``repro.serve.fleet`` / ``router``).

Workers are real forked processes behind stdlib sockets, so these tests
keep inputs tiny and assert protocol outcomes, not performance: sticky
placement sends duplicates to one worker (where they coalesce), a dead
worker's in-flight requests re-dispatch to survivors, sheds retry once
elsewhere, and every result carries a value digest so bit-identity can
be asserted across the wire.
"""

import asyncio
import contextlib
import dataclasses
import gc
import os
import signal
import socket
import threading
import time
import types
import weakref

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.serve.fleet import (recv_msg, send_msg, spec_key,
                               value_digest, worker_main)
from repro.serve import router as router_mod
from repro.serve.router import FleetRouter
from repro.serve.workload import run_open_loop, summarize

pytestmark = [pytest.mark.serve, pytest.mark.timeout(180)]

SLO_OK = {"deadline_s": 60.0}


def tiny_fleet(workers=2, respawn=True, **config):
    config.setdefault("slots", 2)
    config.setdefault("queue_limit", 32)
    return FleetRouter(workers=workers, worker_config=config,
                       respawn=respawn)


class TestFleetRoundTrip:
    def test_duplicates_coalesce_and_all_complete(self):
        with tiny_fleet(workers=2, memo_ttl_s=0.0) as fleet:
            requests = []
            for i in range(20):
                app = "2dconv" if i % 2 == 0 else "dwt53"
                requests.append(fleet.submit(app, size=16, seed=i % 2,
                                             slo=SLO_OK))
                time.sleep(0.002)
            assert fleet.drain(timeout_s=90.0)
            summary = summarize(requests)
        assert summary["completed"] == 20
        assert summary["failed"] == 0
        assert summary["coalesced"] + summary["memo_hits"] > 0

    def test_same_key_lands_on_same_worker(self):
        with tiny_fleet(workers=3) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=0,
                                     slo=SLO_OK) for _ in range(6)]
            assert fleet.drain(timeout_s=90.0)
        workers = {r.result(0.0)["worker"] for r in requests}
        assert len(workers) == 1

    def test_distinct_keys_spread_across_workers(self):
        with tiny_fleet(workers=2) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=i,
                                     slo=SLO_OK) for i in range(12)]
            assert fleet.drain(timeout_s=90.0)
            summary = summarize(requests)
        assert summary["completed"] == 12
        assert len(summary["workers_used"]) == 2

    def test_final_values_bit_identical_across_duplicates(self):
        """Acceptance: coalesced subscribers' outputs are bit-identical
        to uncoalesced runs of the same spec (digests must agree even
        across workers and coalesce on/off)."""
        digests = {}
        for coalesce in (True, False):
            with tiny_fleet(workers=2, coalesce=coalesce) as fleet:
                requests = [fleet.submit("dwt53", size=16, seed=0,
                                         slo=SLO_OK) for _ in range(4)]
                assert fleet.drain(timeout_s=90.0)
            finals = {r.result(0.0)["value_digest"] for r in requests
                      if r.result(0.0)["final"]}
            assert len(finals) == 1, finals
            digests[coalesce] = finals.pop()
        assert digests[True] == digests[False]

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_duplicates_share_runs_only_when_coalescing(
            self, coalesce, monkeypatch, tmp_path):
        """Duplicates in flight together make one input, and run one
        precise pass, per distinct spec: the default fleet shares that
        one value among them, and ``coalesce=False`` still runs every
        one of them, none coalesced."""
        made = count_inputs(monkeypatch, tmp_path, "dwt53")
        config = {} if coalesce else {"coalesce": False}
        with tiny_fleet(workers=2, **config) as fleet:
            # frozen workers finish nothing until every duplicate is
            # in, so no repeat can find a sealed final in the router
            # memo; the pause lets the router write every frame, so a
            # worker reads its duplicates at once when it wakes
            with frozen_workers(fleet):
                requests = [fleet.submit("dwt53", size=16, seed=i % 2,
                                         slo=SLO_OK) for i in range(8)]
                time.sleep(0.2)
            assert fleet.drain(timeout_s=90.0)
            summary = summarize(requests)
        assert summary["completed"] == 8
        assert made() == [0, 1], made()
        # each spec's first request made its input; the other six
        # shared it, coalesced or not
        assert summary["shared"] == 6, summary
        if not coalesce:
            assert summary["coalesced"] + summary["memo_hits"] == 0, summary

    def test_fleet_stats_aggregate(self):
        with tiny_fleet(workers=2) as fleet:
            # every repeat is dispatched: no final can reach the router
            # memo before the last submission is in
            with frozen_workers(fleet):
                requests = [fleet.submit("dwt53", size=16, seed=i % 3,
                                         slo=SLO_OK) for i in range(9)]
            assert fleet.drain(timeout_s=90.0)
            stats = fleet.aggregate_stats()
        assert stats["workers"] == 2 and stats["alive"] == 2
        assert len(stats["per_worker"]) == 2
        assert stats["totals"]["completed"] == 9
        assert stats["router"]["dispatched"] == 9
        for r in requests:
            r.result(timeout_s=0.0)

    def test_stats_ask_every_worker_at_once(self):
        """Two frozen workers cost one ``timeout_s``, not two."""
        with tiny_fleet(workers=2) as fleet:
            with frozen_workers(fleet):
                start = time.monotonic()
                stats = fleet.aggregate_stats(timeout_s=0.5)
                took = time.monotonic() - start
        assert took < 0.9, took
        assert stats["per_worker"] == [None, None]


class TestServingReport:
    """One arrival loop and one summary serve a fleet as they serve a
    server."""

    def test_open_loop_drives_a_fleet(self):
        with tiny_fleet(workers=2) as fleet:
            requests = run_open_loop(
                lambda i: fleet.submit("dwt53", size=16, seed=i % 3,
                                       slo=SLO_OK),
                n_requests=6, rate_hz=200.0, seed=1)
            assert fleet.drain(timeout_s=90.0)
        assert [r.seed for r in requests] == [i % 3 for i in range(6)]
        assert [r.result(0.0)["state"] for r in requests] \
            == ["completed"] * 6

    @pytest.fixture
    def stairs(self, monkeypatch, tmp_path):
        """An app whose ladder climbs one dB a version, 20 ms a
        version, 50 versions, its precise value held until the test
        touches the file this yields: a request with a short deadline
        is interrupted on the ladder."""
        from repro.check.fleetdiff import held_reference
        from repro.core.automaton import AnytimeAutomaton
        from repro.core.buffer import VersionedBuffer
        from repro.core.iterative import AccuracyLevel, IterativeStage

        def build(image):
            def level(i):
                def fn(x):
                    time.sleep(0.02)
                    return i + 1
                return AccuracyLevel(fn, 1.0)

            out = VersionedBuffer("stairs-out")
            stage = IterativeStage("stairs", out,
                                   (VersionedBuffer("stairs-in"),),
                                   [level(i) for i in range(50)])
            return AnytimeAutomaton([stage], external={"stairs-in": 0})

        monkeypatch.setitem(APP_REGISTRY, "stairs", dataclasses.replace(
            APP_REGISTRY["dwt53"], name="stairs", build=build,
            metric=lambda value, reference: float(value),
            reference_kind="input"))
        released = tmp_path / "released"
        with held_reference("stairs", str(released)):
            yield released

    def test_fleet_summary_reports_the_quality_of_interrupted_requests(
            self, stairs):
        with tiny_fleet(workers=2) as fleet:
            try:
                requests = [fleet.submit("stairs", size=16, seed=i,
                                         slo={"deadline_s": 0.4})
                            for i in range(4)]
                assert fleet.drain(timeout_s=90.0)
            finally:
                stairs.touch()
            summary = summarize(requests)
        assert summary["completed"] == 4 and summary["interrupted"] == 4
        # each left at its deadline with a version of 1 to 50 dB
        assert 1.0 <= summary["snr_at_interrupt_mean_db"] < 50.0, summary
        # read from the workers' `done` frames (a NaN fails both)
        assert summary["preemptions_mean"] >= 0.0
        assert summary["queue_wait_mean_s"] >= 0.0

    def test_in_process_and_fleet_summaries_have_the_same_keys(self):
        from repro.apps.registry import get_app
        from repro.serve import AnytimeServer

        spec = get_app("dwt53")
        image = spec.make_input(16, 0)
        with AnytimeServer(slots=2) as server:
            sessions = [server.submit(lambda: spec.build(image),
                                      metric=lambda v: 20.0)
                        for _ in range(2)]
            assert server.drain(timeout_s=60.0)
        with tiny_fleet(workers=2) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=0,
                                     slo=SLO_OK) for _ in range(2)]
            assert fleet.drain(timeout_s=90.0)
        local, remote = summarize(sessions), summarize(requests)
        assert set(local) == set(remote)
        assert set(local["states"]) == set(remote["states"])
        assert local["completed"] == remote["completed"] == 2


class TestRouterDoesNoCompute:
    """The router keys, places and memoises on the spec alone."""

    def test_router_makes_no_input(self, monkeypatch):
        def raiser(size, seed):
            raise AssertionError("the router made an input")

        apps = ("2dconv", "histeq", "dwt53", "debayer", "kmeans")
        with tiny_fleet(workers=2) as fleet:
            # the workers forked with the real registry; this process's
            # copy now fails any input build
            for name, spec in list(APP_REGISTRY.items()):
                monkeypatch.setitem(APP_REGISTRY, name, dataclasses.replace(
                    spec, make_input=raiser))
            requests = [fleet.submit(app, size=16, seed=1, slo=SLO_OK)
                        for app in apps]
            assert fleet.drain(timeout_s=90.0)
            summary = summarize(requests)
        assert summary["completed"] == len(apps), summary["states"]

    def test_bad_spec_fails_at_the_front_with_no_dispatch(self):
        from repro.serve.aiofront import AioFleetClient, AioFrontend

        bad = [("nosuchapp", 16, 0, "unknown app"),
               ("dwt53", 0, 0, "size"), ("dwt53", 16.5, 0, "size"),
               ("dwt53", 16, -1, "seed")]

        async def scenario(fleet):
            front = AioFrontend(fleet, port=0)
            client = await AioFleetClient.connect(*await front.start())
            try:
                replies = [await (await client.submit(app, size=size,
                                                      seed=seed))
                           for app, size, seed, _ in bad]
                good = await (await client.submit("dwt53", size=16,
                                                  slo=SLO_OK))
            finally:
                await client.close()
                await front.stop(drain_timeout_s=1.0)
            return replies, good

        with tiny_fleet(workers=1) as fleet:
            replies, good = asyncio.run(asyncio.wait_for(
                scenario(fleet), 60.0))
            dispatched = fleet.counters["dispatched"]
        for reply, (_, _, _, named) in zip(replies, bad):
            assert reply["state"] == "failed", reply
            assert named in " ".join(reply["errors"]), reply
        assert good["state"] == "completed"
        assert dispatched == 1


def count_inputs(monkeypatch, tmp_path, app):
    """Make ``app``'s inputs log their seeds to a file, here and in
    workers forked after the call; returns a reader of the seeds,
    sorted."""
    log = tmp_path / f"{app}-inputs"
    spec = APP_REGISTRY[app]

    def make_input(size, seed):
        with open(log, "a") as out:
            out.write(f"{seed}\n")
        return spec.make_input(size, seed)

    monkeypatch.setitem(APP_REGISTRY, app, dataclasses.replace(
        spec, make_input=make_input))
    return lambda: sorted(int(seed) for seed in (
        log.read_text().split() if log.exists() else ()))


@contextlib.contextmanager
def frozen_workers(fleet):
    """SIGSTOP every worker for the block and SIGCONT them after;
    yields the links.  A frozen worker answers nothing, however fast
    it is."""
    links = list(fleet._links)
    for link in links:
        os.kill(link.process.pid, signal.SIGSTOP)
    try:
        yield links
    finally:
        for link in links:
            os.kill(link.process.pid, signal.SIGCONT)


def kill_a_busy_worker(fleet, submit):
    """Freeze every worker, ``submit()``, SIGKILL one that was handed
    requests, thaw the rest; returns what ``submit`` returned.  The
    victim's requests are provably in flight when it dies.  (SIGTERM
    would stay pending on a stopped process.)"""
    with frozen_workers(fleet) as links:
        requests = submit()
        victim = next(link for link in links if link.inflight)
        victim.process.kill()
    return requests


def wait_for_deaths(fleet, count, timeout_s=30.0):
    """The router learns of a death where the link's reader ends."""
    deadline = time.monotonic() + timeout_s
    while (fleet.counters["worker_deaths"] < count
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert fleet.counters["worker_deaths"] == count


class TestRouterTables:
    """The router's keyed tables (affinity pins, fleet memo) expire."""

    def test_pins_and_memo_entries_expire_in_order(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(router_mod, "_time",
                            types.SimpleNamespace(monotonic=lambda: clock[0]))
        router = FleetRouter(workers=2)
        router._links = [types.SimpleNamespace(index=i, alive=True, load=0)
                         for i in range(2)]
        done = {"state": "completed", "final": True, "value_digest": "d"}

        def place(key, at):
            clock[0] = at
            router._place(key)
            router._memo_store(key, {**done, "rid": 0})

        # a new key every 10 ms, as every fleet_target request is
        for i in range(5000):
            place(f"k{i}", i / 100)
        assert len(router._affinity) <= router_mod.AFFINITY_TTL_S * 100 + 1
        assert len(router._memo) <= router_mod.FLEET_MEMO_MAX
        place("late", 5000 / 100 + 3600.0)
        assert list(router._affinity) == list(router._memo) == ["late"]

        # a refreshed pin moves behind the keys placed after it
        for key, at in (("a", 7000.0), ("b", 7010.0), ("a", 7020.0),
                        ("c", 7045.0)):
            place(key, at)
        assert list(router._affinity) == ["a", "c"]


class TestFailover:
    """Pure failover mode (respawn=False): a dead worker is not
    replaced, its in-flight specs re-dispatch to survivors.  Re-spawn
    and checkpoint migration are covered in test_ckpt.py."""

    def test_dead_worker_requests_redispatch_to_survivors(self):
        with tiny_fleet(workers=3, respawn=False) as fleet:
            requests = kill_a_busy_worker(fleet, lambda: [
                fleet.submit("2dconv", size=24, seed=i % 3, slo=SLO_OK)
                for i in range(9)])
            wait_for_deaths(fleet, 1)
            assert fleet.drain(timeout_s=90.0)
            summary = summarize(requests)
            survivors = fleet.alive_workers()
        assert summary["failed"] == 0
        assert summary["completed"] == 9
        assert fleet.counters["worker_deaths"] == 1
        assert survivors == 2

    def test_drain_is_false_while_orphans_migrate(self):
        """A dead worker's orphans sit in no link's ``inflight`` while
        they wait to be re-placed (a checkpoint shipment can hold that
        open for seconds); ``drain`` must not call the fleet idle."""
        gate, entered = asyncio.Event(), threading.Event()
        with tiny_fleet(workers=2, respawn=False) as fleet:
            redispatch = fleet._redispatch_orphan

            async def held_open(link, request):
                entered.set()
                await gate.wait()
                await redispatch(link, request)

            fleet._redispatch_orphan = held_open
            try:
                requests = kill_a_busy_worker(fleet, lambda: [
                    fleet.submit("2dconv", size=24, seed=i, slo=SLO_OK)
                    for i in range(6)])
                assert entered.wait(timeout=30.0)
                # let the survivor finish its own share, so that only
                # the orphans are left
                deadline = time.monotonic() + 30.0
                while (any(link.inflight for link in fleet._links)
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert not any(link.inflight for link in fleet._links)
                assert any(not r.done for r in requests)
                assert fleet.drain(timeout_s=0.2) is False
            finally:
                fleet.loop.call_soon_threadsafe(gate.set)
            assert fleet.drain(timeout_s=90.0)
            summary = summarize(requests)
        assert summary["failed"] == 0
        assert summary["completed"] == 6

    def test_dead_workers_checkpoint_temps_are_swept(self, tmp_path):
        """A worker killed mid-checkpoint leaves `<key>.rck.tmp.<pid>`
        behind; the router removes it at the death, and only it."""
        workdir = tmp_path / "w0"
        workdir.mkdir()
        stale = workdir / "2dconv_0123.rck.tmp.4242"
        stale.write_bytes(b"half a checkpoint")
        whole = workdir / "2dconv_0123.rck"
        whole.write_bytes(b"a whole one")
        with FleetRouter(workers=1, respawn=False,
                         resume_dir=str(tmp_path)) as fleet:
            fleet._links[0].process.kill()
            wait_for_deaths(fleet, 1)
        assert not stale.exists()
        assert whole.exists()

    def test_last_worker_death_fails_cleanly(self):
        with tiny_fleet(workers=1, respawn=False) as fleet:
            requests = kill_a_busy_worker(fleet, lambda: [
                fleet.submit("2dconv", size=24, seed=i, slo=SLO_OK)
                for i in range(4)])
            wait_for_deaths(fleet, 1)
            assert fleet.drain(timeout_s=30.0)
        for r in requests:
            outcome = r.result(timeout_s=0.0)
            assert outcome["state"] in ("failed", "completed")
        assert any(r.result(0.0)["state"] == "failed"
                   for r in requests)

    def test_worker_forked_under_a_sigterm_handler_dies_of_sigterm(self):
        """A respawn under ``serve_front`` forks while SIGTERM has a
        handler; the worker must not inherit it."""
        from repro.serve.transport import spawn_local_tcp_worker

        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            process, endpoint = spawn_local_tcp_worker({})
        finally:
            signal.signal(signal.SIGTERM, previous)
        sock = socket.create_connection(endpoint, timeout=20.0)
        try:
            send_msg(sock, {"op": "stats", "rid": 1})
            recv_op(sock, "stats")          # the worker is running
            process.terminate()
            process.join(timeout=5.0)
            assert process.exitcode == -signal.SIGTERM
        finally:
            if process.is_alive():
                process.kill()
            sock.close()

    def test_submit_after_total_death_fails_immediately(self):
        with tiny_fleet(workers=1, respawn=False) as fleet:
            fleet._links[0].process.terminate()
            time.sleep(0.2)
            request = fleet.submit("dwt53", size=16, slo=SLO_OK)
            outcome = request.result(timeout_s=10.0)
        assert outcome["state"] == "failed"


class TestThreadingModel:
    """All of the router's I/O runs on one loop thread of its own."""

    def test_router_adds_one_thread_through_a_respawn(self):
        before = set(threading.enumerate())
        fleet = tiny_fleet(workers=3).start()
        try:
            added = set(threading.enumerate()) - before
            assert len(added) == 1, added
            fleet._links[0].process.kill()
            wait_for_deaths(fleet, 1)
            deadline = time.monotonic() + 30.0
            while (fleet.alive_workers() < 3
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert fleet.counters["respawns"] == 1
            assert set(threading.enumerate()) - before == added
        finally:
            fleet.shutdown()
        assert not set(threading.enumerate()) - before


class TestBackpressure:
    def test_shed_requests_retry_once_then_resolve(self):
        config = {"slots": 1, "queue_limit": 1, "coalesce": False}
        with tiny_fleet(workers=2, **config) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=i,
                                     slo=SLO_OK) for i in range(12)]
            assert fleet.drain(timeout_s=90.0)
            summary = summarize(requests)
        assert summary["failed"] == 0
        assert summary["completed"] + summary["shed"] == 12
        # every terminal shed was first retried on the other worker
        if summary["shed"]:
            assert fleet.counters["shed_retries"] > 0


@contextlib.contextmanager
def inproc_worker(config=None):
    """``worker_main`` on a thread of this process, so a test can
    register apps and look inside; yields the router's end of the
    socket.  Every read times out: a hang is a failure."""
    ours, theirs = socket.socketpair()
    ours.settimeout(20.0)
    thread = threading.Thread(target=worker_main, args=(theirs, config),
                              daemon=True)
    thread.start()
    try:
        yield ours
    finally:
        try:
            send_msg(ours, {"op": "shutdown"})
        except OSError:
            pass
        thread.join(timeout=20.0)
        ours.close()
        assert not thread.is_alive()


def recv_op(sock, op):
    """The next frame, which must be an ``op``."""
    msg = recv_msg(sock)
    assert msg is not None and msg["op"] == op, msg
    return msg


class TestAdmitFirstScoreLater:
    """The worker admits and acks a request before the precise
    reference its answer is scored against exists."""

    REFERENCE_S = 0.6

    @pytest.fixture
    def slowref(self, monkeypatch):
        """2dconv with a reference that takes REFERENCE_S longer."""
        spec = APP_REGISTRY["2dconv"]

        def reference(image):
            time.sleep(self.REFERENCE_S)
            return spec.reference(image)

        monkeypatch.setitem(APP_REGISTRY, "slowref", dataclasses.replace(
            spec, name="slowref", reference=reference))

    def test_ack_and_stats_do_not_wait_for_the_reference(self, slowref):
        with inproc_worker() as sock:
            start = time.monotonic()
            send_msg(sock, {"op": "submit", "rid": 1, "app": "slowref",
                            "size": 32, "seed": 0,
                            "slo": {"target_db": 15.0}})
            send_msg(sock, {"op": "stats", "rid": 2})
            ack = recv_op(sock, "ack")
            stats = recv_op(sock, "stats")
            replied = time.monotonic() - start
            done = recv_op(sock, "done")
            scored = time.monotonic() - start
        assert ack["state"] in ("queued", "running")
        assert stats["stats"]["submitted"] == 1
        assert replied < self.REFERENCE_S / 2
        # the answer itself is scored, so it waited for the reference
        assert scored >= self.REFERENCE_S
        assert done["state"] == "completed" and done["slo_met"]
        assert done["precise_snr"] or done["snr_db"] >= 15.0

    def test_target_answer_is_scored_and_final_is_precise(self, slowref):
        with inproc_worker() as sock:
            send_msg(sock, {"op": "submit", "rid": 1, "app": "2dconv",
                            "size": 128, "seed": 3,
                            "slo": {"target_db": 15.0}})
            recv_op(sock, "ack")
            early = recv_op(sock, "done")
            # no SLO: to the final, which is retired only once scored
            send_msg(sock, {"op": "submit", "rid": 2, "app": "slowref",
                            "size": 32, "seed": 1})
            recv_op(sock, "ack")
            final = recv_op(sock, "done")
        assert early["state"] == "completed" and early["slo_met"]
        assert early["precise_snr"] or early["snr_db"] >= 15.0
        assert final["state"] == "completed" and final["final"]
        assert final["precise_snr"]

    def test_raising_reference_fails_the_request_once(self, monkeypatch):
        def reference(image):
            raise ValueError("no reference for you")

        monkeypatch.setitem(APP_REGISTRY, "badref", dataclasses.replace(
            APP_REGISTRY["2dconv"], name="badref", reference=reference))
        with inproc_worker() as sock:
            send_msg(sock, {"op": "submit", "rid": 7, "app": "badref",
                            "size": 32, "seed": 0,
                            "slo": {"target_db": 15.0}})
            recv_op(sock, "ack")
            done = recv_op(sock, "done")
            # the worker lives on, and no second `done` follows
            send_msg(sock, {"op": "stats", "rid": 8})
            stats = recv_op(sock, "stats")
        assert done["rid"] == 7 and done["state"] == "failed"
        assert "no reference for you" in " ".join(done["errors"])
        assert stats["stats"]["failed"] == 1
        assert stats["stats"]["running"] == 0

    def test_workers_key_is_the_spec_key(self, monkeypatch):
        """The worker derives its coalescing key from the frame's spec
        fields; the router places by ``spec_key``.  They must agree,
        and a ``key`` the frame carries is never trusted."""
        from repro.serve.server import AnytimeServer

        keys = {}
        submit = AnytimeServer.submit

        def recording(self, builder, slo=None, **kwargs):
            keys[kwargs["name"]] = kwargs["key"]
            return submit(self, builder, slo, **kwargs)

        monkeypatch.setattr(AnytimeServer, "submit", recording)
        apps = ("2dconv", "histeq", "dwt53", "debayer", "kmeans")
        with inproc_worker() as sock:
            for rid, app in enumerate(apps, start=1):
                send_msg(sock, {"op": "submit", "rid": rid, "app": app,
                                "size": 16, "seed": rid,
                                "key": "2dconv:0000000000000000",
                                "slo": {"deadline_s": 60.0}})
                recv_op(sock, "ack")
                assert recv_op(sock, "done")["state"] == "completed"
        assert keys == {f"r{rid}": spec_key(app, 16, rid)
                        for rid, app in enumerate(apps, start=1)}


class TestTerminalAtAdmission:
    """A request that is terminal the moment it is admitted still reads
    ``ack``, then ``done``, on the wire."""

    def test_shed_request_reads_ack_then_done(self):
        with inproc_worker({"queue_limit": 0}) as sock:
            send_msg(sock, {"op": "submit", "rid": 1, "app": "dwt53",
                            "size": 16, "seed": 0, "slo": SLO_OK})
            ack = recv_op(sock, "ack")
            done = recv_op(sock, "done")
        assert ack["rid"] == done["rid"] == 1
        assert ack["state"] == done["state"] == "shed"

    def test_memo_hit_reads_ack_then_done(self):
        with inproc_worker({"memo_ttl_s": 60.0}) as sock:
            for rid in (1, 2):
                send_msg(sock, {"op": "submit", "rid": rid,
                                "app": "dwt53", "size": 16, "seed": 0})
                ack = recv_op(sock, "ack")
                done = recv_op(sock, "done")
                assert ack["rid"] == done["rid"] == rid
                assert done["state"] == "completed" and done["final"]
        assert ack["state"] == "completed"
        assert done["memo_hit"]


class TestServeWorkerListener:
    def test_both_ends_of_a_link_send_without_delay(self, monkeypatch):
        """An accepted socket is not ``TCP_NODELAY`` by itself: a
        ``done`` right behind its ``ack`` would wait out the router's
        delayed ACK."""
        from repro.serve import transport

        def nodelay(sock):
            return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        seen, bound = [], []
        announced = threading.Event()
        monkeypatch.setattr(transport, "worker_main",
                            lambda conn, config: seen.append(nodelay(conn)))

        def announce(host, port):
            bound.append((host, port))
            announced.set()

        thread = threading.Thread(
            target=transport.serve_worker_listener,
            args=(("127.0.0.1", 0),), kwargs={"announce": announce},
            daemon=True)
        thread.start()
        assert announced.wait(timeout=20.0)
        with transport.connect_worker(bound[0]) as router_end:
            assert nodelay(router_end)
            thread.join(timeout=20.0)
        assert not thread.is_alive()
        assert seen and seen[0]

    def test_forever_serves_a_second_router(self):
        """``serve-worker --forever``: after one router disconnects,
        the listener serves the next."""
        import multiprocessing

        from repro.serve.transport import serve_worker_listener

        ctx = multiprocessing.get_context("fork")
        bound_r, bound_w = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=serve_worker_listener, args=(("127.0.0.1", 0), {}),
            kwargs={"once": False,
                    "announce": lambda host, port: bound_w.send(
                        (host, port))},
            daemon=True)
        process.start()
        try:
            assert bound_r.poll(20.0)
            endpoint = bound_r.recv()
            with socket.create_connection(endpoint, timeout=20.0) as first:
                send_msg(first, {"op": "shutdown"})
                recv_op(first, "bye")
                assert recv_msg(first) is None
            with socket.create_connection(endpoint,
                                          timeout=20.0) as second:
                send_msg(second, {"op": "stats", "rid": 1})
                assert recv_op(second, "stats")["rid"] == 1
            assert process.is_alive()
        finally:
            process.kill()
            process.join(timeout=10.0)


class TestSpecIdentity:
    def test_spec_key_is_stable_and_spec_addressed(self):
        import numpy as np

        assert spec_key("dwt53", 16, 0) == spec_key("dwt53", 16, 0)
        assert spec_key("dwt53", 16, 0) != spec_key("dwt53", 16, 1)
        assert spec_key("dwt53", 16, 0) != spec_key("dwt53", 32, 0)
        assert spec_key("dwt53", 16, 0) != spec_key("2dconv", 16, 0)
        assert spec_key("dwt53", 16, 0).startswith("dwt53:")
        assert spec_key("dwt53", np.int64(16), np.int64(3)) \
            == spec_key("dwt53", 16, 3)

    @pytest.mark.parametrize("size, seed, field", [
        (0, 0, "size"), (-4, 0, "size"), (16.5, 0, "size"),
        ("16", 0, "size"), (None, 0, "size"),
        (16, -1, "seed"), (16, 0.5, "seed"), (16, "x", "seed")])
    def test_spec_key_rejects_a_bad_size_or_seed(self, size, seed, field):
        with pytest.raises(ValueError, match=field):
            spec_key("dwt53", size, seed)

    def test_spec_key_rejects_an_unknown_app(self):
        with pytest.raises(KeyError, match="known: .*dwt53"):
            spec_key("nosuchapp", 16, 0)

    def test_worker_remakes_a_spec_it_no_longer_holds(
            self, monkeypatch, tmp_path):
        """A spec's input goes with its last answer; a later request
        for it makes the input again, to the same bits."""
        made = count_inputs(monkeypatch, tmp_path, "2dconv")
        with inproc_worker() as sock:
            digests = []
            for rid, seed in enumerate((0, 1, 0), start=1):
                send_msg(sock, {"op": "submit", "rid": rid,
                                "app": "2dconv", "size": 16,
                                "seed": seed})
                recv_op(sock, "ack")
                done = recv_op(sock, "done")
                assert done["state"] == "completed" and done["final"]
                assert done["precise_snr"]
                digests.append(done["value_digest"])
        assert digests[0] == digests[2] != digests[1]
        assert made() == [0, 0, 1]

    def test_value_digest_discriminates(self):
        import numpy as np

        a = np.arange(16, dtype=np.int64)
        assert value_digest(a) == value_digest(a.copy())
        assert value_digest(a) != value_digest(a + 1)
        assert value_digest(a) != value_digest(a.astype(np.int32))
        assert value_digest({"x": a}) == value_digest({"x": a.copy()})
        assert value_digest({"x": a}) != value_digest({"y": a})


def answers(sock, count):
    """Read frames until ``count`` done frames came; return those by
    rid."""
    dones = {}
    while len(dones) < count:
        msg = recv_msg(sock)
        assert msg is not None and msg["op"] in ("ack", "done"), msg
        if msg["op"] == "done":
            dones[msg["rid"]] = msg
    return dones


class TestWorkerMakesEachThingOnce:
    """Counts, not speed: what a worker repeats for requests that
    share an input or an answer."""

    def test_five_apps_of_one_seed_make_one_scene(self, scene_makes):
        apps = ["2dconv", "histeq", "dwt53", "debayer", "kmeans"]
        with inproc_worker() as sock:
            for rid, app in enumerate(apps, start=1):
                send_msg(sock, {"op": "submit", "rid": rid,
                                "app": app, "size": 32, "seed": 7})
            dones = answers(sock, len(apps))
        for done in dones.values():
            assert done["state"] == "completed" and done["precise_snr"]
        assert scene_makes == [(32, 7)]

    def test_an_answer_shared_by_three_requests_is_hashed_once(
            self, monkeypatch, tmp_path):
        from repro.apps.registry import get_app
        from repro.check.fleetdiff import held_reference
        from repro.serve import fleet

        spec = get_app("dwt53")
        expected = value_digest(
            spec.build(spec.make_input(256, 4)).precise_output())
        hashed = []

        def counted(value):
            hashed.append(value)
            return value_digest(value)

        monkeypatch.setattr(fleet, "value_digest", counted)
        released = tmp_path / "released"
        with held_reference("dwt53", str(released)), \
                inproc_worker() as sock:
            for rid in (1, 2, 3):
                send_msg(sock, {"op": "submit", "rid": rid,
                                "app": "dwt53", "size": 256, "seed": 4})
            # the precise value, which alone answers a request with no
            # deadline, waits for the flag: all three are in flight
            for rid in (1, 2, 3):
                assert recv_op(sock, "ack")["rid"] == rid
            released.touch()
            dones = answers(sock, 3)
        assert len(hashed) == 1
        # the two later requests joined the first one's run: one value
        # answers all three
        assert sum(d["coalesced"] for d in dones.values()) == 2
        for rid, done in dones.items():
            assert done["state"] == "completed" and done["final"]
            assert done["value_digest"] == expected
            assert set(done) == set(dones[1]) and done["rid"] == rid


    def test_requests_that_share_a_live_spec_say_so(
            self, monkeypatch, tmp_path):
        """Uncoalesced duplicates run apart, yet the two that find the
        first one's spec live share its input and precise value, and
        their ``done`` says so."""
        from repro.check.fleetdiff import held_reference

        made = count_inputs(monkeypatch, tmp_path, "dwt53")
        released = tmp_path / "released"
        with held_reference("dwt53", str(released)), \
                inproc_worker({"coalesce": False}) as sock:
            for rid in (1, 2, 3):
                send_msg(sock, {"op": "submit", "rid": rid,
                                "app": "dwt53", "size": 64, "seed": 4})
            for rid in (1, 2, 3):
                assert recv_op(sock, "ack")["rid"] == rid
            released.touch()
            dones = answers(sock, 3)
        assert made() == [4]
        assert all(d["state"] == "completed" for d in dones.values())
        assert [d["coalesced"] for d in dones.values()] == [False] * 3
        assert {rid: d["shared"] for rid, d in dones.items()} == {
            1: False, 2: True, 3: True}


def weak(value):
    """Weak references to ``value``, or to each value of a dict."""
    values = value.values() if isinstance(value, dict) else (value,)
    return [weakref.ref(each) for each in values]


def still_held(refs, timeout_s=5.0):
    """The types of what ``refs`` still name once a collection frees
    nothing more (a thread may be between two lines for a moment)."""
    deadline = time.monotonic() + timeout_s
    while True:
        gc.collect()
        held = [type(ref()).__name__ for ref in refs if ref() is not None]
        if not held or time.monotonic() > deadline:
            return held
        time.sleep(0.05)


class TestWorkerHoldsOnlyWhatIsInFlight:
    """A worker keeps a spec's input, precise value and metric while a
    request of the spec is in flight, and none of them once the last
    such request is answered."""

    APPS = ("2dconv", "histeq", "dwt53", "debayer", "kmeans")

    def test_answered_specs_leave_nothing_behind(self, monkeypatch):
        from repro.serve import fleet

        refs = []

        class Recorded(fleet._ScoreLater):
            def __init__(self, record, image, calibrator):
                super().__init__(record, image, calibrator)
                refs.extend(weak(self) + weak(image))
                self._precise.add_done_callback(
                    lambda done: refs.extend(weak(done.result())))

        def digest(value):
            refs.extend(weak(value))
            return value_digest(value)

        monkeypatch.setattr(fleet, "_ScoreLater", Recorded)
        monkeypatch.setattr(fleet, "value_digest", digest)
        with inproc_worker() as sock:
            for seed in range(8):
                # half run a ladder that races the precise value, half
                # are held for it
                slo = SLO_OK if seed % 2 else None
                for rid, app in enumerate(self.APPS,
                                          start=len(self.APPS) * seed):
                    send_msg(sock, {"op": "submit", "rid": rid, "app": app,
                                    "size": 256, "seed": seed, "slo": slo})
                for done in answers(sock, len(self.APPS)).values():
                    assert done["state"] == "completed" and done["final"]
            send_msg(sock, {"op": "stats", "rid": 0})
            stats = recv_op(sock, "stats")["stats"]
            held = still_held(refs)
        # a metric, an input, a precise value (two arrays for kmeans)
        # and at least one answer per spec
        assert len(refs) >= 40 * 4
        assert held == [], held
        assert stats["completed"] == 40 and stats["live_specs"] == 0
        assert stats["rss_peak_mb"] > 0

    @pytest.mark.parametrize("how", ["shed", "failed", "raised"])
    def test_a_request_that_ends_unanswered_lets_its_spec_go(
            self, how, monkeypatch):
        from repro.serve.server import AnytimeServer

        config = {"queue_limit": 0} if how == "shed" else {}
        if how == "failed":
            def reference(image):
                raise ValueError("no reference")

            monkeypatch.setitem(APP_REGISTRY, "2dconv", dataclasses.replace(
                APP_REGISTRY["2dconv"], reference=reference))
        if how == "raised":
            def submit(self, *args, **kwargs):
                raise RuntimeError("no admission")

            monkeypatch.setattr(AnytimeServer, "submit", submit)
        with inproc_worker(config) as sock:
            send_msg(sock, {"op": "submit", "rid": 1, "app": "2dconv",
                            "size": 16, "seed": 0})
            done = answers(sock, 1)[1]
            send_msg(sock, {"op": "stats", "rid": 2})
            stats = recv_op(sock, "stats")["stats"]
        assert done["state"] == ("shed" if how == "shed" else "failed")
        assert stats["live_specs"] == 0
