"""Network-fault conformance for the TCP fleet + fleet-wide memo.

The cross-host story has two failure modes fork never had: a worker
*process* can die (SIGKILL) and a worker *connection* can drop while
the process lives.  Both must preserve the anytime guarantee — every
orphaned request re-dispatches to a survivor, suspend checkpoints ship
in-band (``migrated >= 1`` when one was provably pinned), finals stay
bit-exact, and no request ever observes two terminal answers.

The fleet-wide memo rides the same machinery: a sealed final answered
from the router's TTL store must be byte-identical to the recompute it
replaced, survive the sealing worker's death, expire on schedule, and
carry ``violations in (0, None)`` when workers run with an attached
invariant Checker.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.check.fleetdiff import held_reference
from repro.serve.router import FleetRouter, summarize_fleet
from repro.serve.transport import spawn_local_tcp_worker

pytestmark = [pytest.mark.serve, pytest.mark.faults,
              pytest.mark.timeout(300)]

SLO_OK = {"deadline_s": 120.0}


def _spawn_tcp_fleet(n, config, resume_root=None):
    procs, endpoints = [], []
    for i in range(n):
        worker_config = dict(config)
        if resume_root is not None:
            worker_config["resume_dir"] = os.path.join(
                str(resume_root), f"w{i}")
        process, endpoint = spawn_local_tcp_worker(worker_config)
        procs.append(process)
        endpoints.append(endpoint)
    return procs, endpoints


def _reap(procs):
    for process in procs:
        if process.is_alive():
            process.terminate()
        process.join(timeout=10.0)


@pytest.mark.slow
class TestTcpWorkerSigkill:
    def test_sigkill_migrates_in_band_and_finishes_bit_exact(
            self, tmp_path):
        """SIGSTOP-pin a TCP worker holding suspend checkpoints, then
        SIGKILL it: orphans must migrate via in-band ``ckpt_*`` frames
        (TCP workers share no filesystem with their replacement — there
        is none), and every final must match the precise in-process
        reference bit-exactly."""
        from repro.apps.registry import get_app
        from repro.serve.fleet import value_digest

        seeds = list(range(9))
        spec = get_app("2dconv")
        reference = {
            seed: value_digest(
                spec.build(spec.make_input(96, seed)).precise_output())
            for seed in seeds}

        config = {"slots": 1, "queue_limit": 6, "quantum_s": 0.02}
        # no reference comes in before the SIGKILL: every run waits for
        # its reference, and is suspended, rather than end on it
        released = tmp_path / "reference-released"
        with held_reference("2dconv", str(released)):
            procs, endpoints = _spawn_tcp_fleet(3, config,
                                                resume_root=tmp_path)
        try:
            with FleetRouter(endpoints=endpoints,
                             resume_dir=str(tmp_path),
                             worker_config=config) as fleet:
                requests = [fleet.submit("2dconv", size=96, seed=seed,
                                         slo={"deadline_s": 300.0})
                            for seed in seeds]
                victim = None
                deadline = time.monotonic() + 60.0
                while victim is None and time.monotonic() < deadline:
                    candidates = [l for l in fleet._links
                                  if l.inflight]
                    for link in candidates:
                        pid = procs[link.index].pid
                        os.kill(pid, signal.SIGSTOP)
                        workdir = tmp_path / f"w{link.index}"
                        if (link.inflight and workdir.is_dir()
                                and any(f.name.endswith(".rck")
                                        for f in workdir.iterdir())):
                            victim = link   # frozen, checkpoints pinned
                            break
                        os.kill(pid, signal.SIGCONT)
                    if victim is None:
                        time.sleep(0.02)
                assert victim is not None, "no worker pinned a ckpt"
                os.kill(procs[victim.index].pid, signal.SIGKILL)
                released.touch()
                assert fleet.drain(timeout_s=240.0)
                summary = summarize_fleet(requests)
                stats = fleet.aggregate_stats()["router"]
                alive = fleet.alive_workers()
        finally:
            _reap(procs)

        assert alive == 2                  # TCP deaths are terminal
        assert stats["worker_deaths"] >= 1
        assert stats["respawns"] == 0      # nothing to re-fork
        assert stats["migrated"] >= 1, stats
        assert summary["failed"] == 0
        assert summary["completed"] == 9
        for request in requests:
            out = request.result(timeout_s=0.0)
            if out.get("final"):
                assert out["value_digest"] == reference[request.seed]


class TestConnectionDrop:
    def test_eof_without_death_redispatches_without_duplicate_done(
            self):
        """Sever a live worker's TCP connection (no signal touches the
        process): the router must treat the EOF as a death and
        re-dispatch the in-flight requests to survivors, the orphaned
        worker must notice and exit cleanly rather than crash, and each
        request must see exactly one terminal callback — never a
        duplicate from the half-orphaned worker."""
        config = {"slots": 1, "queue_limit": 8, "quantum_s": 0.02}
        procs, endpoints = _spawn_tcp_fleet(2, config)
        done_counts = {}
        lock = threading.Lock()

        def count(request):
            with lock:
                done_counts[request.rid] = \
                    done_counts.get(request.rid, 0) + 1

        try:
            with FleetRouter(endpoints=endpoints,
                             worker_config=config) as fleet:
                requests = []
                for seed in range(6):
                    request = fleet.submit("2dconv", size=64,
                                           seed=seed, slo=SLO_OK)
                    request.add_done_callback(count)
                    requests.append(request)
                deadline = time.monotonic() + 30.0
                victim = None
                while victim is None and time.monotonic() < deadline:
                    victim = next((l for l in fleet._links
                                   if l.inflight), None)
                    if victim is None:
                        time.sleep(0.01)
                assert victim is not None, "no in-flight work to orphan"
                victim.sock.shutdown(socket.SHUT_RDWR)
                assert fleet.drain(timeout_s=120.0)
                summary = summarize_fleet(requests)
                stats = fleet.aggregate_stats()["router"]
            # the severed worker notices EOF and exits cleanly — it was
            # never signalled, so any non-zero exit would be a crash
            procs[victim.index].join(timeout=30.0)
            assert procs[victim.index].exitcode == 0
        finally:
            _reap(procs)

        assert stats["worker_deaths"] == 1
        assert stats["redispatched"] >= 1
        assert summary["completed"] == 6
        assert summary["failed"] == 0
        assert sorted(done_counts) == [r.rid for r in requests]
        assert set(done_counts.values()) == {1}   # no duplicate done


# -- fleet-wide memo ----------------------------------------------------

def fork_fleet(**kwargs):
    config = kwargs.pop("worker_config", {})
    config.setdefault("slots", 2)
    config.setdefault("queue_limit", 16)
    # silence the *worker-local* memo so every hit asserted below is
    # unambiguously the router's fleet-wide store
    config.setdefault("memo_ttl_s", 0.0)
    kwargs.setdefault("respawn", False)
    return FleetRouter(workers=2, worker_config=config, **kwargs)


class TestFleetMemo:
    def test_duplicate_after_seal_answered_without_dispatch(self):
        with fork_fleet() as fleet:
            first = fleet.submit("dwt53", size=16, seed=0, slo=SLO_OK)
            sealed = first.result(timeout_s=60.0)
            assert sealed["state"] == "completed" and sealed["final"]
            dispatched = fleet.counters["dispatched"]

            dup = fleet.submit("dwt53", size=16, seed=0, slo=SLO_OK)
            out = dup.result(timeout_s=10.0)
            assert fleet.counters["dispatched"] == dispatched
            assert fleet.counters["memo_hits"] == 1
        assert out["memo_hit"] and out["fleet_memo"]
        assert out["worker"] is None           # no worker touched it
        assert out["value_digest"] == sealed["value_digest"]

    def test_memo_survives_sealing_workers_death(self):
        with fork_fleet() as fleet:
            first = fleet.submit("dwt53", size=16, seed=3, slo=SLO_OK)
            sealed = first.result(timeout_s=60.0)
            owner = sealed["worker"]
            assert owner is not None

            victim = fleet._links[owner]
            victim.process.terminate()
            deadline = time.monotonic() + 30.0
            while (fleet.counters["worker_deaths"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert fleet.counters["worker_deaths"] == 1

            dup = fleet.submit("dwt53", size=16, seed=3, slo=SLO_OK)
            out = dup.result(timeout_s=10.0)
        assert out["fleet_memo"]
        assert out["value_digest"] == sealed["value_digest"]

    def test_ttl_expiry_forces_recompute(self):
        with fork_fleet(fleet_memo_ttl_s=0.2) as fleet:
            first = fleet.submit("dwt53", size=16, seed=5, slo=SLO_OK)
            sealed = first.result(timeout_s=60.0)
            time.sleep(0.5)                     # let the entry expire
            dispatched = fleet.counters["dispatched"]
            dup = fleet.submit("dwt53", size=16, seed=5, slo=SLO_OK)
            out = dup.result(timeout_s=60.0)
            assert fleet.counters["memo_hits"] == 0
            assert fleet.counters["dispatched"] == dispatched + 1
        assert not out.get("fleet_memo")
        assert out["value_digest"] == sealed["value_digest"]

    def test_memo_hits_surface_in_aggregate_stats_and_trace(self):
        from repro.core.tracing import InMemorySink

        sink = InMemorySink()
        with fork_fleet(trace=sink) as fleet:
            fleet.submit("dwt53", size=16, seed=7,
                         slo=SLO_OK).result(timeout_s=60.0)
            fleet.submit("dwt53", size=16, seed=7,
                         slo=SLO_OK).result(timeout_s=10.0)
            stats = fleet.aggregate_stats()
        memo = stats["fleet_memo"]
        assert memo["hits"] == 1
        assert memo["size"] == 1
        kinds = {event.kind for event in sink.events}
        assert "fleet.memo_hit" in kinds

    @pytest.mark.check
    def test_checked_workers_report_zero_violations_under_memo(self):
        """With an invariant Checker attached worker-side, computed
        answers must report 0 violations and memo answers None (no run
        happened) — never a positive count."""
        with fork_fleet(worker_config={"check": True}) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=i % 2,
                                     slo=SLO_OK) for i in range(8)]
            assert fleet.drain(timeout_s=90.0)
            memo_hits = fleet.counters["memo_hits"]
        outs = [r.result(timeout_s=0.0) for r in requests]
        assert all(o["state"] == "completed" for o in outs)
        assert all(o.get("violations") in (0, None) for o in outs)
        checked = [o for o in outs if o.get("violations") == 0]
        assert checked, "no run was actually checked"
        assert memo_hits + sum(1 for o in outs
                               if o.get("coalesced")) > 0
