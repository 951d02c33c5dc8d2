"""The precise kernel races the ladder.

A deferred metric whose reference is the run's precise terminal value
offers it as ``precise`` once it is in; a run that has not finished by
itself then ends on it, as its final version, one past the ladder's
newest.  The server-side tests drive the reference with a test
``Future``; the worker-side ones check the registry's reference
contract and the ``check``-mode digest comparison that makes the race
sound.
"""

import contextlib
import dataclasses
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.apps.registry import APP_REGISTRY, get_app
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.serve import SLO, AnytimeServer, SessionState
from repro.serve.fleet import (_ScoreLater, recv_msg, send_msg,
                               value_digest, worker_main)

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

LEVELS = 400


def staircase(levels=LEVELS, sleep_s=0.004):
    """One iterative stage whose version i holds the value i; the last,
    ``levels``, is the precise output."""
    def level(i):
        def fn(_):
            time.sleep(sleep_s)
            return i + 1
        return AccuracyLevel(fn, 1.0)

    stage = IterativeStage("work", VersionedBuffer("out"),
                           (VersionedBuffer("in"),),
                           [level(i) for i in range(levels)])
    return AnytimeAutomaton([stage], external={"in": 0})


class RaceMetric:
    """The staircase's value as its quality, behind the deferred-metric
    protocol, with its reference (the precise value) a test future."""

    def __init__(self):
        self.reference = Future()

    def arrive(self, value=LEVELS):
        self.reference.set_result(value)

    @property
    def ready(self):
        return self.reference.done()

    @property
    def error(self):
        return None

    @property
    def precise(self):
        return self.reference.result() if self.ready else None

    def on_ready(self, fn):
        self.reference.add_done_callback(lambda _: fn())

    def __call__(self, value):
        self.reference.result(timeout=30.0)
        return float(value)


def wait_for_version(session, version, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while session.snapshot().version < version:
        assert time.monotonic() < deadline, "the ladder never got there"
        time.sleep(0.002)


class TestServerRace:
    def test_reference_first_ends_the_run_final_on_it(self):
        metric = RaceMetric()
        # a long tick: only the reference's callback can answer soon
        with AnytimeServer(slots=1, tick_s=0.5) as server:
            session = server.submit(staircase, metric=metric, key="k")
            wait_for_version(session, 3)
            arrived = time.monotonic()
            metric.arrive()
            result = session.result(timeout_s=10.0)
            waited = time.monotonic() - arrived
            stats = server.stats()
        assert result.state is SessionState.COMPLETED
        assert result.snapshot.final and result.slo_met
        assert value_digest(result.snapshot.value) \
            == value_digest(metric.precise)
        assert 3 < result.snapshot.version <= LEVELS
        assert not result.interrupted
        # the ladder was stopped, long before its own final
        assert result.run_result.stopped_early
        assert waited < 0.25
        assert stats["precise_wins"] == 1
        assert stats["completed"] == 1 and stats["running"] == 0

    def test_deadline_before_the_reference_gets_a_ladder_version(self):
        metric = RaceMetric()
        threading.Timer(0.3, metric.arrive).start()
        with AnytimeServer(slots=1) as server:
            session = server.submit(staircase, SLO(deadline_s=0.05),
                                    metric=metric, key="k")
            result = session.result(timeout_s=10.0)
            stats = server.stats()
        assert result.state is SessionState.COMPLETED
        assert not result.snapshot.final and result.interrupted
        assert result.snapshot.value == result.snapshot.version
        assert stats["precise_wins"] == 0

    def test_coalesced_subscribers_end_on_one_precise_digest(self):
        metric = RaceMetric()
        with AnytimeServer(slots=1) as server:
            sessions = [
                server.submit(staircase, slo, metric=metric, key="k")
                for slo in (SLO(), SLO(target_db=1e9),
                            SLO(deadline_s=60.0))]
            wait_for_version(sessions[0], 2)
            metric.arrive()
            results = [s.result(timeout_s=10.0) for s in sessions]
            stats = server.stats()
        assert {value_digest(r.snapshot.value) for r in results} \
            == {value_digest(LEVELS)}
        assert len({r.snapshot.version for r in results}) == 1
        assert all(r.state is SessionState.COMPLETED
                   and r.snapshot.final for r in results)
        assert stats["precise_wins"] == 1 and stats["coalesced"] == 2

    def test_queued_run_completes_without_a_slot(self):
        metric = RaceMetric()
        with AnytimeServer(slots=1) as server:
            blocker = server.submit(staircase)
            wait_for_version(blocker, 1)
            queued = server.submit(staircase, metric=metric, key="k")
            assert queued.state is SessionState.QUEUED
            metric.arrive()
            result = queued.result(timeout_s=10.0)
            stats = server.stats()
            blocker.cancel()
        assert result.state is SessionState.COMPLETED
        assert result.snapshot.final and result.snapshot.version == 1
        assert result.snapshot.value == LEVELS
        assert result.run_result is None
        assert stats["admitted"] == 1 and stats["precise_wins"] == 1

    def test_race_answer_is_memoised(self):
        metric = RaceMetric()
        with AnytimeServer(slots=1, memo_ttl_s=60.0) as server:
            first = server.submit(staircase, metric=metric, key="k")
            wait_for_version(first, 1)
            metric.arrive()
            answer = first.result(timeout_s=10.0)
            again = server.submit(staircase, metric=metric,
                                  key="k").result(timeout_s=10.0)
            stats = server.stats()
        assert again.memo_hit and again.snapshot is answer.snapshot
        assert stats["precise_wins"] == 1 and stats["memo_hits"] == 1

    def test_stream_ends_on_the_race_answer_at_a_higher_version(self):
        metric = RaceMetric()
        with AnytimeServer(slots=1) as server:
            session = server.submit(staircase, metric=metric, key="k")
            wait_for_version(session, 2)
            threading.Timer(0.05, metric.arrive).start()
            seen = list(session.stream(timeout_s=10.0))
        versions = [snap.version for snap in seen]
        assert versions == sorted(set(versions)) and len(versions) >= 2
        assert seen[-1].final and seen[-1].value == LEVELS
        assert all(not snap.final for snap in seen[:-1])

    def test_references_from_many_threads_end_each_request_once(self):
        """References land from more threads than cores, with a short
        switch interval, while short ladders finish by themselves: each
        request ends once, on its run's one final, and each run ends
        once, on its reference or on its own final."""
        import random
        import sys

        rng = random.Random(7)
        metrics = [RaceMetric() for _ in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AnytimeServer(slots=2, queue_limit=64) as server, \
                    ThreadPoolExecutor(6) as pool:
                sessions = [
                    server.submit(lambda: staircase(levels=30,
                                                    sleep_s=0.001),
                                  metric=metric, key=f"k{i}")
                    for i, metric in enumerate(metrics)
                    for _ in range(2)]
                arrivals = [pool.submit(
                    lambda metric, delay: (time.sleep(delay),
                                           metric.arrive(30)),
                    metric, rng.uniform(0.0, 0.1)) for metric in metrics]
                for arrival in arrivals:
                    arrival.result(timeout=30.0)
                results = [s.result(timeout_s=30.0) for s in sessions]
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert all(r.state is SessionState.COMPLETED and r.snapshot.final
                   and r.snapshot.value == 30 for r in results)
        for pair in zip(results[0::2], results[1::2]):
            assert pair[0].snapshot is pair[1].snapshot
        assert stats["finished"] == stats["submitted"] == 48
        assert stats["running"] == stats["queued"] == 0
        assert stats["coalesced"] == 24
        # a run never granted a slot can only have ended on its reference
        assert 24 - stats["admitted"] <= stats["precise_wins"] <= 24

    def test_a_finished_run_waiting_for_its_reference_gives_up_its_slot(
            self):
        metric = RaceMetric()
        with AnytimeServer(slots=1, quantum_s=0.02) as server:
            done = server.submit(lambda: staircase(levels=2),
                                 metric=metric, key="k")
            other = server.submit(staircase)
            wait_for_version(other, 10)
            stats = server.stats()
            metric.arrive(2)
            result = done.result(timeout_s=10.0)
            other.cancel()
        # paused once, and never granted (resumed) again
        assert stats["preemptions"] == 1 and stats["resumes"] == 0
        assert result.snapshot.final and result.snapshot.version == 2
        assert server.stats()["precise_wins"] == 0

    def test_a_finished_run_is_suspended_holding_its_final(self, tmp_path):
        metric = RaceMetric()
        with AnytimeServer(slots=1, quantum_s=0.02,
                           resume_dir=str(tmp_path)) as server:
            done = server.submit(lambda: staircase(levels=2),
                                 metric=metric, key="k")
            other = server.submit(staircase)
            wait_for_version(other, 10)
            on_disk = [f.name for f in tmp_path.iterdir()]
            metric.arrive(2)
            result = done.result(timeout_s=10.0)
            other.cancel()
            assert other.result(timeout_s=10.0).state \
                is SessionState.CANCELLED
            stats = server.stats()
        assert len(on_disk) == 1 and on_disk[0].endswith(".rck")
        # ended from disk on its own final: no restore, no race win
        assert result.snapshot.final and result.snapshot.version == 2
        assert stats["suspends"] == 1 and stats["restores"] == 0
        assert stats["precise_wins"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_a_finished_ladder_answers_with_its_own_final(self):
        metric = RaceMetric()
        with AnytimeServer(slots=1) as server:
            session = server.submit(lambda: staircase(levels=3),
                                    metric=metric, key="k")
            wait_for_version(session, 3)
            time.sleep(0.05)       # finished by itself, still unscored
            metric.arrive()
            result = session.result(timeout_s=10.0)
            stats = server.stats()
        assert result.snapshot.final and result.snapshot.version == 3
        assert not result.run_result.stopped_early
        assert stats["precise_wins"] == 0


# -- the reference contract ----------------------------------------------

PRECISE_APPS = sorted(name for name, spec in APP_REGISTRY.items()
                      if spec.reference_kind == "precise")


@pytest.mark.parametrize("size", [24, 61, 62, 256])
@pytest.mark.parametrize("app", PRECISE_APPS)
def test_reference_is_the_precise_output(app, size):
    spec = get_app(app)
    for seed in range(3):
        image = spec.make_input(size, seed)
        assert value_digest(spec.reference(image)) \
            == value_digest(spec.build(image).precise_output())


def test_every_figure_app_but_dwt53_races():
    assert PRECISE_APPS == ["2dconv", "debayer", "histeq", "kmeans"]
    spec = get_app("dwt53")
    with ThreadPoolExecutor(1) as calibrator:
        metric = _ScoreLater(spec, spec.make_input(16, 0), calibrator)
        assert metric.ready and metric.precise is None


# -- soundness in check mode ----------------------------------------------

@contextlib.contextmanager
def inproc_worker(config):
    ours, theirs = socket.socketpair()
    ours.settimeout(20.0)
    thread = threading.Thread(target=worker_main, args=(theirs, config),
                              daemon=True)
    thread.start()
    try:
        yield ours
    finally:
        send_msg(ours, {"op": "shutdown"})
        thread.join(timeout=20.0)
        ours.close()
        assert not thread.is_alive()


def answer(sock, rid, app):
    send_msg(sock, {"op": "submit", "rid": rid, "app": app, "size": 24,
                    "seed": rid})
    frames = [recv_msg(sock), recv_msg(sock)]
    assert [f["op"] for f in frames] == ["ack", "done"], frames
    return frames[1]


@pytest.fixture
def late_reference(monkeypatch):
    """Register ``app`` as 2dconv with a reference that comes in after
    the ladder's own final, off by ``offset``."""
    spec = APP_REGISTRY["2dconv"]

    def register(app, offset):
        def reference(image):
            time.sleep(0.3)
            return spec.reference(image) + offset

        monkeypatch.setitem(APP_REGISTRY, app, dataclasses.replace(
            spec, name=app, reference=reference))

    return register


def test_check_mode_counts_a_wrong_reference_as_a_violation(
        late_reference):
    late_reference("wrongref", 1)
    late_reference("rightref", 0)
    with inproc_worker({"check": True}) as sock:
        wrong = answer(sock, 1, "wrongref")
        right = answer(sock, 2, "rightref")
    for done in (wrong, right):
        assert done["state"] == "completed" and done["final"]
    assert wrong["violations"] == 1
    assert right["violations"] == 0
