"""The precise kernel races the ladder.

A deferred metric whose reference is the run's precise terminal value
offers it as ``precise`` once it is in; a run that has not finished by
itself then ends on it, as its final version, one past the ladder's
newest.  A request that only the reference can answer (no deadline,
no trace sink, no stream) holds its run in the queue until it is in.
The server-side tests drive the reference with a test ``Future``;
the worker-side ones check the registry's reference contract and the
``check``-mode digest comparison that makes the race sound.
"""

import contextlib
import dataclasses
import math
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.apps.registry import APP_REGISTRY, get_app
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.core.tracing import InMemorySink
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


#: a deadline far off: the request can take a ladder version, so its
#: run is launched and races its reference rather than wait for it
LADDER = SLO(deadline_s=60.0)


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
            session = server.submit(staircase, LADDER, metric=metric,
                                    key="k")
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
            first = server.submit(staircase, LADDER, metric=metric,
                                  key="k")
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
            session = server.submit(staircase, LADDER, metric=metric,
                                    key="k")
            wait_for_version(session, 2)
            threading.Timer(0.05, metric.arrive).start()
            seen = list(session.stream(timeout_s=10.0))
        versions = [snap.version for snap in seen]
        assert versions == sorted(set(versions)) and len(versions) >= 2
        assert seen[-1].final and seen[-1].value == LEVELS
        assert all(not snap.final for snap in seen[:-1])

    def test_references_from_many_threads_end_each_request_once(self):
        """References land from more threads than cores, with a short
        switch interval, while short ladders finish by themselves (every
        other key; the rest are held for their reference): each request
        ends once, on its run's one final, and each run ends once, on
        its reference or on its own final."""
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
                                  LADDER if i % 2 else None,
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
            done = server.submit(lambda: staircase(levels=2), LADDER,
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
            done = server.submit(lambda: staircase(levels=2), LADDER,
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
            session = server.submit(lambda: staircase(levels=3), LADDER,
                                    metric=metric, key="k")
            wait_for_version(session, 3)
            time.sleep(0.05)       # finished by itself, still unscored
            metric.arrive()
            result = session.result(timeout_s=10.0)
            stats = server.stats()
        assert result.snapshot.final and result.snapshot.version == 3
        assert not result.run_result.stopped_early
        assert stats["precise_wins"] == 0


class TestHeldRun:
    """A request that only its precise reference can answer waits for
    it: with no deadline, a racing metric that is not ready, no trace
    sink and no stream, no ladder version can leave before the
    reference, and once it is in it is the answer.  Its run stays
    queued and is never launched."""

    def test_the_reference_answers_at_version_1_without_a_launch(self):
        metric = RaceMetric()
        built = []

        def builder():
            built.append(1)
            return staircase()

        with AnytimeServer(slots=1) as server:
            session = server.submit(builder, metric=metric, key="k")
            time.sleep(0.1)     # many ticks, and a free slot
            assert session.state is SessionState.QUEUED
            assert server.stats()["queued"] == 1
            metric.arrive()
            result = session.result(timeout_s=10.0)
            stats = server.stats()
        assert built == []
        assert stats["admitted"] == 0 and stats["precise_wins"] == 1
        assert result.state is SessionState.COMPLETED and result.slo_met
        assert result.snapshot.final and result.snapshot.version == 1
        assert value_digest(result.snapshot.value) \
            == value_digest(metric.precise)
        assert result.run_result is None and not result.interrupted

    @pytest.mark.parametrize("joiner", [{"slo": LADDER}],
                             ids=["deadline"])
    def test_a_subscriber_that_reads_the_ladder_launches_the_run(
            self, joiner):
        metric = RaceMetric()
        with AnytimeServer(slots=1) as server:
            held = server.submit(staircase, metric=metric, key="k")
            time.sleep(0.05)
            assert server.stats()["admitted"] == 0
            joined = server.submit(staircase, metric=metric, key="k",
                                   **joiner)
            wait_for_version(held, 2)
            metric.arrive()
            results = [s.result(timeout_s=10.0) for s in (held, joined)]
            stats = server.stats()
        assert stats["admitted"] == 1 and stats["coalesced"] == 1
        assert stats["precise_wins"] == 1
        assert results[0].snapshot is results[1].snapshot
        assert results[0].snapshot.final \
            and results[0].snapshot.version > 2

    def test_a_joining_trace_sink_leaves_the_run_held(self):
        """A run traces to its lead's sink only: a joiner's sink would
        see nothing of a ladder it launched, so it launches none, and
        the reference answers both requests."""
        metric = RaceMetric()
        sink = InMemorySink()
        with AnytimeServer(slots=1) as server:
            held = server.submit(staircase, metric=metric, key="k")
            time.sleep(0.05)
            joined = server.submit(staircase, metric=metric, key="k",
                                   trace=sink)
            time.sleep(0.1)     # many ticks, and a free slot
            assert server.stats()["admitted"] == 0
            assert joined.state is SessionState.QUEUED
            metric.arrive()
            results = [s.result(timeout_s=10.0) for s in (held, joined)]
            stats = server.stats()
        assert stats["admitted"] == 0 and stats["coalesced"] == 1
        assert stats["precise_wins"] == 1
        for result in results:
            assert result.state is SessionState.COMPLETED
            assert result.snapshot.final and result.snapshot.version == 1
            assert value_digest(result.snapshot.value) \
                == value_digest(metric.precise)
        assert not sink.for_kind("stage.start")

    def test_a_leading_trace_sink_launches_the_run(self):
        metric = RaceMetric()
        sink = InMemorySink()
        with AnytimeServer(slots=1) as server:
            held = server.submit(staircase, metric=metric, key="held")
            traced = server.submit(staircase, metric=metric, key="traced",
                                   trace=sink)
            wait_for_version(traced, 2)
            assert held.state is SessionState.QUEUED
            metric.arrive()
            results = [s.result(timeout_s=10.0) for s in (held, traced)]
            stats = server.stats()
        assert stats["admitted"] == 1 and stats["precise_wins"] == 2
        assert results[0].snapshot.version == 1
        assert results[1].snapshot.final and results[1].snapshot.version > 2
        assert sink.for_kind("stage.start")

    def test_a_stream_launches_the_run(self):
        metric = RaceMetric()
        with AnytimeServer(slots=1) as server:
            session = server.submit(staircase, metric=metric, key="k")
            time.sleep(0.05)
            assert server.stats()["admitted"] == 0
            stream = session.stream(timeout_s=10.0)
            first = next(stream)      # a ladder version: launched
            metric.arrive()
            seen = [first, *stream]
            stats = server.stats()
        assert stats["admitted"] == 1 and stats["precise_wins"] == 1
        assert not first.final and seen[-1].final
        assert seen[-1].value == LEVELS

    def test_every_app_holds_for_its_precise_value(self):
        """dwt53's metric scores at once (its reference is its input),
        2dconv's waits for its reference: both offer their precise
        value from the calibrate thread, and with no deadline both
        stay queued until it answers them at version 1."""
        gate = threading.Event()
        apps = {name: get_app(name) for name in ("dwt53", "2dconv")}
        images = {name: spec.make_input(24, 0)
                  for name, spec in apps.items()}
        with ThreadPoolExecutor(1) as calibrator, \
                AnytimeServer(slots=2) as server:
            calibrator.submit(gate.wait, 30.0)
            metrics = {name: _ScoreLater(spec, images[name], calibrator)
                       for name, spec in apps.items()}
            sessions = {
                name: server.submit(
                    lambda spec=spec, image=images[name]:
                    spec.build(image),
                    metric=metrics[name], key=name)
                for name, spec in apps.items()}
            time.sleep(0.1)     # many slots free, nothing launched
            assert metrics["dwt53"].ready
            assert not metrics["2dconv"].ready
            assert all(s.state is SessionState.QUEUED
                       for s in sessions.values())
            gate.set()
            results = {name: s.result(timeout_s=30.0)
                       for name, s in sessions.items()}
            stats = server.stats()
        for name, result in results.items():
            assert result.state is SessionState.COMPLETED
            assert result.snapshot.final and result.snapshot.version == 1
            assert value_digest(result.snapshot.value) == value_digest(
                apps[name].build(images[name]).precise_output())
        assert stats["admitted"] == 0 and stats["precise_wins"] == 2

    def test_cancel_ends_a_held_request_at_once(self):
        """A held run publishes no versions to wake the scheduler: the
        cancel itself does, well inside the tick and a ladder step."""
        metric = RaceMetric()
        with AnytimeServer(slots=1, tick_s=0.5) as server:
            session = server.submit(lambda: staircase(sleep_s=0.3),
                                    metric=metric, key="k")
            time.sleep(0.1)
            cancelled = time.monotonic()
            session.cancel()
            assert session.wait(timeout_s=5.0)
            waited = time.monotonic() - cancelled
            metric.arrive()
        assert session.result().state is SessionState.CANCELLED
        assert waited < 0.05


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


def test_every_figure_app_races():
    """Four apps offer their reference as the precise value; dwt53,
    whose reference is its input, is ready to score at once and offers
    its automaton's own precise pass once the calibrate thread ran it
    (the next test checks that value)."""
    assert PRECISE_APPS == ["2dconv", "debayer", "histeq", "kmeans"]
    spec = get_app("dwt53")
    gate = threading.Event()
    with ThreadPoolExecutor(1) as calibrator:
        calibrator.submit(gate.wait, 30.0)
        metric = _ScoreLater(spec, spec.make_input(16, 0), calibrator)
        assert metric.ready and metric.precise is None
        assert metric.error is None
        gate.set()
    assert metric.precise is not None


@pytest.mark.parametrize("size", [16, 32, 256])
@pytest.mark.parametrize("app", sorted(APP_REGISTRY))
def test_the_offered_precise_value_is_the_ladders_final(app, size):
    """What answers a held request is bit for bit what the ladder
    would have ended on, and its metric scores it ∞: the server's
    shortcut returns exactly what the metric would."""
    spec = get_app(app)
    for seed in range(3):
        image = spec.make_input(size, seed)
        with ThreadPoolExecutor(1) as calibrator:
            metric = _ScoreLater(spec, image, calibrator)
        offered = metric.precise
        automaton = spec.build(image)
        ladder = automaton.run_threaded(timeout_s=60.0)
        assert ladder.completed
        final = ladder.final_values[automaton.terminal_buffer_name]
        assert value_digest(offered) \
            == value_digest(spec.build(image).precise_output()) \
            == value_digest(final)
        assert metric(offered) == math.inf


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


def test_a_worker_answers_target_requests_with_their_references():
    """256² 2dconv requests with a target and no deadline, sent back to
    back so that later references queue on the calibrate thread: each
    leaves on its reference, the first and only version, scored
    exactly."""
    seeds = range(4)
    with inproc_worker({}) as sock:
        for seed in seeds:
            send_msg(sock, {"op": "submit", "rid": seed, "app": "2dconv",
                            "size": 256, "seed": seed,
                            "slo": {"target_db": 20.0}})
        frames = [recv_msg(sock) for _ in range(2 * len(seeds))]
    dones = [f for f in frames if f["op"] == "done"]
    assert sorted(f["rid"] for f in dones) == list(seeds), frames
    for done in dones:
        assert done["state"] == "completed" and done["slo_met"]
        assert done["version"] == 1 and done["final"]
        assert done["precise_snr"]


def test_a_worker_answers_a_dwt53_target_request_with_no_ladder():
    """dwt53's metric scores at once, but with no deadline only its
    precise pass answers: held, never launched, answered at
    version 1."""
    with inproc_worker({}) as sock:
        send_msg(sock, {"op": "submit", "rid": 1, "app": "dwt53",
                        "size": 64, "seed": 0,
                        "slo": {"target_db": 20.0}})
        frames = [recv_msg(sock), recv_msg(sock)]
        send_msg(sock, {"op": "stats", "rid": 2})
        stats = recv_msg(sock)["stats"]
    assert [f["op"] for f in frames] == ["ack", "done"], frames
    done = frames[1]
    assert done["state"] == "completed" and done["slo_met"]
    assert done["version"] == 1 and done["final"] and done["precise_snr"]
    assert stats["precise_wins"] == 1 and stats["admitted"] == 0


def test_a_dwt53_deadline_request_scores_its_ladder_first():
    """With a deadline the ladder can answer: it launches at once and
    its versions are scored against the input while the precise pass
    still waits on the calibrate thread."""
    spec = get_app("dwt53")
    image = spec.make_input(24, 0)
    gate = threading.Event()
    with ThreadPoolExecutor(1) as calibrator, \
            AnytimeServer(slots=1) as server:
        calibrator.submit(gate.wait, 30.0)
        metric = _ScoreLater(spec, image, calibrator)
        session = server.submit(lambda: spec.build(image),
                                SLO(deadline_s=60.0, target_db=4.0),
                                metric=metric, key="k")
        result = session.result(timeout_s=30.0)
        assert metric.precise is None
        gate.set()
        stats = server.stats()
    assert result.state is SessionState.COMPLETED and result.slo_met
    assert result.snr_db is not None and result.snr_db >= 4.0
    assert stats["admitted"] == 1 and stats["precise_wins"] == 0


def broken_precise(kind):
    """A copy of a figure app whose precise pass raises: dwt53's
    automaton cannot be built, or 2dconv's reference fails."""
    def fail(*_):
        raise RuntimeError("the precise pass broke")

    if kind == "input":
        return dataclasses.replace(get_app("dwt53"), name="broken",
                                   build=fail)
    return dataclasses.replace(get_app("2dconv"), name="broken",
                               reference=fail)


@pytest.mark.parametrize("kind", ["input", "precise"])
def test_a_failing_precise_pass_fails_its_held_request(monkeypatch,
                                                        kind):
    """One ``done``, failed, with the error's text; the next frame is
    the answer to the next op, not a second ``done``."""
    monkeypatch.setitem(APP_REGISTRY, "broken", broken_precise(kind))
    with inproc_worker({}) as sock:
        send_msg(sock, {"op": "submit", "rid": 1, "app": "broken",
                        "size": 16, "seed": 0})
        frames = [recv_msg(sock), recv_msg(sock)]
        send_msg(sock, {"op": "stats", "rid": 2})
        after = recv_msg(sock)
    assert [f["op"] for f in frames] == ["ack", "done"], frames
    done = frames[1]
    assert done["state"] == "failed"
    assert done["errors"] == ["RuntimeError: the precise pass broke"]
    assert after["op"] == "stats"
    assert after["stats"]["failed"] == 1
    assert after["stats"]["admitted"] == 0


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
