"""Tests for the serving layer (``repro.serve``) and the RunHandle
control-flow inversion it is built on.

Sizes and sleeps are tiny: these tests verify scheduler invariants —
no starvation under overload, preempt/cancel always leave a sealed
valid snapshot, shed requests get their own terminal state — not
performance.
"""

import math
import threading
import time

import numpy as np
import pytest

from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.executor import RunHandle
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.core.stage import Compute, Stage, Write
from repro.metrics.planning import DeadlinePlanner
from repro.metrics.profiles import RuntimeAccuracyProfile
from repro.serve import (SLO, AnytimeServer, FairSharePolicy,
                         MarginalGainPolicy, ServePolicy, Session,
                         SessionState, percentile, run_open_loop,
                         shutdown_all_servers, summarize)
from repro.serve.session import _Run

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

LEVELS = 12
SLEEP_S = 0.004


def slow_automaton(levels=LEVELS, sleep_s=SLEEP_S, fail_at=None):
    """One iterative stage: level i sleeps then writes value i+1.

    Output versions are 1..levels in order, so any snapshot is valid
    iff its value equals its version — the test-side validity oracle.
    """
    b_in = VersionedBuffer("in")
    b_out = VersionedBuffer("out")

    def make_level(i):
        def fn(x):
            if fail_at is not None and i == fail_at:
                raise RuntimeError(f"injected failure at level {i}")
            time.sleep(sleep_s)
            return i + 1
        return AccuracyLevel(fn, 1.0)

    stage = IterativeStage("work", b_out, (b_in,),
                           [make_level(i) for i in range(levels)])
    return AnytimeAutomaton([stage], external={"in": 0})


def value_metric(value):
    """Quality metric: the staircase value itself, as 'dB'."""
    return float(value)


class Staircase(Stage):
    """Writes ``scale`` times 1, 2, ...; each step's slow part comes
    before its ``Compute``, so a stop landing there halts the stage
    before it writes again."""

    def __init__(self, *args, scale=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.scale = scale

    def run_once(self, snaps, inputs_final):
        for step in range(1, LEVELS + 1):
            time.sleep(0.2)
            yield Compute(1.0)
            yield Write(self.scale * step, final=step == LEVELS)

    def precise(self, input_values):
        return self.scale * LEVELS


def staircase_automaton(scale=1):
    return AnytimeAutomaton([Staircase("work", VersionedBuffer("out"), (),
                                       scale=scale)])


def assert_valid(snapshot, levels=LEVELS):
    """A snapshot is valid iff empty or value == version (staircase)."""
    if snapshot.version == 0:
        assert snapshot.value is None
        return
    assert 1 <= snapshot.version <= levels
    assert snapshot.value == snapshot.version


# ---------------------------------------------------------------------
# RunHandle: the preemptible-run API both wall-clock executors grew
# ---------------------------------------------------------------------

class TestRunHandle:
    def test_launch_returns_handle_and_result_completes(self):
        handle = slow_automaton().launch_threaded()
        assert isinstance(handle, RunHandle)
        result = handle.result(timeout_s=30.0)
        assert result.completed and not result.stopped_early
        assert handle.snapshot().value == LEVELS

    def test_pause_freezes_progress_resume_continues(self):
        handle = slow_automaton(levels=40).launch_threaded()
        while handle.snapshot().version < 2:
            time.sleep(0.002)
        handle.pause()
        assert handle.paused
        time.sleep(0.03)              # let in-flight command land
        frozen = handle.snapshot().version
        time.sleep(10 * SLEEP_S)
        assert handle.snapshot().version <= frozen + 1
        handle.resume()
        assert not handle.paused
        result = handle.result(timeout_s=30.0)
        assert result.completed
        assert handle.snapshot().version == 40

    def test_stop_while_paused_unwinds(self):
        handle = slow_automaton(levels=50).launch_threaded()
        while handle.snapshot().version < 1:
            time.sleep(0.002)
        handle.pause()
        handle.request_stop()
        result = handle.result(timeout_s=10.0)
        assert result.stopped_early
        assert_valid(handle.snapshot(), levels=50)

    def test_result_timeout_interrupts(self):
        handle = slow_automaton(levels=200, sleep_s=0.01).launch_threaded()
        result = handle.result(timeout_s=0.05)
        assert result.stopped_early and not result.completed
        assert handle.snapshot().version < 200

    def test_process_executor_pause_resume(self):
        handle = slow_automaton(levels=30).launch_processes()
        while handle.snapshot().version < 1:
            time.sleep(0.005)
        handle.pause()
        time.sleep(0.1)               # park workers + drain in flight
        frozen = handle.snapshot().version
        time.sleep(0.15)
        assert handle.snapshot().version <= frozen + 1
        handle.resume()
        result = handle.result(timeout_s=60.0)
        assert result.completed
        assert result.final_values["out"] == 30


# ---------------------------------------------------------------------
# Request lifecycle
# ---------------------------------------------------------------------

class TestLifecycle:
    def test_single_request_completes_precise(self):
        with AnytimeServer(slots=2, queue_limit=4) as server:
            session = server.submit(slow_automaton, metric=value_metric)
            result = session.result(timeout_s=30.0)
        assert result.state is SessionState.COMPLETED
        assert session.state is SessionState.COMPLETED
        assert result.snapshot.final
        assert result.snapshot.value == LEVELS
        assert result.snr_db == float(LEVELS)
        assert result.slo_met and not result.interrupted

    def test_a_metric_that_is_not_callable_is_refused_at_submit(self):
        with AnytimeServer(slots=1, queue_limit=4) as server:
            with pytest.raises(TypeError, match="metric"):
                server.submit(slow_automaton, SLO(deadline_s=5.0),
                              metric=3.0)
            assert server.counters["submitted"] == 0

    def test_cancel_leaves_sealed_valid_snapshot(self):
        with AnytimeServer(slots=1, queue_limit=4) as server:
            session = server.submit(
                lambda: slow_automaton(levels=60), metric=value_metric)
            while session.snapshot().version < 2:
                time.sleep(0.002)
            session.cancel()
            result = session.result(timeout_s=10.0)
        assert result.state is SessionState.CANCELLED
        assert result.interrupted
        assert result.snapshot.version >= 2
        assert_valid(result.snapshot, levels=60)
        assert result.run_result is not None
        assert result.run_result.stopped_early

    def test_cancel_queued_request_never_runs(self):
        with AnytimeServer(slots=1, queue_limit=4) as server:
            blocker = server.submit(lambda: slow_automaton(levels=100))
            queued = server.submit(slow_automaton)
            queued.cancel()
            result = queued.result(timeout_s=10.0)
            assert result.state is SessionState.CANCELLED
            assert result.snapshot.version == 0
            assert result.queue_s == result.latency_s
            blocker.cancel()
            blocker.result(timeout_s=10.0)

    def test_shed_is_a_distinct_terminal_state(self):
        with AnytimeServer(slots=1, queue_limit=1) as server:
            sessions = [server.submit(lambda: slow_automaton(levels=60))
                        for _ in range(5)]
            shed = [s for s in sessions
                    if s.state is SessionState.SHED]
            assert shed, "overload must shed beyond the queue bound"
            for s in shed:
                result = s.result(timeout_s=1.0)   # already terminal
                assert result.state is SessionState.SHED
                assert result.state is not SessionState.CANCELLED
                assert result.snapshot.version == 0
                assert not result.slo_met
            for s in sessions:
                s.cancel()
            assert server.drain(timeout_s=30.0)
        assert server.stats()["shed"] == len(shed)

    def test_deadline_slo_interrupts_with_valid_partial(self):
        deadline = 8 * SLEEP_S
        with AnytimeServer(slots=1, queue_limit=2) as server:
            session = server.submit(
                lambda: slow_automaton(levels=200),
                SLO(deadline_s=deadline), metric=value_metric)
            result = session.result(timeout_s=30.0)
        assert result.state is SessionState.COMPLETED
        assert result.interrupted
        assert 1 <= result.snapshot.version < 200
        assert_valid(result.snapshot, levels=200)
        assert result.latency_s < deadline * 10

    def test_target_db_slo_finishes_early(self):
        target = 4.0
        with AnytimeServer(slots=1, queue_limit=2) as server:
            session = server.submit(
                lambda: slow_automaton(levels=100),
                SLO(target_db=target), metric=value_metric)
            result = session.result(timeout_s=30.0)
        assert result.state is SessionState.COMPLETED
        assert result.snr_db is not None and result.snr_db >= target
        assert result.snapshot.version < 100
        assert result.slo_met

    def test_a_met_target_scores_each_version_once(self):
        """The harvest scores the version that meets the target, and
        the request then ends on that version: a fresh snapshot object
        of it must not be scored again."""
        scored = []

        def counting_metric(value):
            scored.append(value)
            return float(value)

        with AnytimeServer(slots=1, queue_limit=2) as server:
            session = server.submit(staircase_automaton,
                                    SLO(target_db=2.0),
                                    metric=counting_metric)
            result = session.result(timeout_s=30.0)
        assert result.state is SessionState.COMPLETED and result.slo_met
        assert result.snapshot.version == 2
        assert scored == [1, 2]

    def test_runs_sharing_a_metric_are_scored_apart(self):
        """Two concurrent runs share one metric and one buffer name and
        hold different values at each version: the score of one run's
        version must not answer for the other's."""
        with AnytimeServer(slots=2, queue_limit=2) as server:
            low = server.submit(staircase_automaton, SLO(target_db=2.0),
                                metric=value_metric)
            high = server.submit(lambda: staircase_automaton(scale=10),
                                 SLO(target_db=5.0), metric=value_metric)
            results = [low.result(timeout_s=30.0),
                       high.result(timeout_s=30.0)]
        for result in results:
            assert result.state is SessionState.COMPLETED
            assert result.slo_met
            assert result.snr_db == value_metric(result.snapshot.value)
        assert [r.snapshot.version for r in results] == [2, 1]
        assert [r.snr_db for r in results] == [2.0, 10.0]

    def test_submit_after_shutdown_is_shed(self):
        server = AnytimeServer(slots=1).start()
        server.shutdown()
        session = server.submit(slow_automaton)
        assert session.result(timeout_s=1.0).state is SessionState.SHED

    def test_failing_builder_fails_only_that_request(self):
        def broken():
            raise ValueError("no automaton for you")

        with AnytimeServer(slots=2, queue_limit=4) as server:
            bad = server.submit(broken)
            good = server.submit(slow_automaton)
            assert good.result(timeout_s=30.0).state \
                is SessionState.COMPLETED
            result = bad.result(timeout_s=10.0)
        assert result.state is SessionState.FAILED
        assert result.errors and "ValueError" in result.errors[0]


# ---------------------------------------------------------------------
# Scheduler invariants
# ---------------------------------------------------------------------

@pytest.mark.check
class TestLeasedPreemptPins:
    @staticmethod
    def _leased_builder(tag, size=16, chunks=32, sleep_s=0.04):
        """A diffusive map automaton (fusing 8 chunks per kernel call)
        with per-request buffer names so one Checker can watch the
        whole server without cross-request version collisions."""
        from repro.anytime.permutations import TreePermutation
        from repro.core.mapstage import MapStage

        img = np.arange(size * size,
                        dtype=np.float64).reshape(size, size)

        def fn(idx, im):
            time.sleep(sleep_s)
            return np.asarray(im).reshape(-1)[idx] * 2.0

        b_in = VersionedBuffer(f"in-{tag}")
        b_out = VersionedBuffer(f"out-{tag}")
        stage = MapStage(f"m-{tag}", b_out, (b_in,), fn,
                         shape=(size, size), dtype=np.float64,
                         permutation=TreePermutation(), chunks=chunks)
        return AnytimeAutomaton([stage], external={f"in-{tag}": img})

    def test_preempting_leased_stage_keeps_pins_balanced(self):
        """Regression for batched stages under the serving layer:
        preempt/resume of a process run whose worker is inside a fused
        run of chunks must never unpin a slot twice or lose a pin — the
        checker's pin-balance invariant stays silent across the whole
        server trace."""
        from repro.check import Checker

        checker = Checker()
        with AnytimeServer(slots=1, queue_limit=4, executor="process",
                           quantum_s=0.05, tick_s=0.005,
                           trace=checker) as server:
            sessions = [
                server.submit(lambda t=t: self._leased_builder(t),
                              SLO(deadline_s=90.0), name=f"req-{t}")
                for t in range(2)]
            for s in sessions:
                assert s.wait(timeout_s=90.0), f"{s.name} never finished"
            assert server.counters["preemptions"] >= 1, \
                "the scenario must actually preempt the leased run"
            for s in sessions:
                assert s.state is SessionState.COMPLETED

        report = checker.report()
        pin_violations = [v for v in report.violations
                          if v.invariant == "pin-balance"]
        assert pin_violations == [], [v.describe()
                                      for v in pin_violations]


class TestSchedulerInvariants:
    def test_no_starvation_under_sustained_overload(self):
        n = 8
        with AnytimeServer(slots=1, queue_limit=n,
                           quantum_s=0.01) as server:
            sessions = [server.submit(lambda: slow_automaton(levels=6),
                                      metric=value_metric)
                        for _ in range(n)]
            assert server.drain(timeout_s=60.0)
        for session in sessions:
            result = session.result(timeout_s=1.0)
            assert result.state is SessionState.COMPLETED
            assert result.snapshot.value == 6

    def test_biased_policy_rescued_by_starvation_guard(self, monkeypatch):
        class NeverVictor(ServePolicy):
            """Always ranks the session named 'victim' last."""
            def rank_ready(self, ready, now):
                return sorted(ready, key=lambda s: (s.name == "victim",
                                                    s._ready_since))

        # the guard rescues a run ready for 0.1 s (10 quanta of 10 ms)
        monkeypatch.setattr("repro.serve.server.STARVATION_QUANTA", 10)
        with AnytimeServer(slots=1, queue_limit=10, quantum_s=0.01,
                           policy=NeverVictor()) as server:
            victim = server.submit(lambda: slow_automaton(levels=4),
                                   name="victim")
            others = [server.submit(lambda: slow_automaton(levels=4))
                      for _ in range(5)]
            result = victim.result(timeout_s=60.0)
            assert result.state is SessionState.COMPLETED
            for other in others:
                other.result(timeout_s=60.0)

    def test_preemption_leaves_valid_snapshot_and_both_finish(self):
        with AnytimeServer(slots=1, queue_limit=4,
                           quantum_s=0.01) as server:
            a = server.submit(lambda: slow_automaton(levels=30),
                              name="a")
            b = server.submit(lambda: slow_automaton(levels=30),
                              name="b")
            deadline = time.monotonic() + 30.0
            while server.stats()["preemptions"] < 2:
                assert time.monotonic() < deadline, "no preemption seen"
                for s in (a, b):
                    assert_valid(s.snapshot(), levels=30)
                time.sleep(0.005)
            preempted = next(
                (s for s in (a, b)
                 if s.state is SessionState.PREEMPTED), None)
            if preempted is not None:
                assert_valid(preempted.snapshot(), levels=30)
            for s in (a, b):
                result = s.result(timeout_s=60.0)
                assert result.state is SessionState.COMPLETED
                assert result.snapshot.value == 30
            assert server.stats()["preemptions"] >= 2
            assert server.stats()["resumes"] >= 1

    def test_per_request_fault_isolation(self):
        with AnytimeServer(slots=2, queue_limit=6) as server:
            flaky = server.submit(
                lambda: slow_automaton(levels=8, fail_at=3),
                name="flaky")
            good = [server.submit(lambda: slow_automaton(levels=8),
                                  metric=value_metric)
                    for _ in range(3)]
            assert server.drain(timeout_s=60.0)
        flaky_result = flaky.result(timeout_s=1.0)
        # Default per-request policy degrades: the stage froze at its
        # last published version, which is still a valid approximation.
        assert flaky_result.degraded
        assert flaky_result.state in (SessionState.COMPLETED,
                                      SessionState.FAILED)
        if flaky_result.state is SessionState.COMPLETED:
            assert_valid(flaky_result.snapshot, levels=8)
        for session in good:
            result = session.result(timeout_s=1.0)
            assert result.state is SessionState.COMPLETED
            assert not result.degraded
            assert result.snapshot.value == 8


# ---------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------

def make_session(name="s", run_s=0.0, slo=None, last_snr=None):
    """A one-subscriber run, the unit a policy ranks."""
    session = Session(sid=1, name=name, builder=lambda: None,
                      slo=slo or SLO(), metric=None,
                      submitted_at=0.0)
    session._last_snr = last_snr
    run = _Run([session])
    run._run_s = run_s
    return run


class TestMarginalGainPolicy:
    @staticmethod
    def profile():
        p = RuntimeAccuracyProfile(label="test")
        p.add(0.1, 5.0)
        p.add(0.3, 15.0)
        p.add(0.6, 22.0)
        p.add(1.0, 25.0)
        return p

    def test_fresh_request_outranks_flat_tail(self):
        policy = MarginalGainPolicy(self.profile(), baseline_wall_s=1.0)
        fresh = make_session("fresh", run_s=0.0)
        tail = make_session("tail", run_s=0.9)
        assert policy.gain_rate(fresh, now=0.0) \
            > policy.gain_rate(tail, now=0.0)
        assert policy.rank_ready([tail, fresh], now=0.0)[0] is fresh

    def test_met_target_has_zero_gain(self):
        policy = MarginalGainPolicy(self.profile(), baseline_wall_s=1.0)
        done = make_session("done", run_s=0.2,
                            slo=SLO(target_db=10.0), last_snr=12.0)
        assert policy.gain_rate(done, now=0.0) == 0.0

    def test_victim_is_lowest_gain_only_when_ready_gains_more(self):
        policy = MarginalGainPolicy(self.profile(), baseline_wall_s=1.0)
        climber = make_session("climber", run_s=0.25)
        tail = make_session("tail", run_s=0.9)
        fresh = make_session("fresh", run_s=0.0)
        assert policy.pick_victim([climber, tail], [fresh], 0.0) is tail
        # No ready work that gains more than every runner: no victim.
        tail2 = make_session("tail2", run_s=0.95)
        assert policy.pick_victim([fresh], [tail2], 0.0) is None

    def test_priority_scales_gain(self):
        policy = MarginalGainPolicy(self.profile(), baseline_wall_s=1.0)
        lo = make_session("lo", run_s=0.25, slo=SLO(priority=1.0))
        hi = make_session("hi", run_s=0.25, slo=SLO(priority=3.0))
        assert policy.gain_rate(hi, 0.0) \
            == pytest.approx(3 * policy.gain_rate(lo, 0.0))

    def test_infinite_profile_points_are_capped(self):
        p = self.profile()
        p.add(1.2, math.inf)
        policy = MarginalGainPolicy(p, baseline_wall_s=1.0)
        s = make_session("s", run_s=1.1)
        assert math.isfinite(policy.gain_rate(s, 0.0))


# ---------------------------------------------------------------------
# SLO
# ---------------------------------------------------------------------

class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(deadline_s=0.0)
        with pytest.raises(ValueError):
            SLO(priority=0.0)


# ---------------------------------------------------------------------
# Workload + summary
# ---------------------------------------------------------------------

class TestWorkload:
    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert math.isnan(percentile([], 50))

    def test_summarize_requires_terminal_sessions(self):
        with AnytimeServer(slots=1) as server:
            session = server.submit(lambda: slow_automaton(levels=100))
            with pytest.raises(RuntimeError, match="not terminal"):
                summarize([session])
            session.cancel()
            session.result(timeout_s=10.0)

    def test_open_loop_is_reproducible_and_ordered(self):
        with AnytimeServer(slots=2, queue_limit=8) as server:
            sessions = run_open_loop(
                lambda i: server.submit(lambda: slow_automaton(levels=3),
                                        name=f"req-{i}"),
                n_requests=5, rate_hz=500.0, seed=42)
            assert server.drain(timeout_s=30.0)
        assert [s.name for s in sessions] \
            == [f"req-{i}" for i in range(5)]

    def test_open_loop_gaps_are_the_seeds_exponential_draws(
            self, monkeypatch):
        """``submit(i)`` in order, one seeded exponential gap between
        consecutive calls and none after the last."""
        import random
        import types

        from repro.serve import workload

        gaps = []
        monkeypatch.setattr(workload, "_time",
                            types.SimpleNamespace(sleep=gaps.append))
        assert run_open_loop(lambda i: 10 * i, 5, 8.0, seed=3) \
            == [0, 10, 20, 30, 40]
        rng = random.Random(3)
        assert gaps == [rng.expovariate(8.0) for _ in range(4)]


# ---------------------------------------------------------------------
# Acceptance: 50 requests, 4 slots, shedding, all snapshots valid
# ---------------------------------------------------------------------

class TestAcceptance:
    def test_fifty_requests_four_slots_with_shedding(self):
        n = 50
        with AnytimeServer(slots=4, queue_limit=6,
                           quantum_s=0.01) as server:
            sessions = run_open_loop(
                lambda i: server.submit(lambda: slow_automaton(levels=8),
                                        SLO(deadline_s=5.0),
                                        metric=value_metric,
                                        name=f"req-{i}"),
                n_requests=n, rate_hz=400.0, seed=7)
            assert server.drain(timeout_s=120.0)

        assert len(sessions) == n
        for session in sessions:
            assert session.done, f"{session.name} not terminal"
            result = session.result(timeout_s=1.0)
            assert_valid(result.snapshot, levels=8)

        summary = summarize(sessions)
        assert summary["requests"] == n
        assert summary["shed"] > 0, \
            "offered load above capacity must shed beyond the queue bound"
        assert summary["completed"] + summary["shed"] \
            + summary["failed"] == n
        assert summary["failed"] == 0
        assert summary["throughput_rps"] > 0
        assert summary["latency_p99_s"] >= summary["latency_p50_s"] > 0


# ---------------------------------------------------------------------
# Planner: a run to the planned budget on the simulator
# ---------------------------------------------------------------------

class TestPlannerExecutorChoice:
    @staticmethod
    def planner():
        profile = RuntimeAccuracyProfile(label="calib")
        profile.add(0.2, 10.0)
        profile.add(0.6, 30.0)
        profile.add(1.0, math.inf)
        p = DeadlinePlanner(margin=1.2)
        p.calibrate(profile)
        return p

    def test_simulated_default_unchanged(self):
        def graded_automaton():
            # Early levels cost a fraction of the precise level, so the
            # planned virtual deadline (0.24 x baseline) lands after
            # the first approximation — the classic anytime shape.
            b_in = VersionedBuffer("in")
            b_out = VersionedBuffer("out")
            stage = IterativeStage(
                "work", b_out, (b_in,),
                [AccuracyLevel(lambda x: 1, 0.1),
                 AccuracyLevel(lambda x: 2, 0.5),
                 AccuracyLevel(lambda x: 3, 1.0)])
            return AnytimeAutomaton([stage], external={"in": 0})

        result, budget = self.planner().run(
            graded_automaton, target_db=10.0, total_cores=4.0)
        assert budget == pytest.approx(0.2 * 1.2)
        assert result.stopped_early
        records = result.output_records("out")
        assert records and records[-1].value == 1


# ---------------------------------------------------------------------
# Event-driven hand-offs and deferred (score-later) metrics
# ---------------------------------------------------------------------

class LateMetric:
    """``value_metric`` behind the deferred-metric protocol of
    ``AnytimeServer.submit``: not ``ready`` until told, then either
    scoring or carrying an ``error``."""

    def __init__(self):
        self._in = threading.Event()
        self.error = None

    @property
    def ready(self):
        return self._in.is_set()

    def arrive(self, error=None):
        self.error = error
        self._in.set()

    def __call__(self, value):
        assert self._in.wait(timeout=30.0)
        if self.error is not None:
            raise RuntimeError(self.error)
        return value_metric(value)


class TestHandOffs:
    def test_submit_wakes_the_scheduler(self):
        """Admission does not wait out the tick the loop sleeps in."""
        with AnytimeServer(slots=1, tick_s=0.4) as server:
            time.sleep(0.05)          # the loop is in its tick wait now
            session = server.submit(lambda: slow_automaton(levels=2))
            deadline = time.monotonic() + 0.2
            while (session.state is SessionState.QUEUED
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            assert session.state is not SessionState.QUEUED
            session.result(timeout_s=10.0)

    def test_done_callback_fires_once_now_or_later(self):
        fired = []
        with AnytimeServer(slots=1) as server:
            session = server.submit(lambda: slow_automaton(levels=3))
            session.add_done_callback(fired.append)
            session.result(timeout_s=10.0)
            deadline = time.monotonic() + 5.0
            while not fired and time.monotonic() < deadline:
                time.sleep(0.002)
            assert fired == [session]
            session.add_done_callback(fired.append)   # already terminal
            assert fired == [session, session]

    def test_unready_metric_defers_scoring_not_the_scheduler(self):
        metric = LateMetric()
        with AnytimeServer(slots=2) as server:
            late = server.submit(lambda: slow_automaton(levels=200),
                                 SLO(target_db=2.0), metric=metric,
                                 key="late")    # scored at harvest
            while late.snapshot().version < 4:      # target long met
                time.sleep(0.002)
            assert not late.done
            # the scheduler thread is not stuck inside the metric
            other = server.submit(lambda: slow_automaton(levels=3))
            assert other.result(timeout_s=10.0).state \
                is SessionState.COMPLETED
            assert not late.done
            metric.arrive()
            result = late.result(timeout_s=10.0)
        assert result.state is SessionState.COMPLETED and result.slo_met
        assert result.snr_db >= 4.0 and result.interrupted
        assert_valid(result.snapshot, levels=200)

    def test_finished_run_is_retired_once_its_metric_is_ready(self):
        metric = LateMetric()
        with AnytimeServer(slots=1) as server:
            session = server.submit(lambda: slow_automaton(levels=3),
                                    metric=metric)
            while session.snapshot().version < 3:
                time.sleep(0.002)
            time.sleep(0.05)
            assert not session.done
            metric.arrive()
            result = session.result(timeout_s=10.0)
        assert result.state is SessionState.COMPLETED
        assert result.snr_db == 3.0 and not result.interrupted

    def test_deadline_blocks_on_the_metric_and_is_still_scored(self):
        """A deadline answer waits for the reference (bounded by its
        compute time) rather than leave unscored."""
        metric = LateMetric()
        start = time.monotonic()
        threading.Timer(0.25, metric.arrive).start()
        with AnytimeServer(slots=1) as server:
            session = server.submit(lambda: slow_automaton(levels=400),
                                    SLO(deadline_s=0.05), metric=metric,
                                    key="deadline")
            result = session.result(timeout_s=10.0)
            waited = time.monotonic() - start
        assert result.state is SessionState.COMPLETED
        assert result.snr_db is not None and result.interrupted
        assert 0.25 <= waited < 2.0

    def test_metric_error_fails_the_request_with_it(self):
        metric = LateMetric()
        with AnytimeServer(slots=1) as server:
            session = server.submit(lambda: slow_automaton(levels=400),
                                    SLO(target_db=5.0), metric=metric,
                                    key="k")
            follower = server.submit(lambda: slow_automaton(levels=400),
                                     SLO(target_db=5.0), metric=metric,
                                     key="k")
            metric.arrive(error="ValueError: no reference")
            results = [s.result(timeout_s=10.0)
                       for s in (session, follower)]
            stats = server.stats()
        for result in results:
            assert result.state is SessionState.FAILED
            assert result.errors == ("ValueError: no reference",)
        assert stats["failed"] == 2 and stats["running"] == 0

    def test_terminal_sessions_are_counted_not_kept(self):
        with AnytimeServer(slots=2, queue_limit=8) as server:
            sessions = [server.submit(lambda: slow_automaton(levels=2))
                        for _ in range(5)]
            for session in sessions:
                session.result(timeout_s=30.0)
            assert server.stats()["finished"] == 5
            assert server.sessions() == []
            live = server.submit(lambda: slow_automaton(levels=400))
            assert server.sessions() == [live]
        assert all(s.done for s in sessions)


# ---------------------------------------------------------------------
# Harvest wakes: a run's new version or its end wakes the scheduler
# ---------------------------------------------------------------------

#: a tick no request here can wait out: every answer below must come
#: from a wake, and a lost one fails in two seconds instead of hanging
IDLE_TICK_S = 30.0
EXECUTORS = ("threaded", "process")


class TestHarvestWakes:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_target_is_met_without_a_tick(self, executor):
        with AnytimeServer(slots=1, executor=executor,
                           tick_s=IDLE_TICK_S) as server:
            session = server.submit(lambda: slow_automaton(levels=100),
                                    SLO(target_db=4.0),
                                    metric=value_metric)
            result = session.result(timeout_s=2.0)
        assert result.state is SessionState.COMPLETED and result.slo_met
        assert 4 <= result.snapshot.version < 100
        assert_valid(result.snapshot, levels=100)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_run_to_final_leaves_at_its_end(self, executor, small_image):
        from repro.apps.conv2d import build_conv2d_automaton
        from repro.metrics.snr import snr_db

        image = small_image[:24, :24]
        reference = build_conv2d_automaton(image).precise_output()
        with AnytimeServer(slots=1, executor=executor,
                           tick_s=IDLE_TICK_S) as server:
            session = server.submit(
                lambda: build_conv2d_automaton(image),
                metric=lambda value: snr_db(value, reference))
            result = session.result(timeout_s=2.0)
        assert result.state is SessionState.COMPLETED
        assert result.snapshot.final and not result.interrupted
        assert math.isinf(result.snr_db) and result.snr_db > 0

    @pytest.mark.parametrize("launch", ["launch_threaded",
                                        "launch_processes"])
    def test_end_wake_comes_after_finished(self, launch):
        """A waiter that clears the event before it looks at
        ``finished`` sees the run's end: the last wake finds the run
        finished, and no wake comes after it."""
        handle = getattr(slow_automaton(levels=5), launch)()
        seen = []

        class Recording(threading.Event):
            def set(self):
                seen.append(handle.finished)
                super().set()

        event = Recording()
        handle.watch(event)
        while True:
            assert event.wait(timeout=2.0), "the run ended without a wake"
            event.clear()
            if handle.finished:
                break
        assert handle.result(timeout_s=2.0).completed
        assert seen[-1] is True and seen.count(True) == 1
        late = threading.Event()
        handle.watch(late)              # an ended run wakes at once
        assert late.is_set()

    def test_drain_returns_when_the_last_run_leaves(self):
        with AnytimeServer(slots=2, tick_s=IDLE_TICK_S) as server:
            for _ in range(3):
                server.submit(lambda: slow_automaton(levels=3))
            started = time.monotonic()
            assert server.drain(timeout_s=2.0)
            assert time.monotonic() - started < 2.0


# ---------------------------------------------------------------------
# Watchdog interplay (conftest satellite)
# ---------------------------------------------------------------------

class TestWatchdogInterplay:
    @pytest.mark.timeout(0)
    def test_timeout_zero_disarms_for_idle_server(self):
        import signal
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0
        with AnytimeServer(slots=1) as server:
            time.sleep(0.05)          # intentionally idle server
            assert server.stats()["submitted"] == 0

    def test_shutdown_all_servers_reaps_leaked_server(self):
        server = AnytimeServer(slots=1).start()
        session = server.submit(lambda: slow_automaton(levels=200))
        assert shutdown_all_servers(timeout_s=5.0) >= 1
        result = session.result(timeout_s=5.0)
        assert result.state is SessionState.CANCELLED

    def test_no_thread_leak_after_shutdown(self):
        import threading
        with AnytimeServer(slots=2, queue_limit=4) as server:
            sessions = [server.submit(lambda: slow_automaton(levels=4))
                        for _ in range(4)]
            assert server.drain(timeout_s=30.0)
        for session in sessions:
            session.result(timeout_s=1.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = [t for t in threading.enumerate()
                      if t.name.startswith(("anytime-server", "stage-"))]
            if not leaked:
                break
            time.sleep(0.01)
        assert not leaked, f"leaked threads: {leaked}"


def test_numpy_payloads_roundtrip_through_server(small_image):
    """Serving real array payloads (not just scalars) stays valid."""
    from repro.apps.conv2d import build_conv2d_automaton

    image = small_image[:24, :24]
    auto = build_conv2d_automaton(image)
    ref = auto.precise_output()
    with AnytimeServer(slots=2, queue_limit=4) as server:
        session = server.submit(lambda: build_conv2d_automaton(image))
        result = session.result(timeout_s=60.0)
    assert result.state is SessionState.COMPLETED
    assert np.allclose(np.asarray(result.snapshot.value,
                                  dtype=np.float64),
                       np.asarray(ref, dtype=np.float64))
