"""One wake per change: the threaded executor's waits have no timer,
and the server's scheduler takes a clock wait only while something is
paced.

A stage blocked on its inputs, on a channel or at the pause gate looks
at its state again only when the event that ends its wait is set, so a
stage blocked on something that never changes costs nothing, and a lost
wakeup hangs its run.  The scheduler of an ``AnytimeServer`` ticks every
``tick_s`` only while a deadline, a quantum or a metric without
``on_ready`` may need it, and sleeps until the next memo expiry
otherwise.  Every test carries a watchdog timeout, so a lost wakeup
fails instead of hanging the suite.
"""

import random
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.apps.pipeline_demo import build_organization
from repro.apps.registry import get_app
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.faults import FaultInjector, FaultSpec
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.core.kernel import Kernel
from repro.core.stage import PreciseStage
from repro.serve import SLO, AnytimeServer, SessionState
from tests.test_race import RaceMetric, staircase


def count_calls(monkeypatch, method):
    """Count each stage's calls of ``Kernel.<method>``."""
    calls = Counter()
    original = getattr(Kernel, method)

    def counted(self, stage, *args):
        calls[stage.name] += 1
        return original(self, stage, *args)

    monkeypatch.setattr(Kernel, method, counted)
    return calls


@pytest.mark.timeout(30)
def test_a_stage_waiting_on_an_unchanging_input_looks_once(monkeypatch):
    """``g`` answers its first wait, publishes, and waits for a newer
    ``x`` that never comes: one more look, not one per timer tick."""
    calls = count_calls(monkeypatch, "reply_wait")
    b_x = VersionedBuffer("x")
    b_x.write(1)
    b_g = VersionedBuffer("G")
    g = PreciseStage("g", b_g, (b_x,), lambda x: x * 10, cost=1.0)
    handle = AnytimeAutomaton([g]).launch_threaded()
    time.sleep(0.2)
    looked = calls["g"]
    handle.request_stop()
    assert handle.result().stopped_early
    assert b_g.version == 1
    assert looked <= 2, f"g evaluated its wait {looked} times in 200 ms"


@pytest.mark.timeout(30)
def test_a_consumer_on_an_empty_channel_looks_once(monkeypatch):
    """Figure 10's synchronous pipeline with ``f`` stalled before its
    first command: ``g`` finds the channel empty and waits for an emit
    that does not come within the window."""
    calls = count_calls(monkeypatch, "try_recv")
    injector = FaultInjector([FaultSpec("f", at=1, kind="delay",
                                        delay=0.5)])
    handle = build_organization("sync", m=16).launch_threaded(
        injector=injector)
    time.sleep(0.2)
    looked = calls["g"]
    handle.request_stop()
    assert handle.result().stopped_early
    assert looked <= 2, f"g tried to receive {looked} times in 200 ms"


@pytest.mark.timeout(30)
def test_a_fail_fast_halt_releases_stages_parked_at_the_gate():
    """``boom`` raises while the run is paused and ``steady`` is parked
    at the gate: the fail-fast halt opens the gate, so the run ends
    within a second without a stop request."""
    entered, go = threading.Event(), threading.Event()

    def level(i):
        def fn(x):
            time.sleep(0.002)
            return i
        return AccuracyLevel(fn, 1.0)

    def boom(s):
        entered.set()
        go.wait()
        raise ValueError("kaboom")

    b_s = VersionedBuffer("S")
    steady = IterativeStage("steady", b_s, (VersionedBuffer("in"),),
                            [level(i) for i in range(1000)])
    failing = PreciseStage("boom", VersionedBuffer("B"), (b_s,), boom,
                           cost=1.0)
    handle = AnytimeAutomaton([steady, failing],
                              external={"in": 0}).launch_threaded()
    try:
        assert entered.wait(10.0)
        handle.pause()
        time.sleep(0.05)                # steady parks at the gate
        parked = b_s.version
        time.sleep(0.05)
        assert b_s.version == parked
        go.set()
        assert handle.wait(timeout_s=1.0), "a parked stage never woke"
    finally:
        if not handle.finished:
            handle.request_stop()
    result = handle.result()
    assert not result.stopped_early
    assert result.failed_stages == ["boom"]
    assert not result.stage_reports["steady"].completed


@pytest.mark.timeout(120)
def test_runs_paused_resumed_and_stopped_at_random_points_all_end():
    """50 runs, alternating Figure 10's synchronous pipeline and 2dconv
    at 32², each paused, resumed and stopped at random points under a
    short switch interval: every run ends, on a valid result."""
    rng = random.Random(50)
    spec = get_app("2dconv")
    image = spec.make_input(32, 0)
    builders = [lambda: build_organization("sync", m=16),
                lambda: spec.build(image)]
    precise = [build().precise_output() for build in builders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(50):
            automaton = builders[i % 2]()
            handle = automaton.launch_threaded()
            for act in (handle.pause, handle.resume, handle.request_stop):
                time.sleep(rng.uniform(0.0, 0.004))
                act()
            assert handle.wait(timeout_s=10.0), f"run {i} never ended"
            result = handle.result()
            assert result.completed or result.stopped_early
            if result.completed:
                final = result.timeline.final_record(
                    automaton.terminal_buffer_name)
                assert np.array_equal(final.value, precise[i % 2])
    finally:
        sys.setswitchinterval(interval)


# -- the server's scheduler ----------------------------------------------

def count_ticks(monkeypatch):
    """Count every server's scheduler ticks."""
    ticks = Counter()
    original = AnytimeServer._tick

    def counted(self, now):
        ticks["tick"] += 1
        return original(self, now)

    monkeypatch.setattr(AnytimeServer, "_tick", counted)
    return ticks


def slow_ladder():
    """A version every 0.5 s: between versions, nothing but the clock
    wakes the scheduler."""
    return staircase(levels=20, sleep_s=0.5)


class UnannouncedMetric(RaceMetric):
    """A racing metric with no ``on_ready``: nothing wakes the
    scheduler when its precise value comes in."""

    on_ready = None


@pytest.mark.timeout(30)
@pytest.mark.parametrize("held", [False, True], ids=["empty", "held"])
def test_an_idle_server_does_not_tick(monkeypatch, held):
    """With nothing queued, or only a run held for a precise value
    whose ``on_ready`` will announce it, the scheduler sleeps: it
    ticks for the start and the submission, not every ``tick_s``."""
    ticks = count_ticks(monkeypatch)
    metric = RaceMetric()
    with AnytimeServer(slots=1, tick_s=0.005) as server:
        if held:
            session = server.submit(slow_ladder, metric=metric, key="k")
        time.sleep(0.05)            # the start and a submission settle
        before = ticks["tick"]
        time.sleep(0.2)
        idle = ticks["tick"] - before
        if held:
            assert session.state is SessionState.QUEUED
            metric.arrive()
            assert session.result(timeout_s=5.0).snapshot.version == 1
    assert idle <= 2, f"an idle scheduler ticked {idle} times in 200 ms"


@pytest.mark.timeout(30)
def test_a_deadline_still_fires_within_one_tick():
    """No version lands between 0 and 0.5 s, so only the clock wait
    can judge the 0.1 s deadline."""
    with AnytimeServer(slots=1, tick_s=0.05) as server:
        session = server.submit(slow_ladder, SLO(deadline_s=0.1))
        result = session.result(timeout_s=10.0)
    assert result.state is SessionState.COMPLETED and result.interrupted
    # one tick late at most, with room for a loaded box; the next
    # version, the only other wake, lands at 0.5 s
    assert result.latency_s < 0.1 + 0.05 + 0.1, result.latency_s


@pytest.mark.timeout(30)
def test_a_memo_entry_is_purged_at_its_ttl_without_traffic(monkeypatch):
    ticks = count_ticks(monkeypatch)
    metric = RaceMetric()
    with AnytimeServer(slots=1, memo_ttl_s=0.2) as server:
        session = server.submit(slow_ladder, metric=metric, key="k")
        metric.arrive()
        assert session.result(timeout_s=5.0).snapshot.final
        sealed = time.monotonic()
        assert server.stats()["memo_size"] == 1
        before = ticks["tick"]
        while server.stats()["memo_size"]:
            assert time.monotonic() - sealed < 2.0, "the memo never purged"
            time.sleep(0.01)
        purged = time.monotonic() - sealed
        waited = ticks["tick"] - before
    assert 0.15 < purged < 0.6, purged
    assert waited <= 3, f"{waited} ticks to purge one memo entry"


@pytest.mark.timeout(30)
def test_a_held_run_whose_metric_cannot_announce_still_completes():
    """Nothing wakes the scheduler when this metric's precise value
    comes in: the clock wait finds it."""
    metric = UnannouncedMetric()
    with AnytimeServer(slots=1, tick_s=0.01) as server:
        session = server.submit(slow_ladder, metric=metric, key="k")
        time.sleep(0.05)
        assert session.state is SessionState.QUEUED
        metric.arrive()
        result = session.result(timeout_s=5.0)
        stats = server.stats()
    assert result.state is SessionState.COMPLETED
    assert result.snapshot.final and result.snapshot.version == 1
    assert stats["admitted"] == 0 and stats["precise_wins"] == 1
