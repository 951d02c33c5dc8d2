"""One wake per change: the threaded executor's waits have no timer.

A stage blocked on its inputs, on a channel or at the pause gate looks
at its state again only when the event that ends its wait is set, so a
stage blocked on something that never changes costs nothing, and a lost
wakeup hangs its run.  Every test carries a watchdog timeout, so a lost
wakeup fails instead of hanging the suite.
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
