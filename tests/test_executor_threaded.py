"""Tests for the real-thread executor (the interactive path).

Sizes are kept tiny: these tests verify semantics (completion,
interruption, output validity), not performance.
"""

import threading
import time

import numpy as np
import pytest

from repro.anytime.permutations import SequentialPermutation, TreePermutation
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.channel import UpdateChannel
from repro.core.controller import ManualStop, VersionCountStop
from repro.core.executor import ThreadedExecutor
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.core.mapstage import MapStage
from repro.core.stage import PreciseStage
from repro.core.syncstage import SynchronousStage

# Threaded-executor tests hang rather than fail when a wait goes wrong;
# the conftest watchdog turns a wedge into a fast failure.
pytestmark = pytest.mark.timeout(60)


def map_automaton(chunks=8):
    img = np.arange(64, dtype=np.float64).reshape(8, 8)
    b_in = VersionedBuffer("in")
    b_out = VersionedBuffer("out")
    stage = MapStage("m", b_out, (b_in,),
                     lambda idx, im: np.asarray(im).reshape(-1)[idx] * 3,
                     shape=(8, 8), dtype=np.float64,
                     permutation=TreePermutation(), chunks=chunks)
    return AnytimeAutomaton([stage], external={"in": img}), img * 3


class TestCompletion:
    def test_single_stage_runs_to_precise(self):
        auto, ref = map_automaton()
        res = auto.run_threaded(timeout_s=30.0)
        assert res.completed and not res.stopped_early
        final = res.timeline.final_record("out")
        assert final is not None
        assert np.array_equal(final.value, ref)

    def test_pipeline_runs_to_precise(self):
        b_in = VersionedBuffer("in")
        b_f = VersionedBuffer("F")
        b_g = VersionedBuffer("G")
        f = IterativeStage("f", b_f, (b_in,),
                           [AccuracyLevel(lambda x: x // 2, 1.0),
                            AccuracyLevel(lambda x: x, 1.0)])
        g = PreciseStage("g", b_g, (b_f,), lambda F: F * 10, cost=1.0)
        auto = AnytimeAutomaton([f, g], external={"in": 9})
        res = auto.run_threaded(timeout_s=30.0)
        final = res.timeline.final_record("G")
        assert final.value == 90

    def test_synchronous_pipeline_threaded(self):
        b_f = VersionedBuffer("F")
        b_g = VersionedBuffer("G")
        ch = UpdateChannel("F", capacity=1)

        from repro.core.diffusive import DiffusiveStage

        class Digits(DiffusiveStage):
            def __init__(self):
                super().__init__("f", b_f, (), shape=5,
                                 permutation=SequentialPermutation(),
                                 chunks=5, cost_per_element=1.0,
                                 emit_to=ch)

            def init_state(self, values):
                return {"total": 0}

            def process_chunk(self, state, indices, values):
                state["total"] += int(indices[0]) + 1
                return int(indices[0]) + 1

            def materialize(self, state, count, values):
                return state["total"]

            def precise(self, input_values):
                return 15

        g = SynchronousStage("g", b_g, ch, initial_fn=lambda: 0,
                             update_fn=lambda acc, x: acc + x * x,
                             update_cost=lambda x: 1.0,
                             precise_fn=lambda fv: 55,
                             precise_cost=1.0)
        auto = AnytimeAutomaton([Digits(), g])
        res = auto.run_threaded(timeout_s=30.0)
        assert res.timeline.final_record("G").value == \
            sum(d * d for d in range(1, 6))


class TestInterruption:
    def test_manual_stop_mid_run(self):
        """The hold-the-enter-key scenario: stop from another thread;
        the newest published version remains valid."""
        stop = ManualStop()
        auto, ref = map_automaton(chunks=64)
        timer = threading.Timer(0.05, stop.stop)
        timer.start()
        res = auto.run_threaded(stop=stop, timeout_s=30.0)
        timer.cancel()
        records = res.output_records("out")
        if records:
            last = records[-1].value
            assert last.shape == (8, 8)
            assert np.isfinite(last).all()

    def test_version_count_stop(self):
        auto, _ = map_automaton(chunks=16)
        res = auto.run_threaded(stop=VersionCountStop(2),
                                timeout_s=30.0)
        assert res.stopped_early
        assert len(res.output_records("out")) >= 2

    def test_stop_wakes_a_stage_waiting_on_its_inputs(self, monkeypatch):
        """A halt reaches a stage blocked on its inputs at once, not at
        its next poll: with the poll at 30 s, the run still winds down
        within two seconds of the stop."""
        import repro.core.executor as executor_module

        monkeypatch.setattr(executor_module, "_POLL_S", 30.0)
        b_x = VersionedBuffer("x")
        b_x.write(1)            # an input that never gets a newer version
        b_g = VersionedBuffer("G")
        g = PreciseStage("g", b_g, (b_x,), lambda x: x * 10, cost=1.0)
        handle = AnytimeAutomaton([g]).launch_threaded()
        while b_g.version < 1:          # g now waits for x's next version
            time.sleep(0.002)
        time.sleep(0.05)
        stopped = time.monotonic()
        handle.request_stop()
        assert handle.result().stopped_early
        assert time.monotonic() - stopped < 2.0

    def test_stop_wakes_a_stage_blocked_on_a_channel(self, monkeypatch):
        """A halt reaches a stage blocked on a channel at once: in
        Figure 10's synchronous pipeline, with the producer stalled and
        then paused, the consumer waits on the empty channel, and with
        the poll at 1 s the run still winds down within 0.2 s."""
        import repro.core.executor as executor_module
        from repro.apps.pipeline_demo import build_organization
        from repro.core.faults import FaultInjector, FaultSpec

        monkeypatch.setattr(executor_module, "_POLL_S", 1.0)
        # f stalls before its first command, so it has emitted nothing
        injector = FaultInjector([FaultSpec("f", at=1, kind="delay",
                                            delay=0.2)])
        handle = build_organization("sync", m=16).launch_threaded(
            injector=injector)
        time.sleep(0.05)        # g now waits on the empty channel
        handle.pause()          # f parks at the gate after its stall
        time.sleep(0.3)
        stopped = time.monotonic()
        handle.request_stop()
        assert handle.result().stopped_early
        assert time.monotonic() - stopped < 0.2

    def test_timeout_halts(self):
        img = np.arange(16, dtype=np.float64)
        b_in = VersionedBuffer("in")
        b_out = VersionedBuffer("out")

        def slow(idx, im):
            time.sleep(0.02)
            return np.asarray(im).reshape(-1)[idx]

        stage = MapStage("m", b_out, (b_in,), slow, shape=16,
                         dtype=np.float64,
                         permutation=TreePermutation(), chunks=16)
        auto = AnytimeAutomaton([stage], external={"in": img})
        t0 = time.perf_counter()
        res = auto.run_threaded(timeout_s=0.1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert res.stopped_early or res.completed


class TestErrors:
    def test_stage_exception_returns_partial_result(self):
        """A crash no longer discards the run: the result carries the
        timeline, final values and the error (fail-fast default)."""
        b_in = VersionedBuffer("in")
        b_out = VersionedBuffer("out")

        def boom(x):
            raise ValueError("kaboom")

        stage = PreciseStage("s", b_out, (b_in,), boom, cost=1.0)
        auto = AnytimeAutomaton([stage], external={"in": 1})
        res = auto.run_threaded(timeout_s=10.0)
        assert not res.completed
        assert not res.stopped_early     # a crash is not an interrupt
        assert res.errors and res.errors[0][0] == "s"
        assert isinstance(res.errors[0][1], ValueError)
        report = res.stage_reports["s"]
        assert report.failed and report.failures == 1
        assert "kaboom" in report.last_error

    def test_stage_exception_raises_under_strict(self):
        """strict=True preserves the historical raise-on-failure path."""
        b_in = VersionedBuffer("in")
        b_out = VersionedBuffer("out")

        def boom(x):
            raise ValueError("kaboom")

        stage = PreciseStage("s", b_out, (b_in,), boom, cost=1.0)
        auto = AnytimeAutomaton([stage], external={"in": 1})
        with pytest.raises(RuntimeError, match="failed"):
            auto.run_threaded(timeout_s=10.0, strict=True)

    def test_request_stop_idempotent(self):
        auto, _ = map_automaton()
        ex = ThreadedExecutor(auto.graph)
        ex.request_stop()
        ex.request_stop()
        res = ex.run(timeout_s=10.0)
        assert res.stopped_early


class TestEquivalence:
    def test_threaded_and_simulated_agree_on_final_output(self):
        auto_t, ref = map_automaton()
        res_t = auto_t.run_threaded(timeout_s=30.0)
        auto_s, _ = map_automaton()
        res_s = auto_s.run_simulated(total_cores=4.0)
        final_t = res_t.timeline.final_record("out").value
        final_s = res_s.timeline.final_record("out").value
        assert np.array_equal(final_t, final_s)
        assert np.array_equal(final_t, ref)
