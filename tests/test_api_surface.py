"""Coverage for remaining public API surfaces."""

import numpy as np
import pytest

from repro.core.buffer import VersionedBuffer
from repro.core.graph import AutomatonGraph
from repro.core.stage import Compute, PreciseStage


class TestSnapshotSurface:
    def test_empty_flag(self):
        b = VersionedBuffer("b")
        assert b.snapshot().empty
        b.write(1)
        assert not b.snapshot().empty


class TestGraphChannels:
    def test_channels_property_lists_both_ends(self):
        from repro.apps.pipeline_demo import build_organization

        auto = build_organization("sync", m=8)
        channels = auto.graph.channels
        assert "F" in channels

    def test_channels_empty_for_plain_graphs(self):
        b_in, b_out = VersionedBuffer("i"), VersionedBuffer("o")
        g = AutomatonGraph([PreciseStage("s", b_out, (b_in,),
                                         lambda x: x, cost=1.0)])
        assert g.channels == {}


class TestExplicitEnergy:
    def test_compute_energy_overrides_cost(self):
        """A stage can charge less energy than its time cost — e.g.
        low-voltage storage ops (cheap energy, same latency)."""
        from repro.core.automaton import AnytimeAutomaton
        from repro.core.iterative import AccuracyLevel, IterativeStage
        from repro.core.stage import Body, Compute, Stage, Write

        b = VersionedBuffer("o")

        class CheapEnergy(Stage):
            def __init__(self):
                super().__init__("s", b, ())

            def run_once(self, snaps, inputs_final) -> Body:
                yield Compute(100.0, energy=5.0)
                yield Write(42, final=True)

            def precise(self, input_values):
                return 42

            @property
            def precise_cost(self):
                return 100.0

        auto = AnytimeAutomaton([CheapEnergy()])
        res = auto.run_simulated(total_cores=1.0)
        assert res.duration == pytest.approx(100.0)
        assert res.energy == pytest.approx(5.0)


class TestChannelCounters:
    def test_emit_receive_counters(self):
        from repro.core.channel import UpdateChannel

        ch = UpdateChannel("x")
        assert ch.try_emit(1) and ch.try_emit(2)
        assert ch.try_recv() == (True, 1)
        assert ch.emitted == 2 and ch.received == 1


class TestPreemptIterative:
    def test_preempt_policy_abandons_stale_levels(self):
        """An iterative consumer under 'preempt' skips remaining levels
        when a newer input version is available, still finishing with
        the precise output."""
        from repro.core.automaton import AnytimeAutomaton
        from repro.core.iterative import AccuracyLevel, IterativeStage

        b_in = VersionedBuffer("in")
        b_mid = VersionedBuffer("mid")
        b_out = VersionedBuffer("out")
        # producer with 3 cheap versions
        producer = IterativeStage(
            "p", b_mid, (b_in,),
            [AccuracyLevel(lambda x: x - 2, 1.0),
             AccuracyLevel(lambda x: x - 1, 1.0),
             AccuracyLevel(lambda x: x, 1.0)])
        # slow 3-level consumer; preempt should cut stale passes short
        consumer = IterativeStage(
            "c", b_out, (b_mid,),
            [AccuracyLevel(lambda m: m * 10, 10.0),
             AccuracyLevel(lambda m: m * 10 + 1, 10.0),
             AccuracyLevel(lambda m: m * 10 + 2, 10.0)],
            restart_policy="preempt")
        auto = AnytimeAutomaton([producer, consumer],
                                external={"in": 7})
        res = auto.run_simulated(total_cores=2.0)
        recs = res.output_records("out")
        assert recs[-1].final and recs[-1].value == 72
        # preemption: fewer consumer versions than 3 passes x 3 levels
        assert len(recs) < 9


class TestRegistryImageHelpers:
    @pytest.mark.parametrize("app", ["2dconv", "dwt53", "kmeans"])
    def test_to_image_returns_uint8(self, app):
        from repro.apps.registry import get_app

        spec = get_app(app)
        image = spec.make_input(32, 0)
        automaton = spec.build(image)
        result = automaton.run_simulated(total_cores=8.0,
                                         schedule=spec.schedule)
        final = result.timeline.final_record(
            automaton.terminal_buffer_name)
        out = spec.to_image(final.value)
        assert np.asarray(out).dtype == np.uint8
