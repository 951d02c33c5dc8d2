"""Tests for chunk scheduling (output granularity, paper IV-C2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anytime.fill import TreeFill
from repro.anytime.permutations import TreePermutation
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.diffusive import chunk_boundaries
from repro.core.mapstage import MapStage


class TestGeometricBoundaries:
    def test_spans_double(self):
        spans = chunk_boundaries(1024, 8, schedule="geometric")
        sizes = [b - a for a, b in spans]
        assert sizes[0] < sizes[-1]
        # later spans roughly double (rounding aside)
        assert sizes[-1] >= 1.5 * sizes[-2]

    def test_full_coverage(self):
        spans = chunk_boundaries(1000, 7, schedule="geometric")
        covered = [i for a, b in spans for i in range(a, b)]
        assert covered == list(range(1000))

    @given(st.integers(min_value=1, max_value=5000),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_coverage_property(self, n, chunks):
        for schedule in ("uniform", "geometric"):
            spans = chunk_boundaries(n, chunks, schedule=schedule)
            assert spans[0][0] == 0
            assert spans[-1][1] == n
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                assert b1 == a2
                assert b1 > a1

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            chunk_boundaries(10, 2, schedule="fibonacci")

    def test_rejects_bad_growth(self):
        with pytest.raises(ValueError, match="growth"):
            chunk_boundaries(10, 2, schedule="geometric", growth=1.0)


class TestGeometricStage:
    def make_auto(self, schedule):
        img = np.arange(1024, dtype=np.float64).reshape(32, 32)
        b_in = VersionedBuffer("in")
        b_out = VersionedBuffer("out")
        stage = MapStage(
            "m", b_out, (b_in,),
            lambda idx, im: np.asarray(im).reshape(-1)[idx] + 1,
            shape=(32, 32), dtype=np.float64,
            permutation=TreePermutation(), fill=TreeFill(spatial_ndim=2),
            chunks=8, chunk_schedule=schedule)
        return AnytimeAutomaton([stage], external={"in": img}), img

    def test_first_output_much_earlier(self):
        firsts = {}
        for schedule in ("uniform", "geometric"):
            auto, _ = self.make_auto(schedule)
            res = auto.run_simulated(total_cores=4.0)
            firsts[schedule] = res.output_records("out")[0].time
        assert firsts["geometric"] < 0.25 * firsts["uniform"]

    def test_same_version_count_and_final_output(self):
        finals = []
        for schedule in ("uniform", "geometric"):
            auto, img = self.make_auto(schedule)
            res = auto.run_simulated(total_cores=4.0)
            recs = res.output_records("out")
            assert len(recs) == 8
            finals.append(recs[-1].value)
        assert np.array_equal(finals[0], finals[1])

    def test_total_duration_unchanged(self):
        """Granularity redistributes the versions; total work is the
        same."""
        durations = []
        for schedule in ("uniform", "geometric"):
            auto, _ = self.make_auto(schedule)
            res = auto.run_simulated(total_cores=4.0)
            durations.append(res.duration)
        assert durations[0] == pytest.approx(durations[1])

    def test_rejects_unknown_schedule_in_stage(self):
        with pytest.raises(ValueError, match="schedule"):
            MapStage("m", VersionedBuffer("o"), (), lambda i: i,
                     shape=16, chunk_schedule="zeno")

    @pytest.mark.parametrize("chunks", [0, -3])
    def test_rejects_chunks_below_one_in_stage(self, chunks):
        """A stage with no chunk is refused when it is built, not when
        its body first runs."""
        with pytest.raises(ValueError, match="chunks must be >= 1"):
            MapStage("m", VersionedBuffer("o"), (), lambda i: i,
                     shape=16, chunks=chunks)
