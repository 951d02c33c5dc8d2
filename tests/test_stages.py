"""Tests for computation stages: precise, iterative, diffusive kernels."""

import numpy as np
import pytest

from repro.anytime.fill import ConstantFill
from repro.anytime.permutations import (LfsrPermutation,
                                        SequentialPermutation,
                                        TreePermutation)
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.diffusive import chunk_boundaries
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.core.mapstage import MapStage
from repro.core.reduction import ReductionStage
from repro.core.stage import (Compute, DEFAULT_ACCESS_PENALTIES,
                              PreciseStage, access_penalty)


class TestCommands:
    def test_compute_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            Compute(-1.0)

    def test_access_penalties_ordering(self):
        """Sequential is cheapest; tree and LFSR pay the locality tax;
        a prefetcher recovers most of it (paper IV-C3)."""
        assert DEFAULT_ACCESS_PENALTIES["sequential"] == 1.0
        assert access_penalty("tree") > access_penalty("sequential")
        assert access_penalty("lfsr") > access_penalty("tree")
        assert access_penalty("lfsr", prefetcher=True) < \
            access_penalty("tree")

    def test_unknown_permutation_gets_conservative_penalty(self):
        assert access_penalty("mystery") > 1.0


class TestChunkBoundaries:
    def test_even_split(self):
        assert chunk_boundaries(10, 2) == [(0, 5), (5, 10)]

    def test_more_chunks_than_elements(self):
        spans = chunk_boundaries(3, 10)
        assert spans == [(0, 1), (1, 2), (2, 3)]

    def test_covers_everything_once(self):
        spans = chunk_boundaries(97, 7)
        covered = [i for a, b in spans for i in range(a, b)]
        assert covered == list(range(97))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chunk_boundaries(-1, 2)
        with pytest.raises(ValueError):
            chunk_boundaries(5, 0)


class TestPreciseStage:
    def test_single_final_version(self):
        b_in = VersionedBuffer("in")
        b_out = VersionedBuffer("out")
        stage = PreciseStage("s", b_out, (b_in,), lambda x: x * 2,
                             cost=10.0)
        auto = AnytimeAutomaton([stage], external={"in": 21})
        res = auto.run_simulated(total_cores=1.0)
        recs = res.output_records("out")
        assert len(recs) == 1
        assert recs[0].final and recs[0].value == 42
        assert not stage.anytime

    def test_precise_cost(self):
        b = VersionedBuffer("o")
        stage = PreciseStage("s", b, (), lambda: 1, cost=7.0)
        assert stage.precise_cost == 7.0


class TestIterativeStage:
    def make(self, costs=(5.0, 10.0)):
        b_in = VersionedBuffer("in")
        b_out = VersionedBuffer("out")
        levels = [AccuracyLevel(lambda x: x // 10 * 10, costs[0]),
                  AccuracyLevel(lambda x: x, costs[1])]
        stage = IterativeStage("it", b_out, (b_in,), levels)
        return stage, b_in, b_out

    def test_versions_progress_to_precise(self):
        stage, b_in, b_out = self.make()
        auto = AnytimeAutomaton([stage], external={"in": 47})
        res = auto.run_simulated(total_cores=1.0)
        recs = res.output_records("out")
        assert [r.value for r in recs] == [40, 47]
        assert [r.final for r in recs] == [False, True]

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError, match="at least one"):
            IterativeStage("x", VersionedBuffer("o"), (), [])

    def test_rejects_decreasing_costs_by_default(self):
        levels = [AccuracyLevel(lambda: 0, 10.0),
                  AccuracyLevel(lambda: 0, 5.0)]
        with pytest.raises(ValueError, match="allow_any_costs"):
            IterativeStage("x", VersionedBuffer("o"), (), levels)
        IterativeStage("y", VersionedBuffer("o2"), (), levels,
                       allow_any_costs=True)

    def test_redundancy_accounting(self):
        stage, _, _ = self.make(costs=(5.0, 10.0))
        assert stage.precise_cost == 10.0
        assert stage.total_cost == 15.0
        assert stage.redundancy_ratio == pytest.approx(1.5)

    def test_level_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            AccuracyLevel(lambda: 0, -1.0)


class TestMapStage:
    def make_auto(self, permutation=None, fill=None, chunks=4):
        img = np.arange(64, dtype=np.float64).reshape(8, 8)
        b_in = VersionedBuffer("in")
        b_out = VersionedBuffer("out")
        stage = MapStage(
            "map", b_out, (b_in,),
            lambda idx, im: np.asarray(im).reshape(-1)[idx] ** 2,
            shape=(8, 8), dtype=np.float64,
            permutation=permutation or TreePermutation(), fill=fill,
            chunks=chunks)
        return AnytimeAutomaton([stage], external={"in": img}), img

    def test_final_output_is_precise(self):
        auto, img = self.make_auto()
        res = auto.run_simulated(total_cores=4.0)
        final = res.timeline.final_record("out")
        assert np.array_equal(final.value, img ** 2)

    def test_intermediate_versions_are_whole_outputs(self):
        auto, img = self.make_auto()
        res = auto.run_simulated(total_cores=4.0)
        for rec in res.output_records("out"):
            assert rec.value.shape == (8, 8)
            assert np.isfinite(rec.value).all()

    def test_version_count_matches_chunks(self):
        auto, _ = self.make_auto(chunks=4)
        res = auto.run_simulated(total_cores=4.0)
        assert len(res.output_records("out")) == 4

    def test_non_tree_permutation_requires_fill(self):
        with pytest.raises(ValueError, match="fill"):
            MapStage("m", VersionedBuffer("o"), (),
                     lambda idx: idx, shape=16,
                     permutation=LfsrPermutation())

    def test_lfsr_with_constant_fill(self):
        auto, img = self.make_auto(permutation=LfsrPermutation(),
                                   fill=ConstantFill(0.0,
                                                     spatial_ndim=2))
        res = auto.run_simulated(total_cores=4.0)
        final = res.timeline.final_record("out")
        assert np.array_equal(final.value, img ** 2)

    def test_out_shape_must_extend_sampled_shape(self):
        with pytest.raises(ValueError, match="out_shape"):
            MapStage("m", VersionedBuffer("o"), (), lambda idx: idx,
                     shape=(4, 4), out_shape=(5, 4, 3))

    def test_precise_method_matches_final(self):
        auto, img = self.make_auto()
        assert np.array_equal(auto.precise_output(), img ** 2)


class TestReductionStage:
    def make_auto(self, operator="add", weighted=True, chunks=4):
        data = np.arange(1, 101, dtype=np.float64)
        b_in = VersionedBuffer("in")
        b_out = VersionedBuffer("out")
        stage = ReductionStage(
            "red", b_out, (b_in,),
            lambda idx, d: np.asarray(d)[idx].sum()
            if operator == "add" else np.asarray(d)[idx].max(),
            shape=100, out_shape=(), dtype=np.float64,
            operator=operator, permutation=LfsrPermutation(seed=3),
            weighted_output=weighted, chunks=chunks)
        return AnytimeAutomaton([stage], external={"in": data}), data

    def test_final_sum_is_exact(self):
        auto, data = self.make_auto()
        res = auto.run_simulated(total_cores=2.0)
        final = res.timeline.final_record("out")
        assert final.value == pytest.approx(data.sum())

    def test_weighted_intermediates_estimate_total(self):
        """Paper III-B2: O'_i = O_i * n / i approximates the final sum
        long before all elements are processed."""
        auto, data = self.make_auto(chunks=10)
        res = auto.run_simulated(total_cores=2.0)
        recs = res.output_records("out")
        early = recs[1].value   # 20% sample
        assert abs(early - data.sum()) / data.sum() < 0.35

    def test_unweighted_intermediates_are_partial(self):
        auto, data = self.make_auto(weighted=False, chunks=10)
        res = auto.run_simulated(total_cores=2.0)
        recs = res.output_records("out")
        assert recs[0].value < data.sum()
        assert recs[-1].value == pytest.approx(data.sum())

    def test_idempotent_operator_needs_no_weighting(self):
        auto, data = self.make_auto(operator="max")
        res = auto.run_simulated(total_cores=2.0)
        recs = res.output_records("out")
        # running max is monotone and ends exact
        values = [float(r.value) for r in recs]
        assert values == sorted(values)
        assert values[-1] == data.max()

    def test_precise_method(self):
        auto, data = self.make_auto()
        assert auto.precise_output() == pytest.approx(data.sum())


class TestBijectivityGuard:
    def test_non_bijective_permutation_rejected_at_runtime(self):
        """The model's central guarantee rests on p being a bijection;
        a broken permutation fails loudly before any work happens."""
        from repro.anytime.fill import ConstantFill
        from repro.anytime.permutations import Permutation

        class Broken(Permutation):
            name = "broken"

            def order(self, shape):
                n = (shape if isinstance(shape, int)
                     else int(np.prod(shape)))
                return np.zeros(n, dtype=np.int64)

        stage = MapStage("m", VersionedBuffer("o"), (),
                         lambda idx: idx, shape=8,
                         permutation=Broken(),
                         fill=ConstantFill(0.0))
        with pytest.raises(ValueError, match="not a bijection"):
            stage.order

    def test_non_bijective_permutation_rejected_on_every_stage(self):
        """The order memo never stores a failed order, so a second stage
        with the same broken permutation fails just as loudly."""
        from repro.anytime.fill import ConstantFill
        from repro.anytime.permutations import Permutation

        class Broken(Permutation):
            name = "broken"

            def order(self, shape):
                n = (shape if isinstance(shape, int)
                     else int(np.prod(shape)))
                return np.zeros(n, dtype=np.int64)

        for name in ("first", "second"):
            stage = MapStage(name, VersionedBuffer("o"), (),
                             lambda idx: idx, shape=8,
                             permutation=Broken(),
                             fill=ConstantFill(0.0))
            with pytest.raises(ValueError, match="not a bijection"):
                stage.order
