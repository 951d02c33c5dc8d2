"""Tests for output-sampling fill policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anytime.fill import (ConstantFill, MeanFill, NearestFill,
                                TreeFill, sample_levels)
from repro.anytime.permutations import (LfsrPermutation, TreePermutation,
                                        sample_order)


@pytest.fixture
def dense8():
    return np.arange(64, dtype=np.float64).reshape(8, 8)


@pytest.fixture
def order8():
    return TreePermutation().order((8, 8))


class TestTreeFill:
    def test_zero_count_returns_zeros(self, dense8, order8):
        out = TreeFill().fill(dense8, order8, 0)
        assert (out == 0).all()

    def test_full_count_is_exact(self, dense8, order8):
        out = TreeFill().fill(dense8, order8, 64)
        assert np.array_equal(out, dense8)

    def test_single_sample_floods_whole_output(self, dense8, order8):
        out = TreeFill().fill(dense8, order8, 1)
        assert (out == dense8[0, 0]).all()

    def test_four_samples_make_quadrant_blocks(self, dense8, order8):
        """Paper Figure 5 visualization: after 4 samples the output is a
        2x2 image upscaled 4x."""
        out = TreeFill().fill(dense8, order8, 4)
        for r0, c0 in [(0, 0), (0, 4), (4, 0), (4, 4)]:
            block = out[r0:r0 + 4, c0:c0 + 4]
            assert (block == dense8[r0, c0]).all()

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 9, 17, 40, 63])
    def test_computed_entries_always_preserved(self, dense8, order8,
                                               count):
        out = TreeFill().fill(dense8, order8, count)
        idx = order8[:count]
        assert np.array_equal(out.reshape(-1)[idx],
                              dense8.reshape(-1)[idx])

    @given(count=st.integers(min_value=0, max_value=256))
    @settings(max_examples=40, deadline=None)
    def test_every_prefix_produces_valid_output(self, count):
        dense = np.arange(256, dtype=np.float64).reshape(16, 16)
        order = TreePermutation().order((16, 16))
        out = TreeFill().fill(dense, order, count)
        assert out.shape == dense.shape
        assert np.isfinite(out).all()
        if count:
            # every filled value comes from a computed sample
            computed = set(dense.reshape(-1)[order[:count]].tolist())
            assert set(np.unique(out).tolist()) <= computed | {0.0}

    def test_does_not_modify_dense(self, dense8, order8):
        before = dense8.copy()
        TreeFill().fill(dense8, order8, 10)
        assert np.array_equal(dense8, before)

    def test_multichannel_output(self):
        """spatial_ndim restricts the sampled axes (RGB rides along)."""
        dense = np.arange(64 * 3, dtype=np.float64).reshape(8, 8, 3)
        order = TreePermutation().order((8, 8))
        out = TreeFill(spatial_ndim=2).fill(dense, order, 4)
        assert out.shape == dense.shape
        assert np.array_equal(out[0, 0], dense[0, 0])
        assert np.array_equal(out[3, 3], dense[0, 0])

    def test_one_dimensional(self):
        dense = np.arange(16, dtype=np.float64)
        order = TreePermutation().order(16)
        out = TreeFill().fill(dense, order, 2)
        assert (out[:8] == dense[0]).all()
        assert (out[8:] == dense[8]).all()

    def test_order_length_mismatch_raises(self, dense8):
        with pytest.raises(ValueError, match="match"):
            TreeFill().fill(dense8, np.arange(10), 5)

    def test_refinement_is_hierarchical(self):
        """Finer levels overwrite exactly their own blocks."""
        dense = np.arange(64, dtype=np.float64).reshape(8, 8)
        order = TreePermutation().order((8, 8))
        f4 = TreeFill().fill(dense, order, 4)
        f16 = TreeFill().fill(dense, order, 16)
        # the 16-sample fill agrees with the dense data on sampled spots
        idx = order[:16]
        assert np.array_equal(f16.reshape(-1)[idx],
                              dense.reshape(-1)[idx])
        # and is at least as close to the truth everywhere (block-wise)
        err4 = np.abs(f4 - dense).sum()
        err16 = np.abs(f16 - dense).sum()
        assert err16 <= err4


class TestSharedTreeFill:
    """Levels belong to an order, not to an (n, shape) pair: one fill
    instance serving two orders of the same shape must not mix them."""

    @pytest.mark.parametrize("memoised", [False, True])
    def test_two_orders_one_instance(self, memoised):
        dense = np.arange(256, dtype=np.float64).reshape(16, 16)
        perms = [TreePermutation(), LfsrPermutation(seed=3)]
        orders = [sample_order(p, (16, 16)) if memoised
                  else p.order((16, 16)) for p in perms]
        shared = TreeFill()
        for order in orders:
            for count in (1, 5, 40, 200):
                assert np.array_equal(shared.fill(dense, order, count),
                                      TreeFill().fill(dense, order, count))


class TestSampleLevels:
    def test_level_zero_is_origin(self):
        order = TreePermutation().order((8, 8))
        levels = sample_levels(order, (8, 8))
        assert levels[0] == 0

    def test_level_counts_form_powers_of_four(self):
        order = TreePermutation().order((16, 16))
        levels = sample_levels(order, (16, 16))
        counts = np.bincount(levels)
        assert counts.tolist() == [1, 3, 12, 48, 192]


class TestNearestFill:
    def test_full_count_exact(self, dense8):
        order = LfsrPermutation().order(64)
        out = NearestFill().fill(dense8, order, 64)
        assert np.array_equal(out, dense8)

    def test_partial_count_uses_nearest_neighbor(self, dense8):
        order = LfsrPermutation().order(64)
        out = NearestFill().fill(dense8, order, 5)
        computed = set(dense8.reshape(-1)[order[:5]].tolist())
        assert set(np.unique(out).tolist()) <= computed

    def test_zero_count(self, dense8):
        out = NearestFill().fill(dense8, LfsrPermutation().order(64), 0)
        assert (out == 0).all()


class TestConstantFill:
    def test_fills_with_value(self, dense8):
        order = np.arange(64)
        out = ConstantFill(value=7.0).fill(dense8, order, 2)
        assert out[0, 0] == dense8[0, 0]
        assert out[7, 7] == 7.0


class TestMeanFill:
    def test_fills_with_running_mean(self, dense8):
        order = np.arange(64)
        out = MeanFill().fill(dense8, order, 4)
        assert np.allclose(out[7, 7], dense8.reshape(-1)[:4].mean())
        assert np.array_equal(out.reshape(-1)[:4],
                              dense8.reshape(-1)[:4])

    def test_zero_count(self, dense8):
        out = MeanFill().fill(dense8, np.arange(64), 0)
        assert (out == 0).all()
