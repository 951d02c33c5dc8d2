"""Tests for the dwt53 application (paper Figures 13, 17)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.dwt53 import (_int32_exact, build_dwt53_automaton,
                              dwt53_forward, dwt53_inverse,
                              dwt53_perforated, dwt53_rows, idwt53_rows,
                              reconstruct, reconstruction_metric)
from repro.apps.registry import get_app
from repro.metrics.snr import snr_db


class TestLifting:
    def test_rows_roundtrip_exact(self, rng):
        data = rng.integers(0, 256, size=(8, 16))
        assert np.array_equal(idwt53_rows(dwt53_rows(data)), data)

    @given(hnp.arrays(np.int64, st.tuples(st.integers(1, 8),
                                          st.sampled_from([2, 4, 8, 16])),
                      elements=st.integers(-1000, 1000)))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        assert np.array_equal(idwt53_rows(dwt53_rows(data)), data)

    def test_rejects_odd_extent(self):
        with pytest.raises(ValueError, match="even"):
            dwt53_rows(np.zeros((2, 5), dtype=np.int64))
        with pytest.raises(ValueError, match="even"):
            idwt53_rows(np.zeros((2, 5), dtype=np.int64))

    def test_constant_signal_has_zero_details(self):
        data = np.full((1, 16), 100, dtype=np.int64)
        coeffs = dwt53_rows(data)
        assert (coeffs[:, 8:] == 0).all()
        assert (coeffs[:, :8] == 100).all()

    def test_detail_coefficients_capture_highfreq(self):
        smooth = dwt53_rows(np.arange(0, 32, 2).reshape(1, -1))
        jagged = dwt53_rows(
            np.tile([0, 100], 8).reshape(1, -1).astype(np.int64))
        assert np.abs(jagged[:, 8:]).sum() > np.abs(smooth[:, 8:]).sum()


class Test2D:
    @given(st.integers(0, 2 ** 31), st.sampled_from([1, 2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_forward_inverse_roundtrip(self, seed, levels):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(32, 32))
        coeffs = dwt53_forward(img, levels=levels)
        assert np.array_equal(dwt53_inverse(coeffs, levels=levels), img)

    def test_multilevel_nests_quadrants(self, small_image):
        c1 = dwt53_forward(small_image, levels=1)
        c2 = dwt53_forward(small_image, levels=2)
        h, w = small_image.shape
        # outside the top-left quadrant the transforms agree
        assert np.array_equal(c1[h // 2:, :], c2[h // 2:, :])
        assert np.array_equal(c1[:, w // 2:], c2[:, w // 2:])

    def test_energy_compaction(self, small_image):
        """Most signal energy lands in the approximation quadrant."""
        c = dwt53_forward(small_image, levels=1)
        h, w = small_image.shape
        ll = c[:h // 2, :w // 2].astype(np.float64)
        total = c.astype(np.float64)
        assert (ll ** 2).sum() > 0.5 * (total ** 2).sum()


class TestPerforation:
    def test_stride_one_is_precise(self, small_image):
        assert np.array_equal(dwt53_perforated(small_image, 1),
                              dwt53_forward(small_image))

    def test_larger_stride_lower_accuracy(self, small_image):
        ref = small_image
        errors = []
        for stride in (8, 4, 2, 1):
            rec = reconstruct(dwt53_perforated(small_image, stride))
            errors.append(np.abs(rec.astype(np.int64)
                                 - ref.astype(np.int64)).sum())
        assert errors[-1] == 0
        assert errors[0] >= errors[1] >= errors[2] >= errors[3]

    def test_perforated_output_is_valid_coefficients(self, small_image):
        """Even the coarsest perforation yields a complete, invertible
        coefficient array — a valid anytime output."""
        coeffs = dwt53_perforated(small_image, 8)
        assert coeffs.shape == small_image.shape
        rec = reconstruct(coeffs)
        assert rec.shape == small_image.shape


class TestAutomaton:
    def test_single_iterative_stage(self, small_image):
        auto = build_dwt53_automaton(small_image)
        assert len(auto.graph.stages) == 1
        assert auto.graph.stages[0].name == "forward"

    def test_versions_equal_stride_levels(self, small_image):
        auto = build_dwt53_automaton(small_image,
                                     strides=(4, 2, 1))
        res = auto.run_simulated(total_cores=8.0)
        assert len(res.output_records("coeffs")) == 3

    def test_reconstruction_metric_profile(self, small_image):
        auto = build_dwt53_automaton(small_image)
        res = auto.run_simulated(total_cores=8.0)
        prof = auto.profile(res, total_cores=8.0,
                            metric=reconstruction_metric(),
                            reference=small_image)
        snrs = [s for _, s in prof.to_rows()]
        assert all(b >= a for a, b in zip(snrs, snrs[1:]))
        assert math.isinf(snrs[-1]), \
            "5/3 lifting is lossless: full reconstruction is bit-exact"

    def test_reconstruction_metric_function(self, small_image):
        coeffs = dwt53_forward(small_image)
        metric = reconstruction_metric()
        assert math.isinf(metric(coeffs, small_image))
        approx = dwt53_perforated(small_image, 4)
        assert metric(approx, small_image) < math.inf


def _transposing_inverse(coeffs, levels):
    """The inverse as it was first written, each column pass a transposed
    round trip through :func:`idwt53_rows`: the reference the lifting
    in place must equal."""
    coeffs = np.asarray(coeffs, dtype=np.int64).copy()
    hs = [coeffs.shape[0] >> k for k in range(levels)]
    ws = [coeffs.shape[1] >> k for k in range(levels)]
    for h, w in zip(reversed(hs), reversed(ws)):
        sub = coeffs[:h, :w]
        sub[:] = idwt53_rows(sub.T).T
        sub[:] = idwt53_rows(sub)
    return coeffs


class TestInverseInPlace:
    """The scorer's inverse lifts along axis 0 of views, in int32 where
    a range check proves it exact: it must equal the transposing
    inverse bit for bit."""

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_ladder_version(self, seed, levels):
        image = get_app("dwt53").make_input(64, seed)
        auto = build_dwt53_automaton(image, levels=levels)
        records = auto.run_simulated(total_cores=8.0) \
            .output_records("coeffs")
        assert len(records) > 3
        for record in records:
            coeffs = record.value
            assert coeffs.dtype == np.int64
            expected = _transposing_inverse(coeffs, levels)
            inverse = dwt53_inverse(coeffs, levels=levels)
            assert inverse.dtype == np.int64
            assert np.array_equal(inverse, expected)
            assert np.array_equal(
                reconstruct(coeffs, levels=levels),
                np.clip(expected, 0, 255).astype(np.uint8))

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_large_coefficients_take_the_int64_path(self, levels):
        rng = np.random.default_rng(levels)
        for magnitude in (2 ** 28, 2 ** 40, 2 ** 58):
            coeffs = rng.integers(-magnitude, magnitude, size=(32, 48))
            assert not _int32_exact(coeffs, levels)
            assert np.array_equal(dwt53_inverse(coeffs, levels=levels),
                                  _transposing_inverse(coeffs, levels))
        # int32's own edge: the largest coefficient it still takes
        # overflows nothing
        edge = 2 ** 31 // 4 ** (2 * levels) - 64
        coeffs = rng.integers(-edge, edge, size=(32, 48))
        coeffs[0, 0], coeffs[-1, -1] = edge, -edge
        assert _int32_exact(coeffs, levels)
        assert np.array_equal(dwt53_inverse(coeffs, levels=levels),
                              _transposing_inverse(coeffs, levels))

    def test_rejects_odd_extent(self):
        with pytest.raises(ValueError, match="even"):
            dwt53_inverse(np.zeros((12, 10), dtype=np.int64), levels=2)
