"""Tests for the 2dconv application (paper Figures 11, 16, 19, 20)."""

import math

import numpy as np
import pytest
from scipy import ndimage

from repro.apps.conv2d import (blur_kernel, build_conv2d_automaton,
                               conv2d_elements, conv2d_precise,
                               sample_size_sweep)
from repro.core.properties import check_purity
from repro.metrics.snr import snr_db


class TestKernel:
    def test_binomial_structure(self):
        k = blur_kernel(3)
        assert k.tolist() == [[1, 2, 1], [2, 4, 2], [1, 2, 1]]

    def test_sum_is_power_of_two(self):
        for size in (3, 5, 9):
            total = int(blur_kernel(size).sum())
            assert total & (total - 1) == 0

    def test_rejects_even_size(self):
        with pytest.raises(ValueError):
            blur_kernel(4)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (2, 2),
                                       (9,), (3, 3, 3)])
    @pytest.mark.parametrize("entry", ["precise", "elements", "build"])
    def test_entry_points_reject_bad_kernel_shapes(self, small_image,
                                                   shape, entry):
        """Non-square kernels used to fail deep in the gather, and even
        ones silently blurred off-centre."""
        kernel = np.ones(shape, dtype=np.int64)
        calls = {
            "precise": lambda: conv2d_precise(small_image, kernel),
            "elements": lambda: conv2d_elements(
                np.arange(4), small_image, kernel),
            "build": lambda: build_conv2d_automaton(small_image,
                                                    kernel=kernel),
        }
        with pytest.raises(ValueError, match="square and odd-sized"):
            calls[entry]()

    @pytest.mark.parametrize("kernel,match", [
        (np.ones((3, 3)) / 9, "whole numbers"),
        (np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]]), "sum to more"),
        (-blur_kernel(3), "sum to more"),
        (np.full((3, 3), np.nan), "whole numbers"),
    ], ids=["box_blur_ninths", "laplacian", "negative_sum", "nan"])
    @pytest.mark.parametrize("entry", ["precise", "elements", "build",
                                       "sweep", "sram"])
    def test_entry_points_reject_kernels_integer_sums_cannot_compute(
            self, small_image, kernel, match, entry):
        """A box blur of ninths used to return an all-zero image (the
        weights truncated to 0, the total to 1), and a zero-sum kernel
        divided by zero with only a RuntimeWarning."""
        from repro.apps.conv2d_storage import build_conv2d_sram_automaton

        calls = {
            "precise": lambda: conv2d_precise(small_image, kernel),
            "elements": lambda: conv2d_elements(
                np.arange(4), small_image, kernel),
            "build": lambda: build_conv2d_automaton(small_image,
                                                    kernel=kernel),
            "sweep": lambda: sample_size_sweep(small_image,
                                               kernel=kernel),
            "sram": lambda: build_conv2d_sram_automaton(small_image,
                                                        kernel=kernel),
        }
        with pytest.raises(ValueError, match=match):
            calls[entry]()

    def test_whole_number_float_weights_are_accepted(self, small_image):
        kernel = blur_kernel(3)
        assert np.array_equal(
            conv2d_precise(small_image, kernel.astype(np.float64)),
            conv2d_precise(small_image, kernel))


class TestPrecise:
    def test_matches_scipy_in_interior(self, small_image):
        """Our from-scratch convolution agrees with scipy.ndimage away
        from the border (border modes differ slightly)."""
        k = blur_kernel(3)
        ours = conv2d_precise(small_image, k).astype(np.float64)
        ref = ndimage.convolve(small_image.astype(np.float64),
                               k.astype(np.float64) / k.sum(),
                               mode="nearest")
        interior = (slice(2, -2), slice(2, -2))
        assert np.abs(ours[interior] - ref[interior]).max() <= 1.0

    def test_constant_image_unchanged(self):
        img = np.full((16, 16), 77, dtype=np.uint8)
        assert np.array_equal(conv2d_precise(img), img)

    def test_output_dtype_and_range(self, small_image):
        out = conv2d_precise(small_image)
        assert out.dtype == np.uint8

    def test_elements_are_pure(self, small_image):
        k = blur_kernel(3)
        idx = np.array([0, 5, 100])
        check_purity(lambda i, im: conv2d_elements(i, im, k),
                     [idx, small_image.astype(np.int64)])


class TestAutomaton:
    def test_final_output_bit_exact(self, small_image):
        auto = build_conv2d_automaton(small_image, chunks=8)
        ref = conv2d_precise(small_image)
        res = auto.run_simulated(total_cores=8.0)
        final = res.timeline.final_record("filtered")
        assert np.array_equal(final.value, ref)

    def test_profile_monotone_to_inf(self, small_image):
        auto = build_conv2d_automaton(small_image, chunks=8)
        res = auto.run_simulated(total_cores=8.0)
        prof = auto.profile(res, total_cores=8.0)
        assert prof.is_monotonic(1.0)
        assert math.isinf(prof.final_snr_db)

    def test_reduced_precision_variant_caps_snr(self, small_image):
        auto = build_conv2d_automaton(small_image, chunks=4,
                                      pixel_bits=4)
        res = auto.run_simulated(total_cores=8.0)
        final = res.timeline.final_record("filtered")
        ref = conv2d_precise(small_image)
        snr = snr_db(final.value, ref)
        assert 10.0 < snr < 40.0 and not math.isinf(snr)

    def test_reduced_precision_cheaper(self, small_image):
        full = build_conv2d_automaton(small_image, chunks=4)
        half = build_conv2d_automaton(small_image, chunks=4,
                                      pixel_bits=4)
        assert half.baseline_cost() < full.baseline_cost()


class TestSampleSizeSweep:
    def test_nominal_sweep_ends_exact(self, small_image):
        rows = sample_size_sweep(small_image)
        sizes = [s for s, _ in rows]
        assert sizes == sorted(sizes)
        assert sizes[-1] == small_image.size
        assert math.isinf(rows[-1][1])

    def test_snr_grows_with_sample_size(self, small_image):
        rows = sample_size_sweep(small_image)
        snrs = [snr for _, snr in rows]
        best = -math.inf
        for s in snrs:
            assert s >= best - 1.0
            best = max(best, s)

    def test_precision_ceilings_ordered(self, small_image):
        finals = {}
        for bits in (6, 4, 2):
            finals[bits] = sample_size_sweep(small_image,
                                             pixel_bits=bits)[-1][1]
        assert finals[6] > finals[4] > finals[2]

    def test_sram_upsets_cap_final_snr(self, small_image):
        clean = sample_size_sweep(small_image, seed=9)
        noisy = sample_size_sweep(small_image, read_upset_prob=1e-4,
                                  seed=9)
        assert math.isinf(clean[-1][1])
        assert not math.isinf(noisy[-1][1])

    def test_sram_curves_overlay_at_small_samples(self, small_image):
        """Paper IV-B2: flips scale with elements processed, so the
        curves line up at lower sample sizes."""
        clean = sample_size_sweep(small_image, seed=9)
        noisy = sample_size_sweep(small_image, read_upset_prob=1e-6,
                                  seed=9)
        assert abs(clean[0][1] - noisy[0][1]) < 1.0

    def test_custom_sample_sizes(self, small_image):
        rows = sample_size_sweep(small_image, sample_sizes=[16, 256])
        assert [s for s, _ in rows] == [16, 256]

    def test_deterministic_under_seed(self, small_image):
        a = sample_size_sweep(small_image, read_upset_prob=1e-4, seed=3)
        b = sample_size_sweep(small_image, read_upset_prob=1e-4, seed=3)
        assert a == b
