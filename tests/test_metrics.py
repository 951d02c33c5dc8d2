"""Tests for SNR metrics and runtime-accuracy profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.profiles import ProfilePoint, RuntimeAccuracyProfile
from repro.metrics.snr import mse, nrmse, psnr_db, rmse, snr_db


def _float_snr_oracle(approx, reference):
    """``snr_db`` on float64 copies: the path every dtype took before
    1-byte images got their integer sums."""
    approx = np.asarray(approx, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    noise = float(((reference - approx) ** 2).sum())
    if noise == 0.0:
        return math.inf
    signal = float((reference ** 2).sum())
    if signal == 0.0:
        return -math.inf
    return 10.0 * float(np.log10(signal / noise))


class TestSnrIntegerPath:
    """1-byte images take integer sums; the dB must be the float64
    path's bit for bit."""

    @pytest.mark.parametrize("shape", [(1,), (61, 61), (256, 256),
                                       (64, 48, 3)])
    @pytest.mark.parametrize("dtypes", [(np.uint8, np.uint8),
                                        (np.int8, np.uint8),
                                        (np.uint8, np.int8)])
    def test_equals_float_path(self, shape, dtypes):
        rng = np.random.default_rng(sum(shape))
        ref = rng.integers(0, 256, size=shape).astype(np.uint8)
        approx = ref ^ rng.integers(0, 8, size=shape).astype(np.uint8)
        ref, approx = ref.view(dtypes[0]), approx.view(dtypes[1])
        assert snr_db(approx, ref) == _float_snr_oracle(approx, ref)

    def test_exact_match_is_inf(self):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert snr_db(img, img.copy()) == math.inf

    def test_zero_reference_is_minus_inf(self):
        zero = np.zeros((8, 8, 3), dtype=np.uint8)
        assert snr_db(zero + 1, zero) == -math.inf

    def test_worst_case_noise_image(self):
        """512x512x3 at the largest differences a byte pair can reach."""
        rng = np.random.default_rng(0)
        ref = rng.choice(np.array([0, 255], dtype=np.uint8),
                         size=(512, 512, 3))
        approx = 255 - ref
        approx[0, 0, 0] = ref[0, 0, 0]
        want = _float_snr_oracle(approx, ref)
        assert snr_db(approx, ref) == want
        signed = np.full(ref.shape, -128, dtype=np.int8)
        assert snr_db(signed, ref) == _float_snr_oracle(signed, ref)

    @given(st.integers(0, 2 ** 32), st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_random_images_equal_float_path(self, seed, n):
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 256, size=(n, 3)).astype(np.uint8)
        approx = rng.integers(0, 256, size=(n, 3)).astype(np.uint8)
        assert snr_db(approx, ref) == _float_snr_oracle(approx, ref)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            snr_db(np.zeros(3, np.uint8), np.zeros(4, np.uint8))


class TestSnr:
    def test_exact_match_is_inf(self):
        a = np.arange(10.0)
        assert snr_db(a, a) == math.inf

    def test_known_value(self):
        ref = np.array([10.0, 0.0])
        approx = np.array([9.0, 0.0])
        assert snr_db(approx, ref) == pytest.approx(20.0)

    def test_zero_reference_with_error(self):
        assert snr_db(np.ones(3), np.zeros(3)) == -math.inf

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            snr_db(np.zeros(3), np.zeros(4))

    def test_uint8_inputs_no_overflow(self):
        """Differences of uint8 arrays must not wrap around."""
        ref = np.array([0], dtype=np.uint8)
        approx = np.array([255], dtype=np.uint8)
        assert mse(approx, ref) == pytest.approx(255.0 ** 2)

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=20, deadline=None)
    def test_snr_decreases_with_noise(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.uniform(1, 10, 64)
        small = ref + rng.normal(0, 0.01, 64)
        large = ref + rng.normal(0, 1.0, 64)
        assert snr_db(small, ref) > snr_db(large, ref)

    def test_mse_rmse_relation(self):
        a, b = np.array([1.0, 3.0]), np.array([2.0, 5.0])
        assert rmse(a, b) == pytest.approx(math.sqrt(mse(a, b)))

    def test_nrmse_normalized(self):
        ref = np.array([0.0, 100.0])
        approx = np.array([10.0, 100.0])
        assert nrmse(approx, ref) == pytest.approx(
            math.sqrt(50.0) / 100.0)

    def test_nrmse_flat_reference(self):
        flat = np.full(4, 7.0)
        assert nrmse(flat, flat) == 0.0
        assert nrmse(flat + 1, flat) == math.inf

    def test_psnr_exact_inf(self):
        a = np.arange(4.0)
        assert psnr_db(a, a) == math.inf

    def test_psnr_with_peak(self):
        ref = np.array([0.0, 0.0])
        approx = np.array([25.5, 0.0])
        # mse = 325.125... use explicit: peak^2 / mse
        expected = 10 * math.log10(255 ** 2 / mse(approx, ref))
        assert psnr_db(approx, ref, peak=255) == pytest.approx(expected)


class TestProfilePoint:
    def test_rejects_negative_runtime(self):
        with pytest.raises(ValueError):
            ProfilePoint(-0.1, 10.0)


class TestRuntimeAccuracyProfile:
    def make(self):
        p = RuntimeAccuracyProfile(label="t")
        p.add(0.2, 10.0, version=1, energy=5.0)
        p.add(0.5, 18.0, version=2, energy=12.0)
        p.add(1.1, math.inf, version=3, energy=30.0)
        return p

    def test_time_ordering_enforced(self):
        p = self.make()
        with pytest.raises(ValueError, match="time-ordered"):
            p.add(0.3, 20.0)

    def test_final_snr(self):
        assert self.make().final_snr_db == math.inf

    def test_final_snr_empty_raises(self):
        with pytest.raises(ValueError):
            RuntimeAccuracyProfile().final_snr_db

    def test_time_to_precise(self):
        assert self.make().time_to_precise == pytest.approx(1.1)

    def test_time_to_precise_none_when_not_reached(self):
        p = RuntimeAccuracyProfile()
        p.add(0.5, 20.0)
        assert p.time_to_precise is None

    def test_snr_at(self):
        p = self.make()
        assert p.snr_at(0.1) == -math.inf
        assert p.snr_at(0.2) == 10.0
        assert p.snr_at(0.7) == 18.0
        assert p.snr_at(5.0) == math.inf

    def test_time_to_snr(self):
        p = self.make()
        assert p.time_to_snr(15.0) == pytest.approx(0.5)
        assert p.time_to_snr(10.0) == pytest.approx(0.2)
        assert RuntimeAccuracyProfile().time_to_snr(1.0) is None

    def test_energy_to_snr(self):
        assert self.make().energy_to_snr(15.0) == pytest.approx(12.0)

    def test_monotonic_check(self):
        p = self.make()
        assert p.is_monotonic()
        q = RuntimeAccuracyProfile()
        q.add(0.1, 20.0)
        q.add(0.2, 15.0)
        assert not q.is_monotonic()
        assert q.is_monotonic(tolerance_db=6.0)
        assert len(q.monotonicity_violations()) == 1

    def test_iteration_and_len(self):
        p = self.make()
        assert len(p) == 3
        assert [pt.version for pt in p] == [1, 2, 3]

    def test_to_rows(self):
        assert self.make().to_rows()[0] == (0.2, 10.0)

    def test_format_table_thinning(self):
        p = RuntimeAccuracyProfile(label="x")
        for i in range(50):
            p.add(i * 0.1, float(i))
        text = p.format_table(max_rows=5)
        assert len(text.splitlines()) <= 7   # header + 5 rows
        assert "# x" in text

    def test_format_table_inf(self):
        assert "inf" in self.make().format_table()
