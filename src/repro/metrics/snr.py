"""Accuracy metrics.

The paper measures accuracy as "signal-to-noise ratio (SNR) — a standard
metric in image processing — of the approximate output relative to the
baseline precise.  SNR is measured in decibels (dB) where ∞ dB is perfect
accuracy."
"""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "rmse", "snr_db", "psnr_db", "nrmse"]


def _as_float_pair(approx: np.ndarray,
                   reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    approx = np.asarray(approx, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if approx.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: approx {approx.shape} vs reference "
            f"{reference.shape}")
    return approx, reference


def mse(approx: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared error."""
    approx, reference = _as_float_pair(approx, reference)
    return float(np.mean((approx - reference) ** 2))


def rmse(approx: np.ndarray, reference: np.ndarray) -> float:
    """Root mean squared error."""
    return float(np.sqrt(mse(approx, reference)))


def nrmse(approx: np.ndarray, reference: np.ndarray) -> float:
    """RMSE normalized by the reference's value range."""
    approx, reference = _as_float_pair(approx, reference)
    span = float(reference.max() - reference.min())
    if span == 0.0:
        return 0.0 if np.array_equal(approx, reference) else float("inf")
    return rmse(approx, reference) / span


def _is_byte_image(a: np.ndarray) -> bool:
    return a.dtype.kind in "iu" and a.dtype.itemsize == 1


def snr_db(approx: np.ndarray, reference: np.ndarray) -> float:
    """Signal-to-noise ratio in decibels (∞ for an exact match).

    ``SNR = 10 log10( sum(reference²) / sum((reference - approx)²) )``.

    Two images of 1-byte integers take both sums in int64 from an int16
    difference, without widening either image. A squared difference is
    then at most ``383**2``, so for fewer than ``2**53 // 383**2``
    (about 6·10¹⁰) elements every square and every partial sum is an
    integer below ``2**53``. float64 adds such integers exactly in any
    order, so the float64 path would reach the same two sums and the
    same dB bit for bit. Other dtypes take that float64 path.
    """
    approx, reference = np.asarray(approx), np.asarray(reference)
    if (_is_byte_image(approx) and _is_byte_image(reference)
            and approx.shape == reference.shape
            and approx.size < 2 ** 53 // 383 ** 2):
        diff = np.subtract(reference, approx, dtype=np.int16).reshape(-1)
        ref = reference.reshape(-1)
        noise = float(np.einsum("i,i->", diff, diff, dtype=np.int64))
        signal = float(np.einsum("i,i->", ref, ref, dtype=np.int64))
    else:
        approx, reference = _as_float_pair(approx, reference)
        noise = float(((reference - approx) ** 2).sum())
        signal = float((reference ** 2).sum())
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return float("-inf")
    return 10.0 * float(np.log10(signal / noise))


def psnr_db(approx: np.ndarray, reference: np.ndarray,
            peak: float | None = None) -> float:
    """Peak signal-to-noise ratio in decibels.

    ``peak`` defaults to the reference's max value (255 for 8-bit images
    when passed explicitly by callers).
    """
    approx, reference = _as_float_pair(approx, reference)
    err = mse(approx, reference)
    if err == 0.0:
        return float("inf")
    if peak is None:
        peak = float(np.abs(reference).max())
    if peak == 0.0:
        return float("-inf")
    return 10.0 * float(np.log10(peak * peak / err))
