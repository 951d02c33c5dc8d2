"""Discrete wavelet transform (PERFECT ``dwt53``) — paper Figures 13, 17.

"Discrete wavelet transform performs a discretely-sampled wavelet
transform on an image. ... We approximate the transform and then execute
the inverse transform precisely; accuracy is measured on the inversed
output relative to the original image.  Our automaton consists of a
single iterative stage that employs loop perforation when processing and
transposing pixels."

The transform is the integer CDF 5/3 lifting scheme (JPEG2000 lossless):
perfectly invertible, so the automaton's final output reconstructs the
original image bit-exactly (SNR ∞).  Loop perforation processes every
``s``-th row (then column), replicating each processed line over the
skipped ones; strides shrink over the iterative levels down to the
precise stride 1.  The iterative re-execution is what gives dwt53 its
steep runtime-accuracy curve.
"""

from __future__ import annotations

import numpy as np

from ..anytime.perforation import StrideSchedule, geometric_strides
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.iterative import AccuracyLevel, IterativeStage
from ..core.stage import access_penalty
from ..data.images import row_blocks

__all__ = ["dwt53_rows", "idwt53_rows", "dwt53_forward", "dwt53_inverse",
           "dwt53_perforated", "PerforatedDWTStage",
           "build_dwt53_automaton", "reconstruct",
           "reconstruction_metric"]


def dwt53_rows(data: np.ndarray) -> np.ndarray:
    """One CDF 5/3 lifting level along the last axis (integer, exact).

    Output layout: approximation (s) coefficients in the left half,
    detail (d) coefficients in the right half.  The length of the last
    axis must be even.
    """
    data = np.asarray(data, dtype=np.int64)
    n = data.shape[-1]
    if n % 2:
        raise ValueError(f"dwt53 needs an even extent, got {n}")
    even = data[..., 0::2]
    odd = data[..., 1::2]
    # predict: d[i] = odd[i] - floor((even[i] + even[i+1]) / 2),
    # symmetric extension at the right edge
    even_next = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    d = odd - ((even + even_next) >> 1)
    # update: s[i] = even[i] + floor((d[i-1] + d[i] + 2) / 4),
    # symmetric extension at the left edge
    d_prev = np.concatenate([d[..., :1], d[..., :-1]], axis=-1)
    s = even + ((d_prev + d + 2) >> 2)
    return np.concatenate([s, d], axis=-1)


def idwt53_rows(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`dwt53_rows`."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    n = coeffs.shape[-1]
    if n % 2:
        raise ValueError(f"idwt53 needs an even extent, got {n}")
    half = n // 2
    s = coeffs[..., :half]
    d = coeffs[..., half:]
    d_prev = np.concatenate([d[..., :1], d[..., :-1]], axis=-1)
    even = s - ((d_prev + d + 2) >> 2)
    even_next = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    odd = d + ((even + even_next) >> 1)
    out = np.empty(coeffs.shape, dtype=np.int64)
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


def dwt53_forward(image: np.ndarray, levels: int = 1) -> np.ndarray:
    """2-D separable 5/3 transform: rows then columns, ``levels`` deep
    (each level transforms the top-left approximation quadrant)."""
    return dwt53_perforated(image, 1, levels)


def dwt53_inverse(coeffs: np.ndarray, levels: int = 1) -> np.ndarray:
    """Exact inverse of :func:`dwt53_forward`."""
    return _inverse(coeffs, levels).astype(np.int64, copy=False)


def _inverse(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """The inverse transform, in int32 where :func:`_int32_exact` proves
    that no sum overflows it (any image's coefficients), else in int64.
    Both passes lift along axis 0 of a view, the row pass on the
    transposed view, so no line is copied or concatenated."""
    coeffs = np.asarray(coeffs)
    dtype = np.int32 if _int32_exact(coeffs, levels) else np.int64
    work = coeffs.astype(dtype)
    scratch = np.empty_like(work)
    for k in reversed(range(levels)):
        h, w = coeffs.shape[0] >> k, coeffs.shape[1] >> k
        if h % 2 or w % 2:
            raise ValueError(f"idwt53 needs even extents, got {h}x{w}")
        _ilift(work[:h, :w], scratch[:h, :w])
        _ilift(scratch[:h, :w].T, work[:h, :w].T)
    return work


def _int32_exact(coeffs: np.ndarray, levels: int) -> bool:
    """Whether every value the inverse forms fits int32.  A pass forms
    sums of two values and then values at most ``3m + 4`` from inputs
    of magnitude ``m``, so ``4m + 8`` bounds a pass's every sum and
    output; the inverse runs two passes a level."""
    if coeffs.size == 0:
        return True
    bound = max(int(coeffs.max()), -int(coeffs.min()))
    for _ in range(2 * levels):
        bound = 4 * bound + 8
    return bound <= np.iinfo(np.int32).max


def _ilift(c: np.ndarray, out: np.ndarray) -> None:
    """One inverse lifting pass along axis 0 of ``c`` into ``out``, a
    distinct array of its shape and dtype: :func:`idwt53_rows` along
    the first axis, written into the even and odd lines in place."""
    half = c.shape[0] // 2
    s, d = c[:half], c[half:]
    even, odd = out[0::2], out[1::2]
    # even[i] = s[i] - floor((d[i-1] + d[i] + 2) / 4), d[-1] := d[0]
    np.add(d[:-1], d[1:], out=even[1:])
    np.add(d[0], d[0], out=even[0])
    even += 2
    even >>= 2
    np.subtract(s, even, out=even)
    # odd[i] = d[i] + floor((even[i] + even[i+1]) / 2),
    # even[half] := even[half-1]
    np.add(even[:-1], even[1:], out=odd[:-1])
    np.add(even[-1], even[-1], out=odd[-1])
    odd >>= 1
    odd += d


def _perforate_lines(data: np.ndarray, stride: int) -> np.ndarray:
    """Transform every ``stride``-th row of ``data`` (axis 0), replicating
    each processed row over the skipped ones below it."""
    if stride == 1:
        return dwt53_rows(data)
    processed = dwt53_rows(data[::stride])
    owner = np.arange(data.shape[0]) // stride
    owner = np.minimum(owner, processed.shape[0] - 1)
    return processed[owner]


def _perforate_in_place(data: np.ndarray, stride: int) -> None:
    """:func:`_perforate_lines` written back into ``data``.  Rows are
    transformed one by one, so the precise stride lifts a block of rows
    at a time (:func:`~repro.data.images.row_blocks`)."""
    if stride > 1:
        data[:] = _perforate_lines(data, stride)
        return
    for rows in row_blocks(*data.shape):
        data[rows] = dwt53_rows(data[rows])


def dwt53_perforated(image: np.ndarray, stride: int,
                     levels: int = 1) -> np.ndarray:
    """Forward transform with loop perforation at ``stride``.

    Only every ``stride``-th line is processed in the row pass and in the
    column (transpose) pass — the paper's "loop perforation when
    processing and transposing pixels".  ``stride=1`` is precise.
    """
    coeffs = np.array(image, dtype=np.int64)
    h, w = coeffs.shape
    for _ in range(levels):
        sub = coeffs[:h, :w]
        _perforate_in_place(sub, stride)
        _perforate_in_place(sub.T, stride)
        h //= 2
        w //= 2
    return coeffs


class PerforatedDWTStage(IterativeStage):
    """The dwt53 forward stage, with vectorized multi-level batching.

    The stage fuses each run of :data:`~repro.core.stage.BATCH`
    perforation levels into one kernel call that computes the *row
    pass once* at the run's finest stride and derives every coarser
    stride's row pass from it by subsampling: ``dwt53_rows`` operates
    on each row independently, so when ``s_min`` divides ``s``,

        ``dwt53_rows(img[::s]) == dwt53_rows(img[::s_min])[::s//s_min]``

    holds bit-exactly (integer lifting).  The column pass cannot be
    shared — each stride's column input is its own row-pass output — so
    it stays per-level.  Outputs are bit-identical to the per-level
    path (the batch safety rule), which the ladder-equality
    conformance test enforces.

    Batching is enabled only at wavelet depth 1 (deeper transforms
    recurse into the approximation quadrant, which breaks the
    subsampling identity) and when every adjacent stride pair divides
    (true for the default geometric schedule).
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 inputs: tuple[VersionedBuffer, ...],
                 levels, strides: tuple[int, ...],
                 wavelet_levels: int = 1) -> None:
        super().__init__(name, output, inputs, levels)
        self.strides = tuple(strides)
        self.wavelet_levels = wavelet_levels
        self.supports_batch = (
            wavelet_levels == 1
            and all(a % b == 0
                    for a, b in zip(self.strides, self.strides[1:])))

    def batch_levels(self, values, start: int, count: int):
        img = np.asarray(values[0], dtype=np.int64)
        strides = self.strides[start:start + count]
        s_min = strides[-1]           # strides decrease; finest last
        rows_min = dwt53_rows(img[::s_min])
        outs = []
        for s in strides:
            if s == 1:
                row_passed = rows_min
            else:
                processed = rows_min[::s // s_min]
                owner = np.arange(img.shape[0]) // s
                owner = np.minimum(owner, processed.shape[0] - 1)
                row_passed = processed[owner]
            outs.append(_perforate_lines(row_passed.T, s).T)
        return outs


def build_dwt53_automaton(image: np.ndarray,
                          strides: tuple[int, ...] | None = None,
                          levels: int = 1) -> AnytimeAutomaton:
    """The dwt53 automaton: a single iterative perforated-forward stage.

    Per the paper, the automaton is the transform alone; the precise
    inverse is applied during *measurement* (see
    :func:`reconstruction_metric`), so accuracy reflects the inversed
    output relative to the original image.
    """
    image = np.asarray(image, dtype=np.uint8)
    schedule = StrideSchedule(strides or geometric_strides(8))
    n = image.size
    b_in = VersionedBuffer("input")
    b_coeffs = VersionedBuffer("coeffs")

    def level_fn(stride: int):
        return lambda img: dwt53_perforated(img, stride, levels=levels)

    # Perforated passes walk lines at a stride (poor locality); the final
    # stride-1 pass is the sequential precise computation.
    acc_levels = [
        AccuracyLevel(
            level_fn(s),
            cost=(2.0 * n / s * levels
                  * (access_penalty("strided") if s > 1 else 1.0)),
            label=f"stride={s}")
        for s in schedule.strides
    ]
    s_fwd = PerforatedDWTStage("forward", b_coeffs, (b_in,), acc_levels,
                               strides=schedule.strides,
                               wavelet_levels=levels)
    return AnytimeAutomaton([s_fwd], name="dwt53",
                            external={"input": image})


def reconstruct(coeffs: np.ndarray, levels: int = 1) -> np.ndarray:
    """Invert a coefficient version back to pixel space (clipped u8)."""
    return np.clip(_inverse(coeffs, levels), 0, 255).astype(np.uint8)


def reconstruction_metric(levels: int = 1):
    """Accuracy metric for dwt53 profiles: SNR of the precise inverse of
    each coefficient version against the original image."""
    from ..metrics.snr import snr_db

    def metric(coeffs: np.ndarray, original: np.ndarray) -> float:
        return snr_db(reconstruct(coeffs, levels=levels), original)

    return metric
