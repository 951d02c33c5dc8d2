"""2D convolution (PERFECT ``2dconv``) — paper Figures 11, 16, 19, 20.

"2d convolution applies a convolutional kernel to spatially filter an
image; in our case, a blur filter is applied.  It consists of many dot
products, computed for each pixel. ... The application is simple in
structure, yielding an anytime automaton with a single diffusive stage.
We employ output sampling with a tree permutation in generating the
filtered image."

The stage computes output pixels in 2-D bit-reverse (tree) order; the
unsampled pixels are block-filled, so the output sharpens progressively
(Figure 16).  The reduced-precision (Figure 19) and approximate-storage
(Figure 20) variants quantize the pixel data and inject SRAM read upsets
into the gathered inputs, respectively.
"""

from __future__ import annotations

import numpy as np

from ..anytime.fill import TreeFill
from ..anytime.permutations import (Permutation, TreePermutation,
                                    sample_order)
from ..anytime.precision import quantize_to_bits
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.mapstage import MapStage
from ..hw.sram import flip_bits
from .stencil import EdgePadded, edge_padder

__all__ = ["blur_kernel", "conv2d_precise", "conv2d_elements",
           "build_conv2d_automaton", "sample_size_sweep"]


def blur_kernel(size: int = 9) -> np.ndarray:
    """An integer binomial blur kernel (odd ``size``), weights summing to
    a power of two so the normalization is an exact shift."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {size}")
    row = np.array([1], dtype=np.int64)
    for _ in range(size - 1):
        row = np.convolve(row, [1, 1])
    kernel = np.outer(row, row)
    return kernel


def _gather_taps(indices: np.ndarray, image: np.ndarray,
                 kernel: np.ndarray) -> np.ndarray:
    """Neighbourhood pixel values for each sampled output pixel.

    Returns an ``(n_taps, n_pixels)`` int64 array using clamped (edge-
    replicated) borders.  Only :func:`sample_size_sweep` materializes the
    taps: it upsets each gathered input bit before the dot products.
    """
    h, w = image.shape
    k = kernel.shape[0]
    off = k // 2
    rows = indices // w
    cols = indices % w
    taps = np.empty((k * k, len(indices)), dtype=np.int64)
    t = 0
    for dy in range(k):
        rr = np.clip(rows + dy - off, 0, h - 1)
        for dx in range(k):
            cc = np.clip(cols + dx - off, 0, w - 1)
            taps[t] = image[rr, cc]
            t += 1
    return taps


def _convolve(padded: EdgePadded, indices: np.ndarray,
              kernel: np.ndarray) -> np.ndarray:
    """Convolution outputs at flat pixel indices of ``padded``'s image:
    one gather and multiply-accumulate per tap, no tap matrix."""
    _, _, centres = padded.locate(indices)
    r = kernel.shape[0] // 2
    acc = np.zeros(len(centres), dtype=np.int64)
    for (dy, dx), weight in np.ndenumerate(kernel.astype(np.int64)):
        acc += weight * padded.flat[centres + padded.offset(dy - r, dx - r)]
    total = int(kernel.sum())
    return ((acc + total // 2) // total).astype(np.uint8)


def _check_kernel(kernel: np.ndarray | None) -> np.ndarray:
    """``kernel`` (default :func:`blur_kernel`) as an array, rejecting
    any shape but 2-D, square and odd-sized: the kernels centre every
    tap on the output pixel."""
    if kernel is None:
        return blur_kernel()
    kernel = np.asarray(kernel)
    if (kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]
            or kernel.shape[0] % 2 == 0):
        raise ValueError(f"kernel must be 2-D, square and odd-sized, "
                         f"got shape {kernel.shape}")
    return kernel


def conv2d_elements(indices: np.ndarray, image: np.ndarray,
                    kernel: np.ndarray) -> np.ndarray:
    """Convolution outputs at the given flat pixel indices (vectorized)."""
    kernel = _check_kernel(kernel)
    return _convolve(EdgePadded(image, kernel.shape[0] // 2), indices,
                     kernel)


def _integer_factors(weights: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray] | None:
    """``(col, row)`` integer vectors with ``outer(col, row) == weights``,
    or None when the integer kernel is not such an outer product."""
    nonzero = np.flatnonzero(weights.any(axis=1))
    if nonzero.size == 0:
        return None
    top = weights[nonzero[0]]
    row = top // np.gcd.reduce(top)
    pivot = np.flatnonzero(row)[0]
    col = weights[:, pivot] // row[pivot]
    if not np.array_equal(np.outer(col, row), weights):
        return None
    return col, row


def conv2d_precise(image: np.ndarray,
                   kernel: np.ndarray | None = None) -> np.ndarray:
    """Reference blur of the whole image, equal to
    ``conv2d_elements(np.arange(image.size), image, kernel)``.

    The sums run over shifted slices of the edge-padded int64 image: two
    1-D passes when the integer kernel is an outer product of integer
    vectors (every :func:`blur_kernel` is), else one slice per tap.
    Integer sums do not depend on their order, so every output pixel is
    the same integer the per-pixel gather computes.
    """
    image = np.asarray(image)
    kernel = _check_kernel(kernel)
    weights = kernel.astype(np.int64)
    k = weights.shape[0]
    h, w = image.shape
    padded = np.pad(image, k // 2, mode="edge").astype(np.int64)
    factors = _integer_factors(weights)
    if factors is not None:
        col, row = factors
        rows = row[0] * padded[:, :w]
        for dx in range(1, k):
            rows += row[dx] * padded[:, dx:dx + w]
        acc = col[0] * rows[:h]
        for dy in range(1, k):
            acc += col[dy] * rows[dy:dy + h]
    else:
        acc = np.zeros((h, w), dtype=np.int64)
        for (dy, dx), weight in np.ndenumerate(weights):
            acc += weight * padded[dy:dy + h, dx:dx + w]
    total = int(kernel.sum())
    return ((acc + total // 2) // total).astype(np.uint8)


def build_conv2d_automaton(image: np.ndarray,
                           kernel: np.ndarray | None = None,
                           chunks: int = 32,
                           permutation: Permutation | None = None,
                           prefetcher: bool = False,
                           reorder: bool = False,
                           pixel_bits: int = 8,
                           warm_start: np.ndarray | None = None,
                           ) -> AnytimeAutomaton:
    """The 2dconv anytime automaton: one diffusive output-sampled stage.

    ``pixel_bits < 8`` applies the reduced-precision variant: input pixels
    are truncated to their top bits before the dot products (Figure 19),
    which also cheapens each MAC in the cost model.
    """
    image = np.asarray(image, dtype=np.uint8)
    kernel = _check_kernel(kernel)
    if pixel_bits < 8:
        image = quantize_to_bits(image.astype(np.int64), pixel_bits,
                                 total_bits=8).astype(np.uint8)
    b_in = VersionedBuffer("input")
    b_out = VersionedBuffer("filtered")

    padded = edge_padder(kernel.shape[0] // 2)

    def element_fn(indices: np.ndarray, img: np.ndarray) -> np.ndarray:
        return _convolve(padded(img), indices, kernel)

    taps = kernel.size
    stage = MapStage(
        "conv", b_out, (b_in,), element_fn,
        shape=image.shape, dtype=np.uint8,
        permutation=permutation or TreePermutation(),
        fill=TreeFill(spatial_ndim=2),
        chunks=chunks,
        cost_per_element=taps * (pixel_bits / 8.0),
        prefetcher=prefetcher, reorder=reorder,
        warm_start=warm_start)
    return AnytimeAutomaton([stage], name="2dconv",
                            external={"input": image})


def sample_size_sweep(image: np.ndarray,
                      pixel_bits: int = 8,
                      read_upset_prob: float = 0.0,
                      sample_sizes: list[int] | None = None,
                      kernel: np.ndarray | None = None,
                      seed: int = 0) -> list[tuple[int, float]]:
    """Accuracy as a function of tree-sample size (Figures 19 and 20).

    Computes output pixels in tree order, optionally on reduced-precision
    pixels (``pixel_bits``) and through a drowsy SRAM that upsets each
    gathered input bit with ``read_upset_prob`` per read.  Returns
    ``(sample_size, snr_db)`` rows against the full-precision, upset-free
    precise output.  Error composition matches the paper's setup: flips
    are proportional to elements processed, so the reduced curves overlay
    the nominal one at small sample sizes.
    """
    from ..metrics.snr import snr_db

    image = np.asarray(image, dtype=np.uint8)
    kernel = _check_kernel(kernel)
    reference = conv2d_precise(image, kernel)
    work_image = image
    if pixel_bits < 8:
        work_image = quantize_to_bits(
            image.astype(np.int64), pixel_bits, 8).astype(np.uint8)
    n = image.size
    if sample_sizes is None:
        sample_sizes = [4 ** k for k in range(1, 1 + int(
            np.log2(max(image.shape)))) ] + [n]
        sample_sizes = sorted({min(s, n) for s in sample_sizes})
    order = sample_order(TreePermutation(), image.shape)
    rng = np.random.default_rng(seed)
    dense = np.zeros(image.shape, dtype=np.uint8)
    painter = TreeFill(spatial_ndim=2).start(dense, order)
    weights = kernel.reshape(-1, 1).astype(np.int64)
    total = int(kernel.sum())
    rows: list[tuple[int, float]] = []
    done = 0
    for size in sample_sizes:
        size = min(size, n)
        if size > done:
            idx = order[done:size]
            taps = _gather_taps(idx, work_image.astype(np.int64), kernel)
            if read_upset_prob > 0.0:
                taps = flip_bits(taps, read_upset_prob, pixel_bits, rng)
            acc = (taps * weights).sum(axis=0)
            vals = np.clip((acc + total // 2) // total, 0, 255)
            dense.reshape(-1)[idx] = vals.astype(np.uint8)
            done = size
        approx = painter.advance(done)
        rows.append((done, snr_db(approx, reference)))
    return rows
