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

from ..anytime.coset import Coset, reads_cosets
from ..anytime.fill import TreeFill
from ..anytime.permutations import (Permutation, TreePermutation,
                                    sample_order)
from ..anytime.precision import quantize_to_bits
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.mapstage import MapStage
from ..data.images import row_blocks
from ..hw.sram import flip_bits
from .stencil import FactoredPadded, edge_padder

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


def _check_kernel(kernel: np.ndarray | None) -> np.ndarray:
    """``kernel`` (default :func:`blur_kernel`) as an int64 array.

    Rejects any shape but 2-D, square and odd-sized (the kernels centre
    every tap on the output pixel), weights that are not whole numbers
    (the kernels sum integer taps exactly, so a box blur of ``1/9``
    weights would truncate to zeros) and a sum that is not positive
    (the kernels divide by it).
    """
    if kernel is None:
        return blur_kernel()
    kernel = np.asarray(kernel)
    if (kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]
            or kernel.shape[0] % 2 == 0):
        raise ValueError(f"kernel must be 2-D, square and odd-sized, "
                         f"got shape {kernel.shape}")
    if kernel.dtype.kind not in "biuf" or not (
            np.isfinite(kernel).all()
            and (kernel == np.round(kernel)).all()):
        raise ValueError(f"kernel weights must be whole numbers, "
                         f"got {kernel.tolist()}")
    weights = kernel.astype(np.int64)
    if weights.sum() <= 0:
        raise ValueError(f"kernel weights must sum to more than 0, "
                         f"got {int(weights.sum())}")
    return weights


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


def _factors(weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Integer ``(col, row)`` vectors whose outer products sum to
    ``weights``: one factor for a separable kernel (every
    :func:`blur_kernel`), else one per kernel row, ``(e_dy, w[dy])``."""
    separable = _integer_factors(weights)
    if separable is not None:
        return [separable]
    unit = np.eye(len(weights), dtype=np.int64)
    return list(zip(unit, weights))


class _Filter:
    """A checked kernel as its :func:`_factors` and normalising total."""

    def __init__(self, kernel: np.ndarray | None) -> None:
        weights = _check_kernel(kernel)
        self.size = weights.size
        self.radius = weights.shape[0] // 2
        self.total = int(weights.sum())
        self.factors = _factors(weights)

    def padded(self, image: np.ndarray,
               rows: slice | None = None) -> FactoredPadded:
        """``image``, or the slab of its ``rows``, padded for this
        kernel, with its column cache."""
        return FactoredPadded(image, self.radius, self.factors, rows)

    def _normalise(self, acc: np.ndarray) -> np.ndarray:
        return ((acc + self.total // 2) // self.total).astype(np.uint8)

    def at(self, padded: FactoredPadded,
           samples: Coset | np.ndarray) -> np.ndarray:
        """Outputs at a sample set of ``padded``'s image."""
        return self._normalise(padded.sums(samples))


def conv2d_elements(indices: Coset | np.ndarray, image: np.ndarray,
                    kernel: np.ndarray) -> np.ndarray:
    """Convolution outputs at the given flat pixel indices, or at a
    coset of the image, shaped like the sample set (vectorized)."""
    conv = _Filter(kernel)
    return conv.at(conv.padded(image), indices)


def conv2d_precise(image: np.ndarray,
                   kernel: np.ndarray | None = None) -> np.ndarray:
    """Reference blur of the whole image, equal to
    ``conv2d_elements(np.arange(image.size), image, kernel)``.

    It is the element kernel on row slabs of the image
    (:func:`~repro.data.images.row_blocks`), each padded by the kernel's
    radius of its neighbouring rows and read as one stride-1 coset: the
    factors run over whole slab columns and slices.  Integer sums do
    not depend on their order or grouping, so every output pixel is the
    same integer the per-pixel gather computes.
    """
    image = np.asarray(image)
    conv = _Filter(kernel)
    out = np.empty(image.shape, dtype=np.uint8)
    for rows in row_blocks(*image.shape):
        slab = conv.padded(image, rows)
        out[rows] = conv.at(slab, Coset.whole((slab.height, slab.width)))
    return out


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
    conv = _Filter(kernel)
    if pixel_bits < 8:
        image = quantize_to_bits(image.astype(np.int64), pixel_bits,
                                 total_bits=8).astype(np.uint8)
    b_in = VersionedBuffer("input")
    b_out = VersionedBuffer("filtered")

    padded = edge_padder(conv.padded)

    @reads_cosets
    def element_fn(samples: Coset | np.ndarray,
                   img: np.ndarray) -> np.ndarray:
        return conv.at(padded(img), samples)

    stage = MapStage(
        "conv", b_out, (b_in,), element_fn,
        shape=image.shape, dtype=np.uint8,
        permutation=permutation or TreePermutation(),
        fill=TreeFill(spatial_ndim=2),
        chunks=chunks,
        cost_per_element=conv.size * (pixel_bits / 8.0),
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
