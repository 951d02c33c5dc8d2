"""Histogram equalization (PERFECT ``histeq``) — paper Figure 12.

"We construct an automaton with four computation stages in an
asynchronous pipeline.  The first stage is diffusive; it builds a
histogram of pixel values using anytime pseudo-random input sampling ...
The second and third stages are not anytime; they construct a normalized
cumulative distribution function from the histogram.  The fourth
diffusive stage generates the high-contrast image using tree-based output
sampling."

The non-anytime middle stages are what makes histeq's time-to-precise
high (~6x baseline in the paper): every fresh histogram version ripples
through CDF -> LUT -> a full re-run of the apply stage.
"""

from __future__ import annotations

import numpy as np

from ..anytime.fill import TreeFill
from ..anytime.permutations import LfsrPermutation, TreePermutation
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.mapstage import MapStage
from ..core.reduction import ReductionStage
from ..core.stage import PreciseStage
from ..data.images import row_blocks

__all__ = ["histogram", "lut_from_cdf", "equalization_lut",
           "histeq_precise", "build_histeq_automaton"]

_BINS = 256


def histogram(image: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram (float counts) of a uint8 image,
    counted a block of pixels at a time."""
    pixels = np.asarray(image, dtype=np.uint8).reshape(-1)
    counts = np.zeros(_BINS, dtype=np.int64)
    for block in row_blocks(len(pixels), 1):
        counts += np.bincount(pixels[block], minlength=_BINS)
    return counts.astype(np.float64)


def lut_from_cdf(cdf: np.ndarray) -> np.ndarray:
    """Normalize a cumulative distribution into a 0..255 remap table.

    Works on weighted (non-integer) CDF estimates too — the anytime
    pipeline feeds it sampled histograms scaled by ``n / i``.
    """
    cdf = np.asarray(cdf, dtype=np.float64)
    total = cdf[-1]
    if total <= 0:
        return np.arange(_BINS, dtype=np.uint8)
    nonzero = cdf[cdf > 0]
    cdf_min = float(nonzero[0]) if nonzero.size else 0.0
    denom = total - cdf_min
    if denom <= 0:
        return np.full(_BINS, 255, dtype=np.uint8)
    lut = np.round((cdf - cdf_min) / denom * 255.0)
    return np.clip(lut, 0, 255).astype(np.uint8)


def equalization_lut(hist: np.ndarray) -> np.ndarray:
    """Intensity remap table from a (possibly estimated) histogram."""
    return lut_from_cdf(np.cumsum(np.asarray(hist, dtype=np.float64)))


def histeq_precise(image: np.ndarray) -> np.ndarray:
    """Reference equalized image."""
    image = np.asarray(image, dtype=np.uint8)
    lut = equalization_lut(histogram(image))
    return lut[image]


def build_histeq_automaton(image: np.ndarray, chunks: int = 32,
                           prefetcher: bool = False,
                           restart_policy: str = "complete",
                           ) -> AnytimeAutomaton:
    """The four-stage histeq automaton of paper Section IV-A2.

    ``restart_policy`` applies to the apply stage: ``"preempt"`` abandons
    an in-flight output pass as soon as a newer LUT version is available,
    trading some intermediate outputs for an earlier precise finish.
    """
    image = np.asarray(image, dtype=np.uint8)
    n = image.size
    b_in = VersionedBuffer("input")
    b_hist = VersionedBuffer("hist")
    b_cdf = VersionedBuffer("cdf")
    b_lut = VersionedBuffer("lut")
    b_out = VersionedBuffer("equalized")

    def hist_chunk(indices: np.ndarray, img: np.ndarray) -> np.ndarray:
        return np.bincount(
            img.reshape(-1)[indices].astype(np.int64),
            minlength=_BINS).astype(np.float64)

    # Stage 1 (diffusive): pseudo-random input-sampled histogram, with
    # n/i weighting since addition is not idempotent (paper Figure 3).
    s_hist = ReductionStage(
        "hist", b_hist, (b_in,), hist_chunk,
        shape=n, out_shape=(_BINS,), dtype=np.float64, operator="add",
        permutation=LfsrPermutation(seed=1), weighted_output=True,
        chunks=chunks, cost_per_element=1.0, prefetcher=prefetcher)

    # Stages 2 and 3 (non-anytime): cumulative distribution + normalize.
    s_cdf = PreciseStage("cdf", b_cdf, (b_hist,),
                         lambda h: np.cumsum(h), cost=float(_BINS))
    s_lut = PreciseStage("lut", b_lut, (b_cdf,), lut_from_cdf,
                         cost=float(_BINS))

    # Stage 4 (diffusive): tree output-sampled application of the LUT.
    def apply_chunk(indices: np.ndarray, lut: np.ndarray,
                    img: np.ndarray) -> np.ndarray:
        return lut[img.reshape(-1)[indices]]

    s_apply = MapStage(
        "apply", b_out, (b_lut, b_in), apply_chunk,
        shape=image.shape, dtype=np.uint8,
        permutation=TreePermutation(), fill=TreeFill(spatial_ndim=2),
        chunks=chunks, cost_per_element=1.0, prefetcher=prefetcher,
        restart_policy=restart_policy)

    return AnytimeAutomaton([s_hist, s_cdf, s_lut, s_apply],
                            name="histeq", external={"input": image})
