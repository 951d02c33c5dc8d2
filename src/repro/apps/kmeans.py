"""K-means clustering (AxBench ``kmeans``) — paper Figures 15, 18.

"We construct an automaton with two stages in an asynchronous pipeline.
The first stage computes the cluster centroids and assigns pixels to
clusters based on their Euclidean distances.  This is diffusive; we
employ anytime output sampling with a tree permutation.  The second
(non-anytime) stage reduces the centroid computations of the multiple
threads from the previous stage."

Stage 1 samples pixels in tree order, assigning each to the nearest
centroid while accumulating per-cluster colour sums and counts (the
"thread-privatized" partials).  Stage 2 reduces the partials into updated
centroids — valid at any sample size, no weighting needed since the mean
is ``sums / counts`` — and recolours the assignment image with them: that
clustered image is the application output whose SNR the figures report.

Because stage 2 re-executes per assignment version, its core share
controls the gap between whole-application outputs; the kmeans benchmark
uses the final-stage scheduling policy (paper Section IV-C2) for exactly
this reason.  ``epochs > 1`` chains additional assign/reduce pairs (an
extension beyond the paper's single pass).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from ..anytime.coset import Coset, read_samples, write_samples
from ..anytime.fill import Painter, TreeFill
from ..anytime.permutations import TreePermutation
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.diffusive import DiffusiveStage
from ..core.stage import PreciseStage
from ..data.images import nearest_centre, row_blocks

__all__ = ["initial_centroids", "assign_pixels", "kmeans_precise",
           "kmeans_clustered", "build_kmeans_automaton",
           "KMeansAssignStage", "clustered_image_metric"]


def initial_centroids(image: np.ndarray, k: int) -> np.ndarray:
    """Deterministic centroid seeding: colour-space quantiles.

    Pixels are ranked by luma; centroid ``j`` is the mean colour of
    quantile band ``j`` — spread across the image's colour range without
    randomness, so runs are reproducible.  The pixels are ``uint8``.

    The bands and their sums are found in passes over blocks of pixels
    (:func:`_luma_bands`); a band's colour sum is an integer histogram
    of its pixels, so ``sum / count`` is the band's mean to the last
    bit, as summing the pixels in any order would give it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pixels = _pixels(image)
    histograms = np.zeros((3, k * 256), dtype=np.int64)
    for block, band in _luma_bands(lambda: _lumas(pixels), len(pixels),
                                   k):
        _add_histograms(histograms, band, pixels[block])
    sums, counts = _sums_and_counts(histograms, k)
    return np.where(counts[:, None] > 0,
                    sums / np.maximum(counts, 1)[:, None], 128.0)


def _pixels(image: np.ndarray) -> np.ndarray:
    """``image``'s ``uint8`` pixels as an ``(n, 3)`` list."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise TypeError(f"kmeans takes uint8 pixels, got {image.dtype}")
    return image.reshape(-1, 3)


#: an RGB pixel's luma weights
_LUMA = np.array([0.299, 0.587, 0.114])

#: luma buckets per unit of luma: a uint8 pixel's luma is below 256
_BUCKETS_PER_UNIT = 64


def _lumas(pixels: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """``(block, luma)`` over the blocks of ``(n, 3)`` uint8 pixels:
    the float64 luma of each, the bits of one product over them all.

    Every row of a matrix-vector product rounds alike, but a one-row
    product takes another path: a block of one pixel is computed with
    a pixel beside it.
    """
    for block in row_blocks(len(pixels), 1):
        start = max(min(block.start, len(pixels) - 2), 0)
        stop = max(block.stop, start + 2)
        luma = pixels[start:stop].astype(np.float64) @ _LUMA
        yield block, luma[block.start - start:block.stop - start]


def _bucket(luma: np.ndarray) -> np.ndarray:
    """The bucket of each luma: monotone in the luma."""
    return (luma * _BUCKETS_PER_UNIT).astype(np.intp)


def _luma_bands(lumas: Callable[[], Iterator[tuple[slice, np.ndarray]]],
                n: int, k: int) -> Iterator[tuple[slice, np.ndarray]]:
    """``(block, band)`` over the blocks ``lumas()`` yields with the
    lumas, below 256, of ``n`` pixels: the band of each pixel when the
    pixels, ranked by luma with ties in index order (a stable sort),
    are split into ``k`` contiguous bands as :func:`numpy.array_split`
    splits them.

    A pixel is past a border when it is brighter than the luma at the
    border's rank, or tied with it and its index order among the tied
    pixels reaches the border (:func:`_border_marks`).  This pass
    counts each border's tied pixels across blocks.
    """
    marks = _border_marks(lumas, n, k)
    seen = [0] * len(marks)
    dtype = np.min_scalar_type(k - 1)
    for block, luma in lumas():
        band = np.zeros(len(luma), dtype=dtype)
        for j, (value, quota) in enumerate(marks):
            band += luma > value
            tied = np.flatnonzero(luma == value)
            band[tied[max(quota - seen[j], 0):]] += 1
            seen[j] += len(tied)
        yield block, band


def _border_marks(lumas: Callable[[], Iterator[tuple[slice, np.ndarray]]],
                  n: int, k: int) -> list[tuple[float, int]]:
    """``(luma, quota)`` of each band border: the luma at the border's
    rank, and how many of the pixels of that luma lie below the border.

    Two passes and no sort of the image: a histogram of luma buckets
    places each border in a bucket, then the distinct lumas of those
    buckets, with their counts, place it at a luma.
    """
    sizes = np.full(k, n // k)
    sizes[:n % k] += 1
    borders = np.cumsum(sizes)[:-1]
    borders = borders[borders < n]
    counts = np.zeros(256 * _BUCKETS_PER_UNIT, dtype=np.int64)
    for _, luma in lumas():
        counts += np.bincount(_bucket(luma), minlength=len(counts))
    ends = np.cumsum(counts)
    wanted = np.zeros(len(counts), dtype=bool)
    wanted[np.searchsorted(ends, borders, side="right")] = True
    # the distinct lumas of the wanted buckets, ascending, and how many
    # pixels have each
    values, tally = np.empty(0), np.empty(0, dtype=np.int64)
    for _, luma in lumas():
        more, times = np.unique(luma[wanted[_bucket(luma)]],
                                return_counts=True)
        values, inverse = np.unique(np.concatenate([values, more]),
                                    return_inverse=True)
        tally = np.bincount(inverse, np.concatenate([tally, times]),
                            len(values)).astype(np.int64)
    # pixels below each distinct luma: those below its bucket, and those
    # of its bucket's smaller lumas
    owner = _bucket(values)
    before = np.cumsum(tally) - tally
    below = (ends[owner] - counts[owner] + before
             - before[np.searchsorted(owner, owner)])
    at = np.searchsorted(below, borders, side="right") - 1
    return list(zip(values[at], borders - below[at]))


def assign_pixels(pixels: np.ndarray,
                  centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid (squared Euclidean) per pixel, over
    the last axis of ``pixels`` (an ``(n, 3)`` list or an ``(h, w, 3)``
    grid), shaped like the pixels less that axis.

    It is :func:`~repro.data.images.nearest_centre` over the pixels'
    float64 channel planes: a running minimum whose float64 distances
    and first-index tie rule are those of an ``argmin`` over an
    ``(n, k)`` distance array.
    """
    pixels = np.asarray(pixels)
    centroids = np.asarray(centroids, dtype=np.float64)
    planes = [pixels[..., ch].astype(np.float64)
              for ch in range(centroids.shape[1])]
    return nearest_centre(planes, centroids)


def _sums(pixels: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster colour sums, ``(k, channels)`` float64, accumulated in
    pixel order (so equal to ``np.add.at`` into zeros)."""
    return np.stack([np.bincount(labels, weights=pixels[:, ch],
                                 minlength=k)
                     for ch in range(pixels.shape[1])], axis=1)


def _add_histograms(histograms: np.ndarray, labels: np.ndarray,
                    pixels: np.ndarray) -> None:
    """Count each ``(label, value)`` pair of ``(n, channels)`` uint8
    ``pixels`` into ``histograms``, one ``k * 256`` int64 row per
    channel, at ``label * 256 + value``."""
    base = labels.astype(np.intp)
    base *= 256
    for ch, row in enumerate(histograms):
        row += np.bincount(base + pixels[:, ch], minlength=len(row))


def _sums_and_counts(histograms: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-label colour sums, ``(k, channels)`` float64, and pixel
    counts from :func:`_add_histograms`' tallies.  The sums are exact
    integers, so they are the bits any order of adding the pixels
    gives."""
    per_label = histograms.reshape(len(histograms), k, 256)
    sums = (per_label @ np.arange(256, dtype=np.int64)).T
    return sums.astype(np.float64), per_label[0].sum(axis=1)


class KMeansAssignStage(DiffusiveStage):
    """Diffusive pixel assignment with partial-centroid accumulation.

    State: the dense assignment image (persists across passes — stale
    assignments from the previous centroid version remain valid
    approximations) plus per-cluster colour sums and counts, which reset
    every pass (they would double-count otherwise).
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 centroids_in: VersionedBuffer, image_in: VersionedBuffer,
                 image_shape: tuple[int, int], k: int,
                 chunks: int = 32, prefetcher: bool = False) -> None:
        super().__init__(
            name, output, (centroids_in, image_in),
            shape=image_shape, permutation=TreePermutation(),
            chunks=chunks, cost_per_element=4.0 * k,
            prefetcher=prefetcher)
        self.k = k
        self.fill = TreeFill(spatial_ndim=2)
        # assignment is elementwise in the pixels, so several chunks can
        # be assigned in one vectorized pass; the per-chunk accumulator
        # updates (bincount) still run level by level in
        # apply_chunk, keeping every published partial bit-identical
        self.supports_batch = True
        # pixels are read, and labels written, through sample sets
        self.reads_cosets = True

    def init_state(self, values: tuple[Any, ...]) -> dict[str, Any]:
        prev = self._state
        assign = (prev["assign"] if prev is not None
                  else np.zeros(self.shape, dtype=np.int64))
        return {"assign": assign,
                "sums": np.zeros((self.k, 3), dtype=np.float64),
                "counts": np.zeros(self.k, dtype=np.int64)}

    def batch_chunks(self, state: dict[str, Any],
                     samples: Coset | np.ndarray,
                     values: tuple[Any, ...]) -> tuple[np.ndarray,
                                                       np.ndarray]:
        centroids, image = values
        pixels = read_samples(np.asarray(image), samples, 2)
        return pixels, assign_pixels(pixels, centroids)

    def apply_chunk(self, state: dict[str, Any],
                    samples: Coset | np.ndarray,
                    batch: tuple[np.ndarray, np.ndarray],
                    at: tuple[slice, ...],
                    values: tuple[Any, ...]) -> Any:
        pixels, labels = batch[0][at], batch[1][at]
        write_samples(state["assign"], samples, labels, 2)
        # pixels are integers, so adding the chunk's sums is exact, and
        # in any order: a coset's raster order gives the same bits
        flat = labels.reshape(-1)
        state["sums"] += _sums(pixels.reshape(-1, 3), flat, self.k)
        state["counts"] += np.bincount(flat, minlength=self.k)
        return (samples, labels)

    def materialize(self, state: dict[str, Any], count: int,
                    values: tuple[Any, ...]) -> dict[str, Any]:
        if count >= self.n_elements or self._completed_passes > 0:
            assign = state["assign"].copy()
        else:
            assign = self._painter.advance(count)
        return {"assign": assign,
                "sums": state["sums"].copy(),
                "counts": state["counts"].copy(),
                "centroids_in": values[0]}

    def start_painter(self, state: dict[str, Any]) -> Painter:
        return self.fill.start(state["assign"], self.order)

    def warm(self) -> None:
        super().warm()
        self.fill.warm(self.order, self.shape, self.chunk_spans)

    def precise(self, input_values: dict[str, Any]) -> dict[str, Any]:
        centroids = input_values[self.inputs[0].name]
        image = input_values[self.inputs[1].name]
        pixels = np.asarray(image).reshape(-1, 3)
        labels = assign_pixels(pixels, centroids)
        return {"assign": labels.reshape(self.shape),
                "sums": _sums(pixels, labels, self.k),
                "counts": np.bincount(labels, minlength=self.k),
                "centroids_in": centroids}


def _reduce_and_recolour(partial: dict[str, Any]) -> dict[str, Any]:
    """Stage 2: centroids from the partial sums; recoloured image.

    Empty clusters keep the centroid the assignment pass used.
    """
    centroids = _updated(partial["sums"], partial["counts"],
                         partial["centroids_in"])
    return {"centroids": centroids,
            # labels are always in [0, k): "clip" skips the bounds check
            "image": np.take(_palette(centroids), partial["assign"],
                             axis=0, mode="clip")}


def _updated(sums: np.ndarray, counts: np.ndarray,
             prev: np.ndarray) -> np.ndarray:
    """The centroids a pass's sums and counts make; an empty cluster
    keeps ``prev``, the centroid the pass assigned with."""
    safe = np.maximum(counts.astype(np.float64), 1.0)[:, None]
    return np.where(counts[:, None] > 0, sums / safe,
                    np.asarray(prev, dtype=np.float64))


def _palette(centroids: np.ndarray) -> np.ndarray:
    """The uint8 colour each cluster is painted."""
    return np.clip(centroids, 0, 255).astype(np.uint8)


def clustered_image_metric(value: dict[str, Any],
                           reference: Any) -> float:
    """SNR of the clustered image inside the stage-2 output dict.

    ``reference`` may be the precise stage-2 dict or a bare image array
    (e.g. from :func:`kmeans_precise`).
    """
    from ..metrics.snr import snr_db

    if isinstance(reference, dict):
        reference = reference["image"]
    return snr_db(value["image"], reference)


def kmeans_clustered(image: np.ndarray, k: int = 6,
                     epochs: int = 1) -> dict[str, Any]:
    """The automaton's precise output: stage 2's ``{"centroids",
    "image"}`` after ``epochs`` whole-image passes, bit for bit.

    Each pass assigns the pixels a block at a time (assignment is pixel
    by pixel, so blocks give the same labels) and tallies each label's
    colours as integer histograms; the labels are kept in the smallest
    integer type that holds ``k``, and the image is painted from them
    a block at a time.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    image = np.asarray(image, dtype=np.uint8)
    centroids = initial_centroids(image, k)
    pixels = image.reshape(-1, 3)
    labels = np.empty(len(pixels), dtype=np.min_scalar_type(k - 1))
    for _ in range(epochs):
        histograms = np.zeros((3, k * 256), dtype=np.int64)
        for block in row_blocks(len(pixels), 1):
            labels[block] = assign_pixels(pixels[block], centroids)
            _add_histograms(histograms, labels[block], pixels[block])
        centroids = _updated(*_sums_and_counts(histograms, k), centroids)
    palette = _palette(centroids)
    clustered = np.empty(image.shape, dtype=np.uint8)
    painted = clustered.reshape(-1, 3)
    for block in row_blocks(len(pixels), 1):
        np.take(palette, labels[block], axis=0, mode="clip",
                out=painted[block])
    return {"centroids": centroids, "image": clustered}


def kmeans_precise(image: np.ndarray, k: int = 6,
                   epochs: int = 1) -> np.ndarray:
    """Reference clustered image (same epoch count as the automaton)."""
    return kmeans_clustered(image, k, epochs)["image"]


def build_kmeans_automaton(image: np.ndarray, k: int = 6,
                           epochs: int = 1, chunks: int = 32,
                           prefetcher: bool = False) -> AnytimeAutomaton:
    """The two-stage kmeans automaton (times ``epochs``)."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    image = np.asarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    n = h * w
    b_img = VersionedBuffer("image")
    b_c0 = VersionedBuffer("centroids0")
    stages = []
    prev_c = b_c0
    for e in range(1, epochs + 1):
        b_a = VersionedBuffer(f"partial{e}")
        b_r = VersionedBuffer(f"clustered{e}" if e == epochs
                              else f"reduced{e}")
        assign = KMeansAssignStage(f"assign{e}", b_a, prev_c, b_img,
                                   image_shape=(h, w), k=k,
                                   chunks=chunks, prefetcher=prefetcher)
        reduce_ = PreciseStage(f"reduce{e}", b_r, (b_a,),
                               _reduce_and_recolour,
                               cost=float(n + 3 * k))
        stages += [assign, reduce_]
        if e < epochs:
            # Chain epochs on the centroids: a light extraction stage
            # exposes them as the next assign's input buffer.
            b_c = VersionedBuffer(f"centroids{e}")
            stages.append(PreciseStage(
                f"centroids{e}", b_c, (b_r,),
                lambda r: r["centroids"], cost=float(3 * k)))
            prev_c = b_c
    return AnytimeAutomaton(
        stages, name="kmeans",
        external={"image": image,
                  "centroids0": initial_centroids(image, k)})
