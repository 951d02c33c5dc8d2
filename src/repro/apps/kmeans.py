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

from typing import Any

import numpy as np

from ..anytime.coset import Coset, read_samples, write_samples
from ..anytime.fill import Painter, TreeFill
from ..anytime.permutations import TreePermutation
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.diffusive import DiffusiveStage
from ..core.stage import PreciseStage
from ..data.images import nearest_centre

__all__ = ["initial_centroids", "assign_pixels", "kmeans_precise",
           "kmeans_clustered", "build_kmeans_automaton",
           "KMeansAssignStage", "clustered_image_metric"]


def initial_centroids(image: np.ndarray, k: int) -> np.ndarray:
    """Deterministic centroid seeding: colour-space quantiles.

    Pixels are ranked by luma; centroid ``j`` is the mean colour of
    quantile band ``j`` — spread across the image's colour range without
    randomness, so runs are reproducible.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    flat = np.asarray(image, dtype=np.float64).reshape(-1, 3)
    luma = flat @ np.array([0.299, 0.587, 0.114])
    band = _luma_bands(luma, k)
    counts = np.bincount(band, minlength=k)
    # the pixels are whole numbers (callers pass uint8 images), so they
    # sum exactly in any order and sum / count is the band's mean to
    # the last bit
    sums = _sums(flat, band, k)
    return np.where(counts[:, None] > 0,
                    sums / np.maximum(counts, 1)[:, None], 128.0)


def _luma_bands(luma: np.ndarray, k: int) -> np.ndarray:
    """Band of each pixel when the pixels, ranked by luma with ties in
    index order (a stable sort), are split into ``k`` contiguous bands
    as :func:`numpy.array_split` splits them.

    One sort finds the luma at every band border (``np.partition`` with
    several borders reads the same order statistics four times slower).
    A pixel is past a border when it is brighter, or when it is tied
    with the border's luma and its index order among the tied pixels
    reaches the border.
    """
    n = luma.size
    sizes = np.full(k, n // k)
    sizes[:n % k] += 1
    borders = np.cumsum(sizes)[:-1]
    borders = borders[borders < n]
    band = np.zeros(n, dtype=np.intp)
    for border, value in zip(borders, np.sort(luma)[borders]):
        past = luma > value
        tied = np.flatnonzero(luma == value)
        below = n - tied.size - np.count_nonzero(past)
        past[tied[border - below:]] = True
        band += past
    return band


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
    counts = partial["counts"].astype(np.float64)
    safe = np.maximum(counts, 1.0)[:, None]
    fresh = partial["sums"] / safe
    prev = np.asarray(partial["centroids_in"], dtype=np.float64)
    centroids = np.where(partial["counts"][:, None] > 0, fresh, prev)
    palette = np.clip(centroids, 0, 255).astype(np.uint8)
    return {"centroids": centroids,
            # labels are always in [0, k): "clip" skips the bounds check
            "image": np.take(palette, partial["assign"], axis=0,
                             mode="clip")}


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


#: pixels per :func:`assign_pixels` call in :func:`kmeans_clustered`
_ASSIGN_BLOCK = 16384


def kmeans_clustered(image: np.ndarray, k: int = 6,
                     epochs: int = 1) -> dict[str, Any]:
    """The automaton's precise output: stage 2's ``{"centroids",
    "image"}`` after ``epochs`` whole-image passes, bit for bit."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    image = np.asarray(image, dtype=np.uint8)
    centroids = initial_centroids(image, k)
    pixels = image.reshape(-1, 3)
    for _ in range(epochs):
        # assign_pixels is pixel by pixel, so blocks give the same
        # labels; a block's few float64 planes stay in cache
        labels = np.concatenate([
            assign_pixels(pixels[i:i + _ASSIGN_BLOCK], centroids)
            for i in range(0, max(len(pixels), 1), _ASSIGN_BLOCK)])
        clustered = _reduce_and_recolour({
            "assign": labels.reshape(image.shape[:2]),
            "sums": _sums(pixels, labels, k),
            "counts": np.bincount(labels, minlength=k),
            "centroids_in": centroids})
        centroids = clustered["centroids"]
    return clustered


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
