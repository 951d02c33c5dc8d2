"""Fill policies for output sampling.

An output-sampled map stage (paper Section III-B2, "Output Sampling") has
computed only a prefix of its output elements at any instant.  The output
buffer must nonetheless always hold a *valid, whole* approximation of the
output (that is the entire point of the model), so the unsampled elements
are filled from the sampled ones.

For the tree permutation the natural fill is **progressive resolution**
(paper Figure 5): after ``4**k`` samples of a 2-D output, each sample owns
a ``(rows / 2**k) x (cols / 2**k)`` block and the output looks like a
``2**k x 2**k`` image upscaled — exactly the visualization the paper shows.
:class:`TreeFill` implements this block-replication fill.

For unordered (pseudo-random) sampling, :class:`NearestFill` fills each
missing element from its nearest computed neighbour, and
:class:`ConstantFill` / :class:`MeanFill` provide cheap alternatives.
"""

from __future__ import annotations

import numpy as np

from .permutations import _widths, order_levels, sample_levels

__all__ = ["FillPolicy", "Painter", "TreeFill", "TreePainter",
           "NearestFill", "ConstantFill", "MeanFill", "sample_levels"]


class FillPolicy:
    """Strategy for completing a partially sampled output.

    Subclasses implement :meth:`fill`.

    Parameters common to :meth:`fill`:

    - ``dense`` — the stage's internal output array (full shape); entries at
      ``order[:count]`` (flat indices into the leading ``spatial_ndim``
      axes) hold computed values, the rest are stale/uninitialized.
    - ``order`` — the sampling permutation (flat indices).
    - ``count`` — how many samples have been computed so far.

    ``fill`` returns a new array of the same shape with every element
    holding a valid approximation.  It must not modify ``dense``.

    A stage publishing a pass's versions calls :meth:`start` once per
    pass and :meth:`Painter.advance` once per version instead, which lets
    a policy keep work between versions (:class:`TreeFill` does).
    """

    #: how many leading axes of ``dense`` the permutation indexes
    spatial_ndim: int | None = None

    def fill(self, dense: np.ndarray, order: np.ndarray,
             count: int) -> np.ndarray:
        raise NotImplementedError

    def start(self, dense: np.ndarray, order: np.ndarray) -> "Painter":
        """A painter for one pass that samples into ``dense`` in
        ``order``.  ``dense`` is read again at every advance, so the
        caller keeps writing its samples into the same array."""
        return Painter(self, dense, order)


class Painter:
    """One pass's fill: :meth:`advance` returns what
    :meth:`FillPolicy.fill` returns for the first ``count`` samples.

    This base painter keeps nothing between calls: every advance fills
    from the whole prefix.
    """

    def __init__(self, policy: FillPolicy, dense: np.ndarray,
                 order: np.ndarray) -> None:
        self.policy = policy
        self.dense = dense
        self.order = order

    def advance(self, count: int) -> np.ndarray:
        return self.policy.fill(self.dense, self.order, count)


def _spatial_shape(dense: np.ndarray, order: np.ndarray,
                   spatial_ndim: int | None) -> tuple[int, ...]:
    """Infer which leading axes of ``dense`` the flat ``order`` indexes."""
    if spatial_ndim is not None:
        shape = dense.shape[:spatial_ndim]
    else:
        shape = dense.shape
    n = int(np.prod(shape)) if shape else 1
    if n != len(order):
        raise ValueError(
            f"order length {len(order)} does not match spatial shape "
            f"{shape} of dense array {dense.shape}")
    return shape


def _upsample(grid: np.ndarray, log2_factors: list[int]) -> np.ndarray:
    """Repeat each cell of ``grid`` ``2**f`` times along spatial axis d."""
    for d, f in enumerate(log2_factors):
        if f:
            grid = np.repeat(grid, 1 << f, axis=d)
    return grid


class TreeFill(FillPolicy):
    """Progressive-resolution block fill for tree-sampled outputs.

    Each computed sample paints the block of output elements it owns at its
    level; finer levels overwrite coarser ones, so the filled output is the
    paper's progressively-sharpening image.  Works for any number of
    spatial dimensions; ``spatial_ndim`` selects how many leading axes the
    permutation indexes (e.g. 2 for an RGB image sampled per pixel).

    The painting is :class:`TreePainter`'s, which keeps its grid from
    one version of a pass to the next; :meth:`fill` is a new painter
    advanced once.
    """

    def __init__(self, spatial_ndim: int | None = None) -> None:
        self.spatial_ndim = spatial_ndim

    def start(self, dense: np.ndarray, order: np.ndarray) -> "TreePainter":
        return TreePainter(self, dense, order)

    def fill(self, dense: np.ndarray, order: np.ndarray,
             count: int) -> np.ndarray:
        return self.start(dense, order).advance(count)


class TreePainter(Painter):
    """:class:`TreeFill`'s painter: a grid onto which each advance
    paints only the samples that are new since the last one.

    The grid has one cell per block of the finest level painted so
    far, over the output padded to a power of two along every spatial
    axis; a level-k coordinate is a multiple of its block, so
    ``c >> shift`` is its cell.  An advance paints
    ``order[painted:count]`` one level at a time, coarsest first.  A
    level finer than the grid first refines it, repeating each cell
    over the finer cells it covers (once per level and pass, not per
    version); the level's samples then land on their cells, over the
    coarser values there.  Per-sample levels come from
    :func:`~repro.anytime.permutations.order_levels`, which keeps them
    beside the memoised order they describe.

    Painting onto what is there gives the fill of the whole prefix as
    long as no new sample is coarser than the grid, which holds at
    every advance along a tree permutation.  When it does not (a
    non-tree order), or when ``count`` falls below what is painted, the
    painter starts a blank grid and paints the prefix afresh.

    :meth:`advance` returns the grid repeated up to full resolution and
    cropped, always a new array: a stage's ``Write`` hands it to its
    buffer, which freezes it as the published version, while the next
    advance paints the grid again.
    """

    def __init__(self, policy: TreeFill, dense: np.ndarray,
                 order: np.ndarray) -> None:
        super().__init__(policy, dense, order)
        self.shape = _spatial_shape(dense, order, policy.spatial_ndim)
        self.trailing = dense.shape[len(self.shape):]
        self.widths = _widths(self.shape)
        self.levels, self.at_or_below = order_levels(order, self.shape)
        self._blank()

    def _blank(self) -> None:
        self.level = 0
        self.grid = np.zeros((1,) * len(self.shape) + self.trailing,
                             dtype=self.dense.dtype)
        self.painted = 0
        #: samples painted per level
        self.seen = np.zeros(len(self.at_or_below), dtype=np.int64)

    def _shifts(self, level: int) -> list[int]:
        """log2 of a ``level`` block's extent along each spatial axis."""
        return [max(w - level, 0) for w in self.widths]

    def advance(self, count: int) -> np.ndarray:
        if count <= 0:
            return np.zeros_like(self.dense)
        count = min(count, len(self.order))
        if count < self.painted or (
                count > self.painted
                and self.levels[self.painted:count].min() < self.level):
            self._blank()
        self._paint(self.painted, count)
        self.painted = count
        out = _upsample(self.grid, self._shifts(self.level))
        crop = out[tuple(slice(0, s) for s in self.shape)]
        return crop.copy() if out is self.grid else \
            np.ascontiguousarray(crop)

    def _paint(self, start: int, stop: int) -> None:
        new = self.order[start:stop]
        if not len(new):
            return
        levels = self.levels[start:stop]
        self.seen += np.bincount(levels, minlength=len(self.seen))
        short = np.flatnonzero(np.cumsum(self.seen) < self.at_or_below)
        # The finest level whose samples are all painted tiles the
        # output: new samples at or below it land on its cells, since
        # the rest of their own coarser blocks belongs to its samples.
        complete = max(int(short[0]) - 1 if len(short)
                       else len(self.seen) - 1, 0)
        coords = np.unravel_index(new, self.shape)
        values = self.dense.reshape((-1,) + self.trailing)[new]
        self._scatter(coords, values, levels <= complete, complete)
        for k in range(complete + 1, int(levels.max()) + 1):
            self._scatter(coords, values, levels == k, k)

    def _scatter(self, coords: tuple[np.ndarray, ...], values: np.ndarray,
                 sel: np.ndarray, level: int) -> None:
        """Put the selected samples on their ``level`` cells, refining
        the grid to ``level`` first."""
        if not sel.any():
            return
        shifts = self._shifts(level)
        if level > self.level:
            self.grid = _upsample(self.grid, [
                a - b for a, b in zip(self._shifts(self.level), shifts)])
            self.level = level
        self.grid[tuple(c[sel] >> s for c, s in zip(coords, shifts))] = \
            values[sel]


class NearestFill(FillPolicy):
    """Fill each missing element from its nearest computed element.

    Uses a Euclidean distance transform over the computed mask; suited to
    pseudo-random (LFSR) output sampling where no block structure exists.
    """

    def __init__(self, spatial_ndim: int | None = None) -> None:
        self.spatial_ndim = spatial_ndim

    def fill(self, dense: np.ndarray, order: np.ndarray,
             count: int) -> np.ndarray:
        from scipy import ndimage

        shape = _spatial_shape(dense, order, self.spatial_ndim)
        if count <= 0:
            return np.zeros_like(dense)
        count = min(count, len(order))
        mask = np.zeros(shape, dtype=bool)
        mask.reshape(-1)[order[:count]] = True
        if mask.all():
            return dense.copy()
        nearest = ndimage.distance_transform_edt(
            ~mask, return_distances=False, return_indices=True)
        idx = tuple(nearest[d] for d in range(len(shape)))
        return dense[idx]


class ConstantFill(FillPolicy):
    """Fill missing elements with a constant (default 0)."""

    def __init__(self, value: float = 0.0,
                 spatial_ndim: int | None = None) -> None:
        self.value = value
        self.spatial_ndim = spatial_ndim

    def fill(self, dense: np.ndarray, order: np.ndarray,
             count: int) -> np.ndarray:
        shape = _spatial_shape(dense, order, self.spatial_ndim)
        out = np.full_like(dense, self.value)
        if count > 0:
            count = min(count, len(order))
            flat_out = out.reshape((int(np.prod(shape)),) + out.shape[
                len(shape):])
            flat_dense = dense.reshape(flat_out.shape)
            flat_out[order[:count]] = flat_dense[order[:count]]
        return out


class MeanFill(FillPolicy):
    """Fill missing elements with the mean of the computed ones."""

    def __init__(self, spatial_ndim: int | None = None) -> None:
        self.spatial_ndim = spatial_ndim

    def fill(self, dense: np.ndarray, order: np.ndarray,
             count: int) -> np.ndarray:
        shape = _spatial_shape(dense, order, self.spatial_ndim)
        if count <= 0:
            return np.zeros_like(dense)
        count = min(count, len(order))
        flat_dense = dense.reshape((int(np.prod(shape)),) + dense.shape[
            len(shape):])
        computed = flat_dense[order[:count]]
        mean = computed.mean(axis=0)
        out = np.broadcast_to(mean, dense.shape).astype(
            dense.dtype, copy=True).reshape(flat_dense.shape)
        out[order[:count]] = computed
        return out.reshape(dense.shape)
