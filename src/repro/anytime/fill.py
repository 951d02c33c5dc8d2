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

__all__ = ["FillPolicy", "TreeFill", "NearestFill", "ConstantFill",
           "MeanFill", "sample_levels"]


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
    """

    #: how many leading axes of ``dense`` the permutation indexes
    spatial_ndim: int | None = None

    def fill(self, dense: np.ndarray, order: np.ndarray,
             count: int) -> np.ndarray:
        raise NotImplementedError


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

    The fill is one pass over a coarse grid: samples land on a grid with
    one cell per block of the finest complete level, the grid is repeated
    up a level wherever finer samples exist, and the full-resolution grid
    is cropped to the output once.  Per-sample levels come from
    :func:`~repro.anytime.permutations.order_levels`, which keeps them
    beside the memoised order they describe.
    """

    def __init__(self, spatial_ndim: int | None = None) -> None:
        self.spatial_ndim = spatial_ndim

    def fill(self, dense: np.ndarray, order: np.ndarray,
             count: int) -> np.ndarray:
        shape = _spatial_shape(dense, order, self.spatial_ndim)
        if count <= 0:
            return np.zeros_like(dense)
        count = min(count, len(order))
        levels, at_or_below = order_levels(order, shape)
        widths = _widths(shape)
        # The finest fully complete level's blocks tile the whole output,
        # so coarser levels cannot show through: they paint at its size.
        complete = max(int(np.searchsorted(at_or_below, count,
                                           side="right")) - 1, 0)
        prefix = order[:count]
        prefix_levels = levels[:count]
        coords = np.unravel_index(prefix, shape)
        trailing = dense.shape[len(shape):]
        values = dense.reshape((-1,) + trailing)[prefix]
        # log2 of the block extent per axis; a level-k coordinate is a
        # multiple of its block, so ``c >> shift`` is its grid cell
        shifts = [max(w - complete, 0) for w in widths]
        grid = np.zeros(tuple(-(-s >> b) for s, b in zip(shape, shifts))
                        + trailing, dtype=dense.dtype)
        sel = prefix_levels <= complete
        grid[tuple(c[sel] >> b for c, b in zip(coords, shifts))] = \
            values[sel]
        for k in range(complete + 1, int(prefix_levels.max()) + 1):
            sel = prefix_levels == k
            if not sel.any():
                continue
            finer = [max(w - k, 0) for w in widths]
            grid = _upsample(grid, [a - b for a, b in zip(shifts, finer)])
            shifts = finer
            grid[tuple(c[sel] >> b for c, b in zip(coords, shifts))] = \
                values[sel]
        grid = _upsample(grid, shifts)
        return np.ascontiguousarray(grid[tuple(slice(0, s) for s in shape)])


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
