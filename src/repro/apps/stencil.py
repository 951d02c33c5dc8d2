"""Edge-padded images for fixed-footprint pixel kernels.

2dconv and debayer read a fixed neighbourhood around each sampled pixel,
with clamped (edge-replicated) borders.  Padding the image once by the
neighbourhood's radius turns every clamped read into a plain gather.
The padded image is kept column by column (transposed), so the
neighbour at ``(dy, dx)`` sits at the constant flat offset
``dx * stride + dy`` from the pixel's own position, and a column's
pixels are contiguous.

A filter that is a sum of ``outer(col, row)`` integer factors runs in
two passes: a horizontal one with ``row`` and a vertical one with
``col``.  The horizontal pass at a column depends on nothing but that
column's neighbourhood, so :class:`FactoredPadded` computes it, over
every padded row, for the columns a call needs and has not seen, and
keeps it.  A pass over a sampled image then computes each column's
horizontal sums once, as the whole-image kernel does, and each sample
reads only ``k`` values per factor down its cached column.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["EdgePadded", "FactoredPadded", "edge_padder"]


class EdgePadded:
    """A 2-D image padded by ``radius`` edge-replicated pixels, stored
    transposed and flattened and, when ``dtype`` is given, widened once
    for the kernel's sums."""

    def __init__(self, image: np.ndarray, radius: int,
                 dtype: np.dtype | type | None = None) -> None:
        image = np.asarray(image)
        #: the source image, held weakly: the memo must not keep a
        #: zero-copy input view alive past its producer's shared memory
        self.source = weakref.ref(image)
        self.radius = radius
        self.height, self.width = image.shape
        #: flat distance between neighbouring padded columns
        self.stride = self.height + 2 * radius
        #: ``columns[c]`` is padded column ``c``: source column
        #: ``c - radius``, clamped, over every padded row
        self.columns = np.ascontiguousarray(
            np.pad(image, radius, mode="edge").T, dtype=dtype or image.dtype)
        self.flat = self.columns.reshape(-1)

    def locate(self, indices: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, centres)`` of flat pixel indices of the source;
        ``centres`` are the pixels' positions in :attr:`flat`."""
        rows, cols = np.divmod(indices, self.width)
        centres = (cols + self.radius) * self.stride + (rows + self.radius)
        return rows, cols, centres

    def offset(self, dy: int, dx: int) -> int:
        """Flat distance from a pixel to its ``(dy, dx)`` neighbour."""
        return dx * self.stride + dy


class FactoredPadded(EdgePadded):
    """An int64 :class:`EdgePadded` image under a filter given as
    integer ``(col, row)`` factors, each ``2 * radius + 1`` taps long,
    whose outer products sum to the filter's weights.

    :meth:`sums` and :meth:`everywhere` return the filter's exact
    integer sums; each column's horizontal passes are computed once,
    on first use.
    """

    def __init__(self, image: np.ndarray, radius: int,
                 factors: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
        super().__init__(image, radius, np.int64)
        self.factors = [(np.asarray(col, dtype=np.int64),
                         np.asarray(row, dtype=np.int64))
                        for col, row in factors]
        #: ``passes[i, c, p]``: factor ``i``'s row applied around source
        #: column ``c`` on padded row ``p``; valid where :attr:`filled`
        self.passes = np.empty((len(self.factors), self.width, self.stride),
                               dtype=np.int64)
        self.filled = np.zeros(self.width, dtype=bool)

    def _horizontal(self, cols: np.ndarray) -> None:
        """Fill :attr:`passes` at least at source columns ``cols``."""
        mark = np.zeros(self.width, dtype=bool)
        mark[cols] = True
        need = np.flatnonzero(mark & ~self.filled)
        if not len(need):
            return
        lo, hi = int(need[0]), int(need[-1]) + 1
        # a run of columns (every column, for a whole image) is a view
        # of the windows; scattered columns are gathered
        take = slice(lo, hi) if hi - lo == len(need) else need
        windows = sliding_window_view(self.columns, 2 * self.radius + 1,
                                      axis=0)[take]
        for sums, (_, row) in zip(self.passes, self.factors):
            sums[take] = np.einsum("cpk,k->cp", windows, row)
        self.filled[need] = True

    def sums(self, indices: np.ndarray) -> np.ndarray:
        """The filter's sums at flat pixel indices of the source: each
        sample reads ``k`` values per factor down its column's cached
        horizontal passes instead of gathering all ``k * k`` taps."""
        rows, cols, _ = self.locate(indices)
        self._horizontal(cols)
        # a source pixel's window down its column starts at padded row
        # ``rows``, the pixel's own row less the radius
        base = cols * self.stride + rows
        acc = np.zeros(len(base), dtype=np.int64)
        for (col, _), passes in zip(self.factors, self.passes):
            flat = passes.reshape(-1)
            for dy in np.flatnonzero(col):
                acc += int(col[dy]) * flat[base + dy]
        return acc

    def everywhere(self) -> np.ndarray:
        """The filter's sums at every pixel, as a ``(height, width)``
        view: every column's horizontal passes, then shifted slices
        down them."""
        self._horizontal(np.arange(self.width))
        acc = sum(np.einsum("cpk,k->cp",
                            sliding_window_view(passes, len(col), axis=1),
                            col)
                  for (col, _), passes in zip(self.factors, self.passes))
        return acc.T


def edge_padder(pad: Callable[[np.ndarray], EdgePadded],
                ) -> Callable[[np.ndarray], EdgePadded]:
    """A one-slot memo of ``pad``, keyed on array identity.

    A stage hands its element function the same read-only input array
    for every chunk of a pass, so the image is padded, and each column's
    horizontal passes computed, once per input version instead of once
    per chunk.  An input that differs from the last one replaces it.

    The memo has a single caller, its stage's thread: a
    :class:`FactoredPadded` fills its cache in place without a lock.
    """
    last: EdgePadded | None = None

    def padded(image: np.ndarray) -> EdgePadded:
        nonlocal last
        current = last
        if current is None or current.source() is not image:
            current = last = pad(image)
        return current

    return padded
