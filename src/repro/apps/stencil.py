"""Edge-padded images for fixed-footprint pixel kernels.

2dconv and debayer read a fixed neighbourhood around each sampled pixel,
with clamped (edge-replicated) borders.  Padding the image once by the
neighbourhood's radius turns every clamped read into a plain read.

A kernel reads its neighbourhood through a :class:`Reader`, which takes
a sample set (see :mod:`repro.anytime.coset`).  For a strided coset,
the neighbour at ``(dy, dx)`` of every sample is one strided slice of
the padded image, shaped like the coset's grid.  The whole image is the
stride-1 coset, so the whole-image references run the same kernels.
For an index array, the neighbour sits at a constant flat offset from
each pixel's own position, and is gathered.

debayer's :class:`EdgePadded` image is kept row by row, as its output
is, so a coset's planes are written out in their own memory order.

A padded image may be a *slab*: a run of the source's rows, padded
above and below by the source rows around it (replicated only past the
source's own edges).  Its samples are the slab's rows, so the
whole-image references run the same kernels a slab at a time, and
what they allocate beyond their output is one slab's planes.

A filter that is a sum of ``outer(col, row)`` integer factors runs in
two passes: a horizontal one with ``row`` and a vertical one with
``col``.  The horizontal pass at a column depends on nothing but that
column's neighbourhood, so :class:`FactoredPadded` computes it, over
every padded row, for the columns a call needs and has not seen, and
keeps it.  A pass over a sampled image then computes each column's
horizontal sums once, as the whole-image kernel does, and each sample
reads only ``k`` values per factor down its cached column.  Those reads
are why its image and cache are kept column by column (transposed): a
sample's window down its column is contiguous, and a coset's windows
are one strided view whose dot products need no copy.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..anytime.coset import Coset

__all__ = ["EdgePadded", "FactoredPadded", "Reader", "edge_padder"]


class Reader:
    """Reads planes of a padded image at every sample of a sample set
    of the source image, each read shaped like the sample set.

    A plane is kept either row by row (:meth:`at`) or column by column
    (:meth:`down`); coordinates are the source's, so a plane padded by
    ``radius`` is read ``radius`` further along each axis.
    """

    #: the source columns the samples sit in
    cols: slice | np.ndarray

    def at(self, plane: np.ndarray, row: int, col: int) -> np.ndarray:
        """``plane[r + row, c + col]`` at every sample ``(r, c)``."""
        raise NotImplementedError

    def down(self, plane: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``sum(weights[dy] * plane[c, r + dy])`` over ``dy`` at every
        sample ``(r, c)``, in int64: a dot product down each sample's
        column of a plane kept column by column."""
        raise NotImplementedError


def reader(samples: Coset | np.ndarray, width: int) -> Reader:
    """The :class:`Reader` of a sample set of a ``width``-wide image."""
    if isinstance(samples, Coset):
        return _CosetReader(samples)
    return _GatherReader(samples, width)


class _CosetReader(Reader):
    """A coset's reads: one strided slice per tap."""

    def __init__(self, samples: Coset) -> None:
        self.samples = samples
        self.cols = samples.span(1)

    def at(self, plane: np.ndarray, row: int, col: int) -> np.ndarray:
        return plane[self.samples.span(0, row), self.samples.span(1, col)]

    def down(self, plane: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # each sample's window down its column is contiguous: one dot
        # product per sample over a strided view of the windows
        windows = sliding_window_view(plane, len(weights), axis=1)
        return np.einsum("crk,k->cr", windows[self.cols,
                                              self.samples.span(0)],
                         weights).T


class _GatherReader(Reader):
    """An index array's reads: one gather per tap, at a constant flat
    offset from each sample's own position."""

    def __init__(self, samples: np.ndarray, width: int) -> None:
        self.rows, self.cols = np.divmod(samples, width)
        self.bases: dict[tuple[int, bool], np.ndarray] = {}

    def _base(self, stride: int, by_column: bool) -> np.ndarray:
        """Each sample's flat position in a plane whose rows (columns,
        when ``by_column``) are ``stride`` long."""
        base = self.bases.get((stride, by_column))
        if base is None:
            major, minor = ((self.cols, self.rows) if by_column
                            else (self.rows, self.cols))
            base = self.bases[stride, by_column] = major * stride + minor
        return base

    def at(self, plane: np.ndarray, row: int, col: int) -> np.ndarray:
        stride = plane.shape[1]
        return plane.reshape(-1)[self._base(stride, False)
                                 + (row * stride + col)]

    def down(self, plane: np.ndarray, weights: np.ndarray) -> np.ndarray:
        base = self._base(plane.shape[1], True)
        flat = plane.reshape(-1)
        acc = np.zeros(base.shape, dtype=np.int64)
        for dy in np.flatnonzero(weights):
            acc += int(weights[dy]) * flat[base + dy]
        return acc


class _Padded:
    """What the :func:`edge_padder` memo keys on: the source image,
    held weakly, so the memo does not keep a zero-copy input view alive
    past its producer's shared memory.

    :attr:`slab` (every row by default) is the source rows padded: a
    sample's row ``r`` is source row ``slab.start + r``.
    """

    def __init__(self, image: np.ndarray, radius: int,
                 rows: slice | None = None) -> None:
        self.source = weakref.ref(image)
        self.radius = radius
        self.slab = rows or slice(0, image.shape[0])
        self.height = self.slab.stop - self.slab.start
        self.width = image.shape[1]

    def _plane(self, image: np.ndarray) -> np.ndarray:
        """The padded plane: :attr:`slab` of ``image`` with the
        ``radius`` source rows around them, clamped at the source's
        edges, and every row's edge columns replicated."""
        r, width = self.radius, self.width
        around = np.clip(np.arange(self.slab.start - r,
                                   self.slab.stop + r),
                         0, image.shape[0] - 1)
        plane = np.empty((len(around), width + 2 * r), dtype=image.dtype)
        plane[:, r:r + width] = image[around]
        plane[:, :r] = plane[:, r:r + 1]
        plane[:, r + width:] = plane[:, r + width - 1:r + width]
        return plane

    def reader(self, samples: Coset | np.ndarray) -> Reader:
        """A :class:`Reader` of a sample set of the source image."""
        return reader(samples, self.width)


class EdgePadded(_Padded):
    """A 2-D image padded by ``radius`` edge-replicated pixels, kept row
    by row in :attr:`rows` and, when ``dtype`` is given, widened once
    for the kernel's sums."""

    def __init__(self, image: np.ndarray, radius: int,
                 dtype: np.dtype | type | None = None,
                 rows: slice | None = None) -> None:
        image = np.asarray(image)
        super().__init__(image, radius, rows)
        #: padded row ``r`` is source row ``slab.start + r - radius``,
        #: clamped
        self.rows = self._plane(image).astype(dtype or image.dtype,
                                              copy=False)


class FactoredPadded(_Padded):
    """An int64 edge-padded image under a filter given as integer
    ``(col, row)`` factors, each ``2 * radius + 1`` taps long, whose
    outer products sum to the filter's weights.

    :meth:`sums` returns the filter's exact integer sums; each column's
    horizontal passes are computed once, on first use.
    """

    def __init__(self, image: np.ndarray, radius: int,
                 factors: Sequence[tuple[np.ndarray, np.ndarray]],
                 rows: slice | None = None) -> None:
        image = np.asarray(image)
        super().__init__(image, radius, rows)
        #: flat distance between neighbouring padded columns
        self.stride = self.height + 2 * radius
        #: ``columns[c]`` is padded column ``c``: source column
        #: ``c - radius``, clamped, over every padded row of the slab
        self.columns = np.ascontiguousarray(self._plane(image).T,
                                            dtype=np.int64)
        self.factors = [(np.asarray(col, dtype=np.int64),
                         np.asarray(row, dtype=np.int64))
                        for col, row in factors]
        #: ``passes[i, c, p]``: factor ``i``'s row applied around source
        #: column ``c`` on padded row ``p``; valid where :attr:`filled`
        self.passes = np.empty((len(self.factors), self.width, self.stride),
                               dtype=np.int64)
        self.filled = np.zeros(self.width, dtype=bool)

    def _horizontal(self, cols: slice | np.ndarray) -> None:
        """Fill :attr:`passes` at least at source columns ``cols``."""
        mark = np.zeros(self.width, dtype=bool)
        mark[cols] = True
        need = np.flatnonzero(mark & ~self.filled)
        if not len(need):
            return
        # columns in an arithmetic progression (a coset's, every column
        # of a whole image) are a strided view of the windows; others
        # are gathered
        step = int(need[1] - need[0]) if len(need) > 1 else 1
        take = (slice(int(need[0]), int(need[-1]) + 1, step)
                if (np.diff(need) == step).all() else need)
        windows = sliding_window_view(self.columns, 2 * self.radius + 1,
                                      axis=0)[take]
        for sums, (_, row) in zip(self.passes, self.factors):
            sums[take] = np.einsum("cpk,k->cp", windows, row)
        self.filled[need] = True

    def sums(self, samples: Coset | np.ndarray) -> np.ndarray:
        """The filter's sums at a sample set of the source, shaped like
        it: each sample reads ``k`` values per factor down its column's
        cached horizontal passes instead of all ``k * k`` taps."""
        read = self.reader(samples)
        self._horizontal(read.cols)
        # a source pixel's window down its column starts at padded row
        # ``r``, the pixel's own row less the radius
        acc = read.down(self.passes[0], self.factors[0][0])
        for (col, _), passes in zip(self.factors[1:], self.passes[1:]):
            acc += read.down(passes, col)
        return acc


P = TypeVar("P", bound=_Padded)


def edge_padder(pad: Callable[[np.ndarray], P],
                ) -> Callable[[np.ndarray], P]:
    """A one-slot memo of ``pad``, keyed on array identity.

    A stage hands its element function the same read-only input array
    for every chunk of a pass, so the image is padded, and each column's
    horizontal passes computed, once per input version instead of once
    per chunk.  An input that differs from the last one replaces it.
    The memo holds no sample set: each call reads the padded image at
    its chunk's coset or index array through a fresh :class:`Reader`.

    The memo has a single caller, its stage's thread: a
    :class:`FactoredPadded` fills its cache in place without a lock.
    """
    last: P | None = None

    def padded(image: np.ndarray) -> P:
        nonlocal last
        current = last
        if current is None or current.source() is not image:
            current = last = pad(image)
        return current

    return padded
