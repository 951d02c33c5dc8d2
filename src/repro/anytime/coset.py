"""Strided cosets: sample sets that are slices.

Every aligned power-of-two block of a tree order over a power-of-two
shape visits a *coset*: the product of one arithmetic progression per
axis.  That holds for each chunk of a pass and for each run of chunks
a batching stage fuses (:data:`~repro.core.stage.BATCH` of them, a
power of two), because such a block fixes the high bits of the
sequence index and the tree permutation hands each sequence bit to
one coordinate bit.  A coset is read, written and painted with slices,
so a kernel given one needs no index array, no gather and no scatter
(the paper's in-memory reordering of a deterministic permutation,
IV-C3, with no copy at all).

The output-sampled kernels take one *sample set*: a :class:`Coset`, or
a flat index array as the fallback.  A coset enumerates its samples in
raster order of its grid (:attr:`Coset.counts`) and values computed
over it are shaped like the grid; values over an index array are
shaped like the array.  The per-process memo beside each sample order
(:func:`~repro.anytime.permutations.derive_cosets`) finds each span's
coset once, ahead of any run; a span with none keeps the index array.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

__all__ = ["Coset", "as_items", "find_coset", "join_cosets",
           "reads_cosets", "read_samples", "write_samples"]


class Coset:
    """The samples ``start + stride * i`` (``i < count``) along each
    spatial axis of ``shape``, one ``(start, stride, count)`` per axis
    in :attr:`axes`.

    A coset never changes, so what a chunk reads it by is derived once:
    :attr:`slices` when it is made, and its place in each coset that
    holds it (:meth:`within`) the first time it is asked for.  The
    cosets of an order's spans live in the per-process memo, so every
    pass after the first only looks them up.
    """

    __slots__ = ("axes", "shape", "slices", "_within")

    def __init__(self, axes: Sequence[tuple[int, int, int]],
                 shape: Sequence[int]) -> None:
        # one sample along an axis has no stride: 1 keeps within() and
        # the painter's block views whole
        self.axes = tuple((int(a), int(s) if n > 1 else 1, int(n))
                          for a, s, n in axes)
        self.shape = tuple(int(s) for s in shape)
        #: the samples as one slice per axis: an array indexed by them
        #: is the grid's strided view
        self.slices = tuple(self.span(d) for d in range(len(self.axes)))
        #: :meth:`within` by the outer coset's axes
        self._within: dict[tuple, tuple[slice, ...]] = {}

    @classmethod
    def whole(cls, shape: Sequence[int]) -> "Coset":
        """Every sample of ``shape``: the stride-1 coset."""
        return cls([(0, 1, s) for s in shape], shape)

    @property
    def counts(self) -> tuple[int, ...]:
        """The grid's shape: samples per axis."""
        return tuple(n for _, _, n in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    def span(self, axis: int, shift: int = 0) -> slice:
        """The slice of axis ``axis`` the samples sit at, moved by
        ``shift`` elements."""
        start, stride, count = self.axes[axis]
        start += shift
        return slice(start, start + stride * (count - 1) + 1, stride)

    def indices(self) -> np.ndarray:
        """The samples' flat indices into ``shape``, shaped like the
        grid."""
        flat = np.zeros(self.counts, dtype=np.int64)
        step = 1
        for d in reversed(range(len(self.axes))):
            start, stride, count = self.axes[d]
            along = np.arange(start, start + stride * count, stride,
                              dtype=np.int64) * step
            flat += along.reshape((count,) + (1,) * (len(self.axes) - 1 - d))
            step *= self.shape[d]
        return flat

    def within(self, outer: "Coset") -> tuple[slice, ...]:
        """Where this coset's samples sit in the grid of ``outer``,
        which holds them all; kept on this coset, so a second ask is a
        lookup."""
        at = self._within.get(outer.axes)
        if at is None:
            out = []
            for (start, stride, count), (o_start, o_stride, _) in zip(
                    self.axes, outer.axes):
                first = (start - o_start) // o_stride
                step = max(stride // o_stride, 1)
                out.append(slice(first, first + step * (count - 1) + 1,
                                 step))
            at = self._within[outer.axes] = tuple(out)
        return at

    def split(self, axis: int) -> list["Coset"]:
        """This coset as two of twice the stride along ``axis``: the
        even and the odd positions of its progression there (one, when
        it holds a single sample there)."""
        start, stride, count = self.axes[axis]
        parts = []
        for first, n in ((start, (count + 1) // 2),
                         (start + stride, count // 2)):
            if n:
                axes = list(self.axes)
                axes[axis] = (first, 2 * stride, n)
                parts.append(Coset(axes, self.shape))
        return parts

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Coset) and self.axes == other.axes
                and self.shape == other.shape)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Coset({self.axes}, shape={self.shape})"


def _progression(seen: np.ndarray) -> tuple[int, int, int] | None:
    """``(start, stride, count)`` of the marks in the bitmap ``seen``,
    or None when they are no arithmetic progression."""
    at = np.flatnonzero(seen)
    start, count = int(at[0]), len(at)
    stride = (int(at[-1]) - start) // (count - 1) if count > 1 else 1
    if count > 1 and not (np.diff(at) == stride).all():
        return None
    return start, stride, count


def _product(seen: list[np.ndarray], size: int,
             shape: tuple[int, ...]) -> Coset | None:
    """The coset of ``size`` distinct samples whose coordinates along
    each axis are the marks of ``seen``, or None.  When every axis's
    marks form a progression and their product holds ``size`` samples,
    every sample is in that product and the product holds nothing
    else."""
    axes = [_progression(marks) for marks in seen]
    if None in axes or int(np.prod([n for _, _, n in axes])) != size:
        return None
    return Coset(axes, shape)


def find_coset(samples: np.ndarray, shape: Sequence[int]) -> Coset | None:
    """The coset whose samples are the distinct flat indices
    ``samples`` of ``shape``, or None when they are no coset."""
    shape = tuple(int(s) for s in shape)
    if not len(samples):
        return None
    seen = []
    for coords, extent in zip(np.unravel_index(samples, shape), shape):
        marks = np.zeros(extent, dtype=bool)
        marks[coords] = True
        seen.append(marks)
    return _product(seen, len(samples), shape)


def join_cosets(first: Coset, second: Coset) -> Coset | None:
    """The coset that the samples of two disjoint cosets of one shape
    make up together, or None when they make up none; it costs the
    axes' lengths, not the samples'."""
    seen = []
    for d, extent in enumerate(first.shape):
        marks = np.zeros(extent, dtype=bool)
        marks[first.span(d)] = True
        marks[second.span(d)] = True
        seen.append(marks)
    return _product(seen, first.size + second.size, first.shape)


def reads_cosets(element_fn: Callable[..., np.ndarray],
                 ) -> Callable[..., np.ndarray]:
    """Mark a :class:`~repro.core.mapstage.MapStage` element function
    that takes a sample set — a :class:`Coset` or an index array — in
    place of the index array, and returns values shaped like it."""
    element_fn.reads_cosets = True
    return element_fn


def read_samples(array: np.ndarray, samples: Coset | np.ndarray,
                 ndim: int) -> np.ndarray:
    """``array``'s values at ``samples`` of its leading ``ndim`` axes:
    a strided view of the grid for a coset, a gather for an index
    array."""
    if isinstance(samples, Coset):
        return array[samples.slices]
    return array.reshape((-1,) + array.shape[ndim:])[samples]


def write_samples(array: np.ndarray, samples: Coset | np.ndarray,
                  values: np.ndarray, ndim: int) -> None:
    """Store ``values``, shaped as :func:`read_samples` returns them,
    into ``array`` at ``samples``."""
    if isinstance(samples, Coset):
        target = array[samples.slices]
        values = np.asarray(values)
        if values.dtype == target.dtype and values.shape == target.shape:
            # each element's trailing values move as one item
            target, values = as_items(target, ndim), as_items(values, ndim)
        target[...] = values
    else:
        array.reshape((-1,) + array.shape[ndim:])[samples] = values


def as_items(array: np.ndarray, ndim: int) -> np.ndarray:
    """A view of ``array`` with the axes past its first ``ndim`` fused
    into one opaque item, so a copy moves each element's trailing
    values (an RGB pixel, say) in one go instead of value by value.
    Without trailing axes, or with trailing axes that are not one
    contiguous run, ``array`` itself."""
    trailing = array.shape[ndim:]
    if not trailing:
        return array
    size = array.dtype.itemsize
    for extent, stride in zip(reversed(trailing),
                              reversed(array.strides[ndim:])):
        if extent > 1 and stride != size:
            return array
        size *= extent
    return array.reshape(array.shape[:ndim] + (-1,)).view(
        np.dtype((np.void, size)))[..., 0]
