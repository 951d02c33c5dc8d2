"""Sampling permutations (paper Section III-B2).

A *sampling permutation* defines the order in which the elements of a data
set are processed by a diffusive anytime stage.  As long as the permutation
function ``p`` is bijective, every element is processed exactly once and the
precise output is guaranteed.  The paper identifies three families:

- **sequential** — memory order, for priority-ordered data sets (e.g. bit
  planes in reduced-precision computation, where most-significant bits come
  first);
- **tree** — an N-dimensional bit-reverse permutation, for ordered data sets
  without priority (images, audio); the data set is visited at progressively
  increasing resolution (paper Figures 4 and 5);
- **pseudo-random** — an LFSR-driven permutation, for unordered data sets
  (histograms, k-means) where memory order would bias the approximation.

All permutations here return a NumPy index array ``order`` such that
``order[i]`` is the flat index of the ``i``-th element to process;
``order`` is always a permutation of ``arange(n)``.

Multi-threaded sampling (paper Section IV-C1) is supported by
:func:`split_cyclic`: the permutation sequence is divided cyclically among
workers, so worker ``t`` of ``T`` processes ``order[t::T]`` — low-resolution
coverage still appears as early as possible.

Stages do not call :meth:`Permutation.order` themselves: they ask
:func:`sample_order`, a small per-process LRU memo keyed on
``(permutation, shape)`` that validates each order once, hands out one
shared read-only array, and keeps the order's tree levels
(:func:`order_levels`) beside it for :class:`~repro.anytime.fill.TreeFill`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from .lfsr import MAXIMAL_TAPS, Lfsr

__all__ = [
    "Permutation",
    "SequentialPermutation",
    "ReversedPermutation",
    "StridedPermutation",
    "TreePermutation",
    "LfsrPermutation",
    "bit_reverse",
    "split_cyclic",
    "split_blocked",
    "is_permutation",
    "sample_levels",
    "sample_order",
    "order_levels",
]


def _size_of(shape: int | Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Normalize a size-or-shape argument to ``(n, shape_tuple)``."""
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ValueError(f"shape must be positive, got {shape}")
    n = 1
    for s in shape:
        n *= s
    return n, shape


def _widths(shape: tuple[int, ...]) -> list[int]:
    """Bits per dimension of the power-of-two box enclosing ``shape``."""
    return [max(1, int(np.ceil(np.log2(s)))) if s > 1 else 0
            for s in shape]


def bit_reverse(values: np.ndarray, bits: int) -> np.ndarray:
    """Reverse the low ``bits`` bits of each value (vectorized).

    This is the core primitive of the tree permutation: for a
    one-dimensional set of ``2**bits`` elements, the paper's permutation is
    ``p : b_{k-1}...b_0 -> b_0...b_{k-1}`` (Figure 4).
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(values)
    for b in range(bits):
        out |= ((values >> b) & 1) << (bits - 1 - b)
    return out


class Permutation:
    """Base class for sampling permutations.

    Subclasses implement :meth:`order`, which materializes the permuted
    index sequence for a data set of a given size or shape.  Permutations
    are stateless value objects: calling :meth:`order` twice returns equal
    arrays, which is what makes multi-threaded sampling and hardware
    prefetching of the sequence possible (paper Sections IV-C1 and IV-C3).
    """

    #: short machine name used by cost models and reports
    name: str = "base"

    def order(self, shape: int | Sequence[int]) -> np.ndarray:
        """Return the processing order as a permutation of ``arange(n)``.

        Parameters
        ----------
        shape:
            Either the number of elements ``n`` or an N-dimensional shape.
            Multi-dimensional shapes matter only to permutations that are
            dimension-aware (the tree permutation); others flatten.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class SequentialPermutation(Permutation):
    """Memory-order (ascending index) permutation: ``p(i) = i``.

    Suited to priority-ordered data sets, where earlier elements matter
    more to the output (e.g. most-significant bit planes).
    """

    name = "sequential"

    def order(self, shape: int | Sequence[int]) -> np.ndarray:
        n, _ = _size_of(shape)
        return np.arange(n, dtype=np.int64)


class ReversedPermutation(Permutation):
    """Descending memory order: ``p(i) = n + 1 - i`` in the paper's 1-based
    notation (``n - 1 - i`` zero-based)."""

    name = "reversed"

    def order(self, shape: int | Sequence[int]) -> np.ndarray:
        n, _ = _size_of(shape)
        return np.arange(n - 1, -1, -1, dtype=np.int64)


class StridedPermutation(Permutation):
    """Fixed-stride sweep: visit ``0, s, 2s, ..., 1, 1+s, ...``.

    This is the access order of one loop-perforation pass; as a
    *permutation* (all offsets eventually visited) it is bijective and can
    drive a diffusive stage, unlike iterative re-execution which repeats
    work (paper Section III-B1).
    """

    name = "strided"

    def __init__(self, stride: int) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = int(stride)

    def order(self, shape: int | Sequence[int]) -> np.ndarray:
        n, _ = _size_of(shape)
        chunks = [np.arange(off, n, self.stride, dtype=np.int64)
                  for off in range(min(self.stride, n))]
        return np.concatenate(chunks) if chunks else np.empty(0, np.int64)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"StridedPermutation(stride={self.stride})"


class TreePermutation(Permutation):
    """N-dimensional bit-reverse ("tree") permutation (paper Figures 4, 5).

    Elements are visited as a perfect ``2**N``-ary tree: after ``4**k``
    samples of a two-dimensional set, a ``2**k x 2**k`` uniform subgrid has
    been visited — the data set is sampled at progressively increasing
    resolution.

    The construction interleaves sequence-index bits across dimensions
    (last dimension first, matching the paper's 8x8 example where the new
    column index takes the even bits ``b0 b2 b4``) and assigns earlier
    sequence bits to *more significant* coordinate bits, which is exactly a
    per-dimension bit reversal.

    Non-power-of-two extents are handled by running the permutation on the
    next power of two per dimension and discarding out-of-range
    coordinates; the result is still a bijection onto the valid index set.
    """

    name = "tree"

    def order(self, shape: int | Sequence[int]) -> np.ndarray:
        _, shape = _size_of(shape)
        widths = _widths(shape)
        total_bits = sum(widths)
        if total_bits == 0:
            return np.zeros(1, dtype=np.int64)
        if total_bits > 40:
            raise ValueError(f"tree permutation too large for shape {shape}")
        seq = np.arange(1 << total_bits, dtype=np.int64)
        coords = [np.zeros_like(seq) for _ in shape]
        # Assign sequence bits level by level: level l contributes bit
        # (width_d - 1 - l) of dimension d's coordinate.  Within a level,
        # dimensions are taken last-first (paper's column-first order).
        bit = 0
        max_width = max(widths)
        for level in range(max_width):
            for d in reversed(range(len(shape))):
                if level < widths[d]:
                    coords[d] |= ((seq >> bit) & 1) << (widths[d] - 1 - level)
                    bit += 1
        valid = np.ones(len(seq), dtype=bool)
        for d, s in enumerate(shape):
            valid &= coords[d] < s
        flat = np.zeros_like(seq)
        stride = 1
        for d in reversed(range(len(shape))):
            flat += coords[d] * stride
            stride *= shape[d]
        return flat[valid]

    def coordinates(self, shape: Sequence[int]) -> np.ndarray:
        """Return the visit order as an ``(n, ndim)`` coordinate array."""
        _, shape = _size_of(shape)
        flat = self.order(shape)
        return np.stack(np.unravel_index(flat, shape), axis=1)


class LfsrPermutation(Permutation):
    """Pseudo-random permutation driven by a maximal-length LFSR.

    A maximal-length LFSR of width ``w`` enumerates every value in
    ``[1, 2**w - 1]`` exactly once per period, so filtering its states to
    ``< n`` (and appending index 0, which an LFSR never emits) yields a
    deterministic bijection on ``[0, n)``.  This mirrors a hardware LFSR
    address generator and avoids the memory-order bias the paper warns
    about for unordered data sets (Figure 3).
    """

    name = "lfsr"

    def __init__(self, seed: int = 1,
                 taps: tuple[int, ...] | None = None) -> None:
        if seed <= 0:
            raise ValueError("LFSR seed must be positive")
        self.seed = int(seed)
        self.taps = taps

    def order(self, shape: int | Sequence[int]) -> np.ndarray:
        n, _ = _size_of(shape)
        if n == 1:
            return np.zeros(1, dtype=np.int64)
        width = max(2, int(np.ceil(np.log2(n))))
        if n == (1 << width):  # need strictly more states than n - 1
            width += 1
        width = min(width, 32)
        seed = (self.seed - 1) % ((1 << width) - 1) + 1
        lfsr = Lfsr(width, seed=seed, taps=self.taps)
        states = np.fromiter(lfsr.states(lfsr.period),
                             dtype=np.int64, count=lfsr.period)
        # Maximal-length LFSR states cover [1, 2**width - 1] exactly once,
        # so the states below n are exactly the indices 1..n-1, each once.
        out = states[states < n]
        # An LFSR never emits 0; prepend it so the first sample exists even
        # for one-element prefixes.
        return np.concatenate((np.zeros(1, dtype=np.int64), out))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LfsrPermutation(seed={self.seed})"


def split_cyclic(order: np.ndarray, workers: int) -> list[np.ndarray]:
    """Divide a permutation sequence cyclically among ``workers`` threads.

    Paper Section IV-C1: "the permutation sequence of p can be divided
    cyclically; given n threads, a thread that is currently processing the
    element at p(i) will next access the element at p(i + n)."  The cyclic
    split preserves the low-resolution-first property of the tree
    permutation: after each worker has processed ``k`` elements, exactly
    the first ``k * workers`` elements of the global sequence are done.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return [order[t::workers] for t in range(workers)]


def split_blocked(order: np.ndarray, workers: int) -> list[np.ndarray]:
    """Divide a permutation sequence into contiguous blocks per worker.

    Provided as the contrast case for the scheduling ablation: a blocked
    split gives each worker better locality but destroys the
    progressive-resolution property (worker 0 finishes the coarse samples
    while others fill in fine detail out of order).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return [np.array_split(order, workers)[t] for t in range(workers)]


def is_permutation(order: np.ndarray, n: int) -> bool:
    """Check that ``order`` is a bijection on ``[0, n)``."""
    order = np.asarray(order)
    if order.shape != (n,):
        return False
    seen = np.zeros(n, dtype=bool)
    valid = (order >= 0) & (order < n)
    if not valid.all():
        return False
    seen[order] = True
    return bool(seen.all())


def sample_levels(order: np.ndarray,
                  shape: tuple[int, ...]) -> np.ndarray:
    """Return the tree level of each sample in visit order.

    The level of a coordinate is determined by its trailing zero bits: a
    coordinate that is a multiple of ``2**(width - k)`` in every dimension
    first appears at level ``k``.  For a tree permutation, levels are
    non-decreasing along the visit order.
    """
    coords = np.unravel_index(np.asarray(order, dtype=np.int64), shape)
    levels = np.zeros(len(order), dtype=np.int64)
    for d, width in enumerate(_widths(tuple(shape))):
        if width == 0:
            continue
        c = coords[d].astype(np.int64)
        # trailing zeros, with tz(0) = width
        tz = np.full(len(order), width, dtype=np.int64)
        nonzero = c != 0
        cc = c[nonzero]
        t = np.zeros(len(cc), dtype=np.int64)
        rem = cc.copy()
        while True:
            even = (rem & 1) == 0
            if not even.any():
                break
            t[even] += 1
            rem[even] >>= 1
        tz[nonzero] = t
        levels = np.maximum(levels, width - tz)
    return levels


# -- the per-process order memo -------------------------------------------

#: how many ``(permutation, shape)`` orders one process keeps; each app
#: uses one or two, so every app at a couple of sizes fits
ORDER_MEMO_CAP = 16


class _MemoEntry:
    """One validated read-only order and, once asked for, its levels."""

    __slots__ = ("order", "shape", "levels")

    def __init__(self, order: np.ndarray, shape: tuple[int, ...]) -> None:
        self.order = order
        self.shape = shape
        self.levels: tuple[np.ndarray, np.ndarray] | None = None


_memo: OrderedDict[tuple[Permutation, tuple[int, ...]], _MemoEntry] = \
    OrderedDict()
_memo_lock = threading.Lock()


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def sample_order(permutation: Permutation,
                 shape: int | Sequence[int]) -> np.ndarray:
    """The visit order of ``permutation`` over ``shape``, shared and
    read-only.

    Equal permutations (they hash by value) over the same shape get the
    same array for as long as it stays among the :data:`ORDER_MEMO_CAP`
    most recently used.  An order is checked with :func:`is_permutation`
    before it is memoised; one that is not a bijection raises
    ``ValueError`` and is never stored, so every caller sees the error.
    """
    n, shape = _size_of(shape)
    key = (permutation, shape)
    with _memo_lock:
        entry = _memo.get(key)
        if entry is not None:
            _memo.move_to_end(key)
            return entry.order
    # derived outside the lock: an LFSR order takes a while, and two
    # threads racing on one key both compute it and keep the first
    order = np.asarray(permutation.order(
        shape if len(shape) != 1 else shape[0]))
    if not is_permutation(order, n):
        raise ValueError(
            f"permutation {permutation!r} is not a bijection on "
            f"[0, {n}) — the precise output would be unreachable")
    with _memo_lock:
        entry = _memo.setdefault(key, _MemoEntry(_read_only(order), shape))
        _memo.move_to_end(key)
        while len(_memo) > ORDER_MEMO_CAP:
            _memo.popitem(last=False)
    return entry.order


def order_levels(order: np.ndarray, shape: Sequence[int],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``(levels, at_or_below)`` of a sample order over ``shape``.

    ``levels`` is :func:`sample_levels`; ``at_or_below[k]`` counts the
    samples of level ``k`` or coarser.  An order that
    :func:`sample_order` handed out keeps both on its memo entry; any
    other array is measured afresh on every call.
    """
    shape = tuple(shape)
    with _memo_lock:
        entry = next((e for e in _memo.values()
                      if e.order is order and e.shape == shape), None)
    if entry is not None and entry.levels is not None:
        return entry.levels
    # uint8 holds any level (at most 40 bits, see TreePermutation) at
    # an eighth of the memory
    levels = sample_levels(order, shape).astype(np.uint8)
    at_or_below = np.cumsum(np.bincount(
        levels, minlength=max(_widths(shape), default=0) + 1))
    result = (_read_only(levels), _read_only(at_or_below))
    if entry is not None:
        entry.levels = result
    return result
