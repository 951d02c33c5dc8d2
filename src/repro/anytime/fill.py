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
:class:`TreeFill` implements this block-replication fill.  Within a pass
its :class:`TreePainter` keeps a full-resolution canvas and paints each
new sample's block once, so a version costs its new samples' blocks
plus one copy of the output, not a re-upsampling of the whole grid.
Where the new samples of one block size form a strided coset (every
chunk of a tree order over a power-of-two shape does), their blocks are
painted as one broadcast assignment into a strided view of the canvas.
Those assignments are worked out once per process, as one
:class:`PaintPlan` per span of a pass, and replayed by every pass.

For unordered (pseudo-random) sampling, :class:`NearestFill` fills each
missing element from its nearest computed neighbour, and
:class:`ConstantFill` / :class:`MeanFill` provide cheap alternatives.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .coset import as_items
from .permutations import _widths, derive_cosets, derive_plans, \
    order_levels, sample_levels, span_cosets, span_plans

__all__ = ["FillPolicy", "Painter", "TreeFill", "TreePainter", "PaintPlan",
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

    def warm(self, order: np.ndarray, dense_shape: tuple[int, ...],
             spans: Sequence[tuple[int, int]] = ()) -> None:
        """Derive ahead of any pass what a painter over ``order`` into
        a dense array of ``dense_shape`` reads and no sample changes;
        a pass advances it to the end of each of ``spans`` in turn."""


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


def _spatial_shape(dense_shape: tuple[int, ...], order: np.ndarray,
                   spatial_ndim: int | None) -> tuple[int, ...]:
    """Infer which leading axes of a dense array of ``dense_shape`` the
    flat ``order`` indexes."""
    if spatial_ndim is not None:
        shape = tuple(dense_shape[:spatial_ndim])
    else:
        shape = tuple(dense_shape)
    n = int(np.prod(shape)) if shape else 1
    if n != len(order):
        raise ValueError(
            f"order length {len(order)} does not match spatial shape "
            f"{shape} of dense array {tuple(dense_shape)}")
    return shape


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

    def warm(self, order: np.ndarray, dense_shape: tuple[int, ...],
             spans: Sequence[tuple[int, int]] = ()) -> None:
        """Derive the cosets of the runs a pass's painter paints and the
        :class:`PaintPlan` of each of ``spans``, on the memo entry of
        ``order``.  Plans are spatial: one serves every dtype and
        trailing shape of ``dense_shape``'s spatial axes."""
        shape = _spatial_shape(dense_shape, order, self.spatial_ndim)
        levels, at_or_below = order_levels(order, shape)

        def runs() -> list[tuple[int, int]]:
            """The runs a pass's painter paints, advanced span after
            span from the start of the order."""
            out = []
            for start, stop in spans:
                part = levels[start:stop]
                complete = int(np.searchsorted(at_or_below, stop,
                                               side="right")) - 1
                out += [(start + a, start + b) for a, b, _ in _level_runs(
                    part, int(part.min()), int(part.max()),
                    max(complete, 0)) or ()]
            return out

        def plans() -> dict[tuple[int, int], PaintPlan]:
            """The plans of a pass's spans, along a tree order only: no
            advance along it repaints, so each span is painted over
            what the spans before it left.  The scratch painter's
            canvas is never touched."""
            if (levels[1:] < levels[:-1]).any():
                return {}
            return TreePainter(self, np.broadcast_to(np.uint8(0), shape),
                               order)._plan_pass(spans)

        derive_cosets(order, shape, ("paint", *spans), runs)
        derive_plans(order, shape, ("plans", *spans), plans)

    def fill(self, dense: np.ndarray, order: np.ndarray,
             count: int) -> np.ndarray:
        return self.start(dense, order).advance(count)


def _level_runs(levels: np.ndarray, lo: int, hi: int, complete: int,
                ) -> list[tuple[int, int, int]] | None:
    """``(start, stop, level)``: the runs of a span whose samples have
    ``levels`` (from ``lo`` to ``hi``) that :class:`TreePainter` paints
    with ``level`` blocks each, when ``complete`` is the finest level
    all of whose samples are painted with the span; None when the
    levels are out of order, so the runs are no spans."""
    if hi <= complete or lo == hi:
        return [(0, len(levels), max(lo, complete))]
    if (levels[1:] < levels[:-1]).any():
        return None
    edges = np.searchsorted(levels, np.arange(complete + 1, hi + 1))
    cuts = [0, *edges.tolist(), len(levels)]
    return [(a, b, level) for a, b, level in zip(
        cuts[:-1], cuts[1:], range(complete, hi + 1)) if b > a]


#: one block assignment of a :class:`PaintPlan`: the canvas viewed as
#: ``blocks`` (block count and block extent along each axis), picked
#: to the coset's blocks, takes the dense samples at ``slices``
#: reshaped to ``spread`` (one value per block, broadcast over it)
Strided = tuple[tuple[int, ...], tuple[slice, ...], tuple[int, ...],
                tuple[slice, ...]]


class PaintPlan:
    """What one advance of a :class:`TreePainter` over
    ``order[start:stop]`` does, from any canvas that holds the fill of
    ``order[:start]`` and no sample finer than the span's coarsest (so
    the advance paints over it): its bookkeeping after the advance and
    its steps.

    Each step paints one run of new samples with one block size, as
    ``(start, stop, level, strided)``: ``strided`` is the run's block
    assignment (:data:`Strided`) when the run is a coset whose blocks
    the canvas tiles, else None and the run is gathered.  ``steps`` is
    None when the span's levels are out of order (not a tree order):
    then its samples are gathered and painted a level at a time.

    Nothing in a plan depends on the dense array's dtype or trailing
    axes, or on how the canvas came to hold ``order[:start]``.  Along a
    tree order, whose levels never fall, every forward advance paints
    over its canvas, so a plan whose every step is strided
    (:attr:`strided`) is derived once per process by
    :meth:`TreeFill.warm` and replayed by every pass.
    """

    __slots__ = ("start", "stop", "level", "below", "complete", "steps")

    def __init__(self, start: int, stop: int, level: int,
                 below: np.ndarray, complete: int,
                 steps: list[tuple[int, int, int, Strided | None]] | None,
                 ) -> None:
        self.start, self.stop = start, stop
        #: the finest level the advance paints
        self.level = level
        #: samples at each level or coarser, painted after the advance
        self.below = below
        #: the finest level all of whose samples are painted after it
        self.complete = complete
        self.steps = steps

    @property
    def strided(self) -> bool:
        return self.steps is not None and all(
            step[3] is not None for step in self.steps)


class TreePainter(Painter):
    """:class:`TreeFill`'s painter: a full-resolution canvas onto which
    each advance paints only the samples that are new since the last
    one.

    The canvas, :attr:`grid`, covers the output padded to a power of
    two along every spatial axis, so a level-k sample's block is whole
    and aligned: along an axis of ``2**w`` elements it spans
    ``2**(w - k)`` of them, from the sample's own coordinate.  An
    advance paints ``order[painted:count]`` one level at a time,
    coarsest first, each sample filling its block once over the
    coarser values there.  Per-sample levels come from
    :func:`~repro.anytime.permutations.order_levels`, which keeps them
    beside the memoised order they describe.

    Painting onto what is there gives the fill of the whole prefix as
    long as no new sample is coarser than one already painted, which
    holds at every advance along a tree permutation.  When it does not
    (a non-tree order), or when ``count`` falls below what is painted,
    the painter blanks the canvas and paints the prefix afresh.

    A run of new samples painted with one block size whose span of the
    order is a coset the memo holds
    (:func:`~repro.anytime.permutations.span_cosets`) is read from the
    dense array by slices and painted as one broadcast assignment: the
    canvas viewed as blocks of that size, strided to the coset.

    What an advance paints is its :class:`PaintPlan`.  An advance from
    one boundary of a warmed pass to the next replays the plan the memo
    keeps for that span
    (:func:`~repro.anytime.permutations.span_plans`), so a version
    costs its block assignments and one copy of the output.  Any other
    advance (a count that falls back, a span whose runs are no cosets,
    a non-tree order) derives its plan afresh and paints it.

    :meth:`advance` returns the canvas cropped to the output, always a
    new array: a stage's ``Write`` hands it to its buffer, which
    freezes it as the published version, while the next advance paints
    the canvas again.
    """

    def __init__(self, policy: TreeFill, dense: np.ndarray,
                 order: np.ndarray) -> None:
        super().__init__(policy, dense, order)
        self.shape = _spatial_shape(dense.shape, order, policy.spatial_ndim)
        self.trailing = dense.shape[len(self.shape):]
        self.widths = _widths(self.shape)
        self.levels, self.at_or_below = order_levels(order, self.shape)
        self.cosets = span_cosets(order, self.shape)
        self.plans = span_plans(order, self.shape)
        #: the dense array as one item per spatial element
        self.source = as_items(dense, len(self.shape))
        #: the canvas's spatial shape: a power of two along every axis
        self.box = tuple(1 << w for w in self.widths)
        self.crop = tuple(slice(0, s) for s in self.shape)
        #: flat canvas offsets of a level's block from its first cell
        self.blocks: dict[int, np.ndarray] = {}
        self._blank()

    def _blank(self) -> None:
        self.grid = np.zeros(self.box + self.trailing,
                             dtype=self.dense.dtype)
        #: the canvas as one item per spatial element: trailing axes
        #: are one opaque item, which a copy moves in one go
        self.items = as_items(self.grid, len(self.shape))
        self.cells = self.items.reshape(-1)
        #: the finest level painted so far
        self.level = 0
        self.painted = 0
        #: samples painted at each level or coarser
        self.below = np.zeros(len(self.at_or_below), dtype=np.int64)
        #: the finest level whose samples are all painted, or -1
        self.complete = -1

    def advance(self, count: int) -> np.ndarray:
        if count <= 0:
            return np.zeros_like(self.dense)
        count = min(count, len(self.order))
        # a kept plan is of a tree order, along which an advance that
        # moves forward never repaints
        plan = self.plans.get((self.painted, count))
        if plan is None:
            if count < self.painted or (
                    count > self.painted
                    and self.levels[self.painted:count].min() < self.level):
                self._blank()
            if count > self.painted:
                plan = self._plan(self.painted, count)
        if plan is not None:
            self._play(plan)
        self.painted = count
        return self.grid[self.crop].copy()

    def _plan(self, start: int, stop: int) -> PaintPlan:
        """The plan of painting ``order[start:stop]`` over the canvas,
        which holds the fill of ``order[:start]``."""
        levels = self.levels[start:stop]
        lo, hi = int(levels.min()), int(levels.max())
        if lo == hi:
            below = self.below.copy()
            below[lo:] += stop - start
        else:
            below = self.below + np.cumsum(np.bincount(
                levels, minlength=len(self.below)))
        below.flags.writeable = False
        complete = self.complete
        while (complete + 1 < len(below)
               and below[complete + 1] == self.at_or_below[complete + 1]):
            complete += 1
        # The finest level whose samples are all painted tiles the
        # output: new samples at or below it fill only their block of
        # it, since the rest of their own coarser blocks belongs to its
        # other samples.
        floor = max(complete, 0)
        runs = _level_runs(levels, lo, hi, floor)
        steps = None if runs is None else [
            (start + a, start + b, level,
             self._strided(start + a, start + b, level))
            for a, b, level in runs]
        return PaintPlan(start, stop, max(hi, floor), below, complete, steps)

    def _plan_pass(self, spans: Sequence[tuple[int, int]],
                   ) -> dict[tuple[int, int], PaintPlan]:
        """The plans of a pass along a tree order that advances this
        painter to the end of each of ``spans`` in turn, for the spans
        whose every step is strided.  Only the bookkeeping advances:
        the canvas is never painted."""
        plans = {}
        for start, stop in spans:
            if start != self.painted or stop <= start:
                break
            plan = self._plan(start, stop)
            self._settle(plan)
            self.painted = stop
            if plan.strided:
                plans[start, stop] = plan
        return plans

    def _settle(self, plan: PaintPlan) -> None:
        """Take the bookkeeping of ``plan`` painted."""
        self.below, self.complete = plan.below, plan.complete
        self.level = max(self.level, plan.level)

    def _play(self, plan: PaintPlan) -> None:
        """Paint ``plan`` onto the canvas."""
        self._settle(plan)
        if plan.steps is None:
            at, values = self._gather(plan.start, plan.stop)
            levels = self.levels[plan.start:plan.stop]
            floor = max(plan.complete, 0)
            for level in range(floor, plan.level + 1):
                sel = levels <= level if level == floor else levels == level
                if sel.any():
                    self._fill(at[sel], values[sel], level)
            return
        for start, stop, level, strided in plan.steps:
            if strided is None:
                self._fill(*self._gather(start, stop), level)
            else:
                blocks, pick, spread, slices = strided
                self.items.reshape(blocks)[pick] = \
                    self.source[slices].reshape(spread)

    def _gather(self, start: int, stop: int,
                ) -> tuple[np.ndarray, np.ndarray]:
        """The flat canvas cells and dense items of ``order[start:stop]``."""
        new = self.order[start:stop]
        if self.shape == self.box:
            at = new
        else:
            at = np.ravel_multi_index(np.unravel_index(new, self.shape),
                                      self.box)
        return at, self.source.reshape(-1)[new]

    def _strided(self, start: int, stop: int, level: int) -> Strided | None:
        """The block assignment that paints ``order[start:stop]`` with
        ``level`` blocks, when the run is a coset that starts one block
        at each of its samples; None otherwise.  The canvas as a grid of
        such blocks, strided to the coset, takes the samples' values
        broadcast over each block."""
        coset = self.cosets.get((start, stop))
        extent = [1 << max(w - level, 0) for w in self.widths]
        if coset is None or not all(
                a % e == 0 and (n == 1 or s % e == 0)
                for (a, s, n), e in zip(coset.axes, extent)):
            return None
        blocks, pick, spread = [], [], []
        for box, e, (first, stride, count) in zip(self.box, extent,
                                                  coset.axes):
            step = max(stride // e, 1)
            blocks += [box // e, e]
            pick += [slice(first // e, first // e + step * (count - 1) + 1,
                           step), slice(None)]
            spread += [count, 1]
        return tuple(blocks), tuple(pick), tuple(spread), coset.slices

    def _fill(self, at: np.ndarray, values: np.ndarray,
              level: int) -> None:
        """Fill the ``level`` blocks that start at flat canvas cells
        ``at`` with ``values``, looping over the blocks' cells or over
        the samples, whichever are fewer."""
        block = self.blocks.get(level)
        if block is None:
            extent = [1 << max(w - level, 0) for w in self.widths]
            block = self.blocks[level] = np.ravel_multi_index(
                np.indices(extent).reshape(len(extent), -1), self.box)
        if len(block) <= len(at):
            for offset in block:
                self.cells[at + offset] = values
        else:
            for first, value in zip(at, values):
                self.cells[first + block] = value


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

        shape = _spatial_shape(dense.shape, order, self.spatial_ndim)
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
        shape = _spatial_shape(dense.shape, order, self.spatial_ndim)
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
        shape = _spatial_shape(dense.shape, order, self.spatial_ndim)
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
