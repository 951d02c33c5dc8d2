"""Diffusive anytime stages (paper Section III-B2).

A diffusive stage never throws work away: each intermediate computation
``f_i(I, O_{i-1})`` *builds on* the output state left by its predecessor,
so accuracy is diffused into the output buffer through useful updates
rather than rewrites.  The stage walks its element space in the order
given by a bijective sampling permutation, in chunks; after each chunk it
publishes a fresh output version derived from its internal state.

:class:`DiffusiveStage` is the chunking engine; concrete kernels
(:class:`~repro.core.mapstage.MapStage` for output sampling,
:class:`~repro.core.reduction.ReductionStage` for input sampling) plug in
three operations: initialize state, process a chunk of permuted indices,
and materialize the publishable output from state.

When the stage is the parent of a synchronous pipeline, each chunk's
update is also streamed into the attached channel, and the channel is
closed after the last chunk (paper Section III-C2).
"""

from __future__ import annotations

import functools
from typing import Any, Sequence

import numpy as np

from ..anytime.coset import Coset
from ..anytime.fill import Painter
from ..anytime.permutations import (Permutation, derive_cosets,
                                    sample_order, span_cosets)
from .buffer import Snapshot, VersionedBuffer
from .channel import UpdateChannel
from .stage import (Body, CloseChannel, Compute, Emit, Lease, Stage,
                    Write, access_penalty)

__all__ = ["DiffusiveStage", "chunk_boundaries", "leased_spans"]


def chunk_boundaries(n: int, chunks: int,
                     schedule: str = "uniform",
                     growth: float = 2.0) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``chunks`` [start, stop) spans.

    ``schedule="uniform"`` gives near-equal spans.  ``"geometric"``
    makes each span ``growth`` times the previous one: the first output
    version appears much earlier (paper IV-C2's output-granularity
    tradeoff — early availability vs. update frequency) while the total
    version count stays the same.
    """
    return list(_boundaries(int(n), int(chunks), schedule, float(growth)))


@functools.lru_cache(maxsize=64)
def _boundaries(n: int, chunks: int, schedule: str,
                growth: float) -> tuple[tuple[int, int], ...]:
    """:func:`chunk_boundaries`, kept per process: every pass and every
    run's warm step asks for the same few."""
    if n < 0:
        raise ValueError(f"n cannot be negative: {n}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    chunks = min(chunks, n) or 1
    if schedule == "uniform":
        edges = np.linspace(0, n, chunks + 1).astype(np.int64)
    elif schedule == "geometric":
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        weights = growth ** np.arange(chunks, dtype=np.float64)
        cuts = np.concatenate(([0.0], np.cumsum(weights)))
        edges = np.round(cuts / cuts[-1] * n).astype(np.int64)
        # guarantee every span is non-empty where possible
        for i in range(1, chunks + 1):
            edges[i] = max(edges[i], edges[i - 1] + 1)
        edges = np.minimum(edges, n)
        edges[-1] = n
    else:
        raise ValueError(f"unknown chunk schedule {schedule!r}")
    return tuple((int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])
                 if b > a)


def leased_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``spans`` and every aligned power-of-two run of them — the runs
    of ``2**j`` spans from a multiple of ``2**j`` — each as one
    ``(start, stop)``: what one :class:`Lease` of a pass can fuse when
    its grants are powers of two."""
    out = list(spans)
    width = 2
    while width <= len(spans):
        out += [(spans[i][0], spans[i + width - 1][1])
                for i in range(0, len(spans) - width + 1, width)]
        width *= 2
    return out


class DiffusiveStage(Stage):
    """Chunked diffusion over a permuted element space.

    Parameters
    ----------
    shape:
        Shape of the sampled element space (what the permutation indexes);
        an int for flat spaces.
    permutation:
        The sampling permutation (must be bijective; paper III-B2).
    chunks:
        Number of intermediate output versions per pass — the output
        granularity knob of paper Section IV-C2.
    chunk_schedule:
        ``"uniform"`` (default) or ``"geometric"``: geometric spans
        grow by 2x each, trading update regularity for a much earlier
        first output.
    cost_per_element:
        Work units to process one element (before the access penalty).
    prefetcher:
        Whether a permutation-aware prefetcher is assumed (reduces the
        non-sequential access penalty; paper IV-C3).
    reorder:
        Whether a near-data engine lays the data out in permutation
        order before each pass (paper IV-C3's in-memory reordering):
        the access penalty drops to 1.0 and one streaming reorder pass
        is charged at the start of each pass.

    Subclasses implement :meth:`init_state`, :meth:`process_chunk`,
    :meth:`materialize` and :meth:`precise`.
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 inputs: tuple[VersionedBuffer, ...],
                 shape: int | Sequence[int],
                 permutation: Permutation,
                 chunks: int = 32,
                 cost_per_element: float = 1.0,
                 prefetcher: bool = False,
                 reorder: bool = False,
                 reorder_engine: "ReorderEngine | None" = None,
                 chunk_schedule: str = "uniform",
                 emit_to: UpdateChannel | None = None,
                 restart_policy: str = "complete") -> None:
        from ..hw.reorder import ReorderEngine

        super().__init__(name, output, inputs, emit_to=emit_to,
                         restart_policy=restart_policy)
        if prefetcher and reorder:
            raise ValueError(
                f"stage {name!r}: choose one locality mitigation "
                f"(prefetcher or reorder)")
        self.reorder = reorder
        self.reorder_engine = reorder_engine or ReorderEngine()
        if chunk_schedule not in ("uniform", "geometric"):
            raise ValueError(
                f"unknown chunk schedule {chunk_schedule!r}")
        self.chunk_schedule = chunk_schedule
        self.shape = ((int(shape),) if isinstance(shape, (int, np.integer))
                      else tuple(int(s) for s in shape))
        self.permutation = permutation
        self.chunks = int(chunks)
        self.cost_per_element = float(cost_per_element)
        self.prefetcher = prefetcher
        #: whether state survives across passes (new input versions).
        #: Elementwise kernels keep it — stale elements computed from the
        #: previous input version remain valid approximations, so a
        #: restarted pass never regresses below the last published
        #: accuracy.  Accumulator kernels must reset (they would
        #: double-count).  Subclasses set this.
        self.persistent_state = False
        #: whether :meth:`materialize` returns a *freshly allocated*
        #: value every call (never an alias of internal state or an
        #: input).  Kernels that guarantee this opt in, and each Write
        #: becomes an ownership transfer: the buffer freezes the array
        #: in place instead of copying it defensively, so publishing a
        #: version costs O(1) array allocations.  Subclasses set this.
        self.fresh_materialize = False
        #: whether the kernel can compute several chunks' elements in a
        #: single vectorized pass (see :meth:`batch_chunks`).  When set,
        #: the stage asks the executor for a :class:`Lease` and fuses up
        #: to the granted number of levels into one numpy call — while
        #: still yielding the identical per-level command sequence, so
        #: the published versions are bit-identical at any lease size.
        #: Subclasses with a pure, slice-decomposable kernel opt in.
        self.supports_batch = False
        #: whether the kernel operations take a sample set — a
        #: :class:`~repro.anytime.coset.Coset` where the chunk (or the
        #: fused run) is one, else the index array — instead of always
        #: the index array.  A coset's samples come in raster order of
        #: its grid, not in visit order, so a stage that streams its
        #: updates to a channel keeps the index arrays.  Subclasses
        #: whose kernels read and write through a sample set opt in.
        self.reads_cosets = False
        self._state: Any = None
        self._completed_passes = 0
        #: the fill painter of the pass in flight (see
        #: :meth:`start_painter`): made when a pass starts, dropped when
        #: it ends
        self._painter: Painter | None = None
        #: contract-mode trim (see :mod:`repro.core.contract`): when
        #: set, each pass processes only the first ``element_limit``
        #: elements of the permutation.  The stage then computes a
        #: *different (approximate) function* — its last output is
        #: marked final but is no longer the precise reduction/map.
        self.element_limit: int | None = None

    # -- kernel interface ----------------------------------------------

    def init_state(self, values: tuple[Any, ...]) -> Any:
        """Create the per-pass mutable state (``O_0`` plus bookkeeping)."""
        raise NotImplementedError

    def process_chunk(self, state: Any, indices: np.ndarray,
                      values: tuple[Any, ...]) -> Any:
        """Fold one chunk of permuted flat indices (or its sample set,
        see :attr:`reads_cosets`) into ``state``.

        Returns the update object streamed to a synchronous child (ignored
        when no channel is attached); return None when the update is not
        meaningful.
        """
        raise NotImplementedError

    def materialize(self, state: Any, count: int,
                    values: tuple[Any, ...]) -> Any:
        """Publishable output after ``count`` of ``n`` elements."""
        raise NotImplementedError

    def start_painter(self, state: Any) -> Painter | None:
        """The fill :class:`~repro.anytime.fill.Painter` that
        :meth:`materialize` advances during a pass over ``state``, kept
        as ``self._painter``; None for kernels that publish without a
        fill."""
        return None

    def batch_chunks(self, state: Any, indices: np.ndarray,
                     values: tuple[Any, ...]) -> Any:
        """Vectorized pre-computation over several chunks at once.

        ``indices`` is the concatenation of the next k chunks' permuted
        flat indices, or the coset they make up together.  Must be
        **pure**: no mutation of ``state`` — the per-level state
        evolution happens chunk by chunk in :meth:`apply_chunk`, which
        is what keeps each published version bit-identical to the
        unbatched execution.
        """
        raise NotImplementedError

    def apply_chunk(self, state: Any, indices: np.ndarray, batch: Any,
                    at: tuple[slice, ...], values: tuple[Any, ...]) -> Any:
        """Fold one chunk's share of a :meth:`batch_chunks` result into
        ``state``.

        ``batch[at]`` is this chunk's share: a run of the element axis
        for index arrays, the chunk's place in the fused grid
        (:meth:`~repro.anytime.coset.Coset.within`) for cosets.  Same
        return contract as :meth:`process_chunk`.
        """
        raise NotImplementedError

    # -- machinery -------------------------------------------------------

    @property
    def n_elements(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def order(self) -> np.ndarray:
        """The visit order, shared read-only through the per-process memo
        (:func:`~repro.anytime.permutations.sample_order`).

        Validated to be a bijection before it is memoised: a
        non-bijective permutation would silently break the model's
        central guarantee (every element processed exactly once, so the
        final output is precise; paper III-B2).
        """
        return sample_order(self.permutation, self.shape)

    @property
    def chunk_spans(self) -> list[tuple[int, int]]:
        """The ``(start, stop)`` spans of the order a whole pass
        publishes a version after."""
        return chunk_boundaries(self.n_elements, self.chunks,
                                schedule=self.chunk_schedule)

    def warm(self) -> None:
        order = self.order
        if self.reads_cosets:
            spans = self.chunk_spans
            derive_cosets(order, self.shape, ("leases", *spans),
                          lambda: leased_spans(spans))

    @property
    def penalty(self) -> float:
        if self.reorder:
            # the data is physically in sampling order: sequential access
            return access_penalty("sequential")
        return access_penalty(self.permutation.name, self.prefetcher)

    def chunk_cost(self, size: int) -> float:
        return size * self.cost_per_element * self.penalty

    def run_once(self, snaps: dict[str, Snapshot],
                 inputs_final: bool) -> Body:
        values = self.input_values(snaps)
        order = self.order
        if self.element_limit is not None:
            order = order[:self.element_limit]
        if self.persistent_state and self._state is not None:
            state = self._state
        else:
            state = self.init_state(values)
        self._state = state
        self._painter = self.start_painter(state)
        try:
            yield from self._pass(state, order, values, inputs_final)
        finally:
            self._painter = None

    def _pass(self, state: Any, order: np.ndarray, values: tuple[Any, ...],
              inputs_final: bool) -> Body:
        if self.reorder:
            yield Compute(
                self.reorder_engine.reorder_cost(len(order)),
                label=f"{self.name}:reorder")
        spans = chunk_boundaries(len(order), self.chunks,
                                 schedule=self.chunk_schedule)
        # Batched multi-level execution is only legal when the command
        # stream cannot depend on executor replies between the fused
        # levels: no synchronous update stream and no preemption polls.
        batchable = (self.supports_batch and self.emit_to is None
                     and self.restart_policy != "preempt")
        # Cosets come in raster order, so only a stage with no update
        # stream reads them; they were derived ahead (see warm).
        cosets = (span_cosets(order, self.shape)
                  if self.reads_cosets and self.emit_to is None else {})
        ci = 0
        while ci < len(spans):
            remaining = len(spans) - ci
            granted = 1
            if batchable and remaining > 1:
                granted = yield Lease(remaining)
                granted = max(1, min(int(granted), remaining))
            run = spans[ci:ci + granted]
            batch = None
            if granted > 1:
                base, end = run[0][0], run[-1][1]
                fused = cosets.get((base, end))
                parts = [cosets.get(span) for span in run]
                if fused is None or any(p is None for p in parts):
                    fused = None
                    parts = [order[a:b] for a, b in run]
                batch = self.batch_chunks(
                    state, order[base:end] if fused is None else fused,
                    values)
            for j, (start, stop) in enumerate(run):
                yield Compute(self.chunk_cost(stop - start),
                              label=f"{self.name}:chunk{ci}")
                if batch is not None:
                    samples = parts[j]
                    at = (samples.within(fused)
                          if isinstance(samples, Coset)
                          else (slice(start - base, stop - base),))
                    update = self.apply_chunk(state, samples, batch, at,
                                              values)
                else:
                    samples = cosets.get((start, stop))
                    if samples is None:
                        samples = order[start:stop]
                    update = self.process_chunk(state, samples, values)
                if self.emit_to is not None:
                    yield Emit(update)
                last = ci == len(spans) - 1
                yield Write(self.materialize(state, stop, values),
                            final=inputs_final and last,
                            transfer=self.fresh_materialize)
                ci += 1
                if not last and (yield from self.preempted()):
                    # a preempted pass never closes the channel; only
                    # source stages may emit, and sources are never
                    # preempted
                    return
        self._completed_passes += 1
        if self.emit_to is not None:
            yield CloseChannel()

    @property
    def precise_cost(self) -> float:
        """Precise baseline cost: one sequential pass, no penalty."""
        return self.n_elements * self.cost_per_element

    @property
    def anytime_pass_cost(self) -> float:
        """Cost of one full anytime pass (with access penalty)."""
        return self.n_elements * self.cost_per_element * self.penalty
