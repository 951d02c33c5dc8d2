"""Output-sampled map stages (paper Section III-B2, "Output Sampling").

A map computation generates a set of distinct output elements, each a
function of some input elements: ``O_i[p(i)] = x_{m(p(i))}(I)``.  Output
sampling permutes the order in which output elements are produced; the
elements computed so far, completed by a fill policy, form the current
approximation.  This is the workhorse of the paper's image applications
(2dconv, debayer, histeq's apply stage, kmeans' assignment stage).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..anytime.coset import write_samples
from ..anytime.fill import FillPolicy, Painter, TreeFill
from ..anytime.permutations import Permutation, TreePermutation
from .buffer import VersionedBuffer
from .channel import UpdateChannel
from .diffusive import DiffusiveStage

__all__ = ["MapStage"]


class MapStage(DiffusiveStage):
    """A diffusive stage computing output elements in permuted order.

    Parameters
    ----------
    element_fn:
        ``element_fn(flat_indices, *input_values) -> values`` — computes
        the output elements at the given flat indices (vectorized).  Must
        be pure (Property 1).  A function marked with
        :func:`~repro.anytime.coset.reads_cosets` takes a sample set
        instead: a chunk that is a strided coset comes as its
        :class:`~repro.anytime.coset.Coset`, and its values, shaped like
        the coset's grid, are written with slices.
    out_shape:
        Shape of the output array; its leading axes (as many as
        ``shape``) are the sampled element space, trailing axes (e.g.
        RGB channels) ride along per element.
    dtype:
        Output element dtype.
    fill:
        Fill policy completing the unsampled elements; defaults to
        progressive-resolution :class:`TreeFill` for tree permutations
        and zero-fill semantics otherwise (a FillPolicy instance is
        required for non-tree permutations if filling matters).
    warm_start:
        Optional dense array seeding the output state — e.g. the
        previous frame's output in a streaming pipeline.  Elements not
        yet recomputed publish the warm values instead of fills, so
        even the very first version of a similar frame is already
        close (temporal diffusion).
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 inputs: tuple[VersionedBuffer, ...],
                 element_fn: Callable[..., np.ndarray],
                 shape: int | Sequence[int],
                 out_shape: Sequence[int] | None = None,
                 dtype: np.dtype | type = np.float64,
                 permutation: Permutation | None = None,
                 fill: FillPolicy | None = None,
                 chunks: int = 32,
                 cost_per_element: float = 1.0,
                 prefetcher: bool = False,
                 reorder: bool = False,
                 chunk_schedule: str = "uniform",
                 warm_start: np.ndarray | None = None,
                 emit_to: UpdateChannel | None = None,
                 restart_policy: str = "complete") -> None:
        permutation = permutation or TreePermutation()
        super().__init__(name, output, inputs, shape, permutation,
                         chunks=chunks, cost_per_element=cost_per_element,
                         prefetcher=prefetcher, reorder=reorder,
                         chunk_schedule=chunk_schedule,
                         emit_to=emit_to, restart_policy=restart_policy)
        self.element_fn = element_fn
        self.out_shape = (tuple(out_shape) if out_shape is not None
                          else self.shape)
        if self.out_shape[:len(self.shape)] != self.shape:
            raise ValueError(
                f"out_shape {self.out_shape} must start with the sampled "
                f"shape {self.shape}")
        self.dtype = np.dtype(dtype)
        if fill is None:
            fill = TreeFill(spatial_ndim=len(self.shape))
            if permutation.name != "tree":
                raise ValueError(
                    f"stage {name!r}: a fill policy is required for "
                    f"non-tree permutations")
        self.fill = fill
        if warm_start is not None:
            warm_start = np.asarray(warm_start, dtype=self.dtype)
            if warm_start.shape != self.out_shape:
                raise ValueError(
                    f"warm_start shape {warm_start.shape} != out_shape "
                    f"{self.out_shape}")
        self.warm_start = warm_start
        # Map outputs are elementwise, so state persists across passes:
        # a restarted pass (new input version) overwrites pixels
        # progressively while the rest keep last-pass values — the
        # published output never regresses to a coarse fill.
        self.persistent_state = True
        # materialize() returns state.copy() or a painter's copy — both
        # freshly allocated — so writes can transfer ownership and skip
        # the buffer's defensive copy.
        self.fresh_materialize = True
        # element_fn is pure and elementwise, so a run of chunks is
        # computed in one call and scattered chunk by chunk — each
        # published version is the one a call per chunk would give.
        self.supports_batch = True
        self.reads_cosets = bool(getattr(element_fn, "reads_cosets", False))

    def init_state(self, values: tuple[Any, ...]) -> np.ndarray:
        if self.warm_start is not None:
            return self.warm_start.copy()
        return np.zeros(self.out_shape, dtype=self.dtype)

    def batch_chunks(self, state: np.ndarray, indices: np.ndarray,
                     values: tuple[Any, ...]) -> np.ndarray:
        # one element_fn call for the run's chunks; pure — the dense
        # state is untouched until apply_chunk scatters chunk by chunk
        return np.asarray(self.element_fn(indices, *values))

    def apply_chunk(self, state: np.ndarray, indices: np.ndarray,
                    batch: np.ndarray, at: tuple[slice, ...],
                    values: tuple[Any, ...]) -> Any:
        computed = batch[at]
        write_samples(state, indices, computed, len(self.shape))
        return (indices, computed)

    def materialize(self, state: np.ndarray, count: int,
                    values: tuple[Any, ...]) -> np.ndarray:
        if count >= self.n_elements or self._completed_passes > 0 \
                or self.warm_start is not None:
            # The dense array is fully populated (a complete pass ran,
            # or a warm start seeded it); later chunks refine elements
            # in place, no fill needed.
            return state.copy()
        return self._painter.advance(count)

    def start_painter(self, state: np.ndarray) -> Painter:
        return self.fill.start(state, self.order)

    def warm(self) -> None:
        super().warm()
        self.fill.warm(self.order, self.out_shape, self.chunk_spans)

    def precise(self, input_values: dict[str, Any]) -> np.ndarray:
        values = tuple(input_values[b.name] for b in self.inputs)
        out = np.zeros(self.out_shape, dtype=self.dtype)
        flat = out.reshape((self.n_elements,)
                           + self.out_shape[len(self.shape):])
        all_indices = np.arange(self.n_elements, dtype=np.int64)
        flat[all_indices] = self.element_fn(all_indices, *values)
        return out
