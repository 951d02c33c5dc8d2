"""Distributive consumers for synchronous pipelines (paper III-C2).

When child ``g`` is distributive over the updates of a diffusive parent
``f`` — ``g(F_0 ◊ X_1 ◊ ... ◊ X_n) = g(F_0) ◊ g(X_1) ◊ ... ◊ g(X_n)`` —
recomputing ``g`` on every whole version ``F_i`` repeats work on the
parts of ``F`` already processed.  A synchronous pipeline streams the
updates ``X_i`` instead; the child applies ``g`` to each update once and
folds the result into its accumulated output:

    g_S(X, G_{i-1}) = G_{i-1} ◊ g(X_i)

All updates are necessary for the precise output, so the channel
guarantees none is dropped (unlike buffer versions, which may be skipped).
"""

from __future__ import annotations

from typing import Any, Callable

from .buffer import VersionedBuffer
from .channel import UpdateChannel
from .stage import (CHANNEL_END, Body, Compute, Recv, Stage, Write)

__all__ = ["SynchronousStage"]


class SynchronousStage(Stage):
    """A stage consuming a diffusive parent's update stream.

    Parameters
    ----------
    channel:
        The :class:`UpdateChannel` the parent streams into.
    initial_fn:
        ``() -> G_0`` — the child's output for the parent's initial state
        ``F_0`` (usually zeros).
    update_fn:
        ``update_fn(accumulator, update) -> accumulator`` — applies
        ``g`` to one update and folds it in (``G_{i-1} ◊ g(X_i)``).
        Must be pure in the Property-1 sense: it may build a new
        accumulator from the old one but must not touch other state.
    update_cost:
        ``update_cost(update) -> float`` work units for one update.
    precise_fn:
        ``precise_fn(parent_precise_output) -> G`` — direct baseline
        computation, used for validation and the cost model.
    precise_cost:
        Work units of the direct baseline computation of ``g``.
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 channel: UpdateChannel,
                 initial_fn: Callable[[], Any],
                 update_fn: Callable[[Any, Any], Any],
                 update_cost: Callable[[Any], float],
                 precise_fn: Callable[[Any], Any],
                 precise_cost: float) -> None:
        super().__init__(name, output, inputs=())
        self.channel = channel
        self.initial_fn = initial_fn
        self.update_fn = update_fn
        self.update_cost = update_cost
        self.precise_fn = precise_fn
        self._precise_cost = float(precise_cost)

    def body(self) -> Body:
        acc = self.initial_fn()
        while True:
            update = yield Recv()
            if update is CHANNEL_END:
                break
            yield Compute(self.update_cost(update),
                          label=f"{self.name}:update")
            acc = self.update_fn(acc, update)
            yield Write(acc, final=False)
        # Re-publish the accumulated output as final: every update was
        # consumed, so the aggregate equals the precise output.
        yield Write(acc, final=True)

    def run_once(self, snaps, inputs_final):  # pragma: no cover
        raise NotImplementedError(
            "SynchronousStage overrides body() directly")

    def precise(self, input_values: dict[str, Any]) -> Any:
        parent = self.channel.name
        if parent not in input_values:
            raise KeyError(
                f"precise evaluation of {self.name!r} needs the parent "
                f"output under key {parent!r}")
        return self.precise_fn(input_values[parent])

    @property
    def precise_cost(self) -> float:
        return self._precise_cost
