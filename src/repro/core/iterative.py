"""Iterative anytime stages (paper Section III-B1).

The general way to make any approximate-computing technique anytime:
execute the stage ``n`` times at increasing accuracy levels, each
intermediate computation overwriting the previous output, with the final
level being the precise computation (technique disabled).  This is the
construction behind anytime loop perforation and anytime approximate
storage — and, by design, it performs redundant work, which is why the
paper prefers diffusive stages when the technique admits them.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .buffer import Snapshot, VersionedBuffer
from .stage import Body, Compute, Lease, Stage, Write

__all__ = ["IterativeStage", "AccuracyLevel"]


class AccuracyLevel:
    """One intermediate computation ``f_i`` of an iterative stage.

    Attributes
    ----------
    fn:
        ``fn(*input_values) -> output``.  Must be pure (Property 1).
        Its output is handed to the stage's buffer, which freezes an
        array in place rather than copy it (an ownership-transfer
        ``Write``): ``fn`` returns a fresh array, an input, or a view
        of either, never one it goes on changing.
    cost:
        Work units of this level.
    label:
        Diagnostic label (e.g. ``"stride=4"`` or ``"0.001%"``).
    """

    def __init__(self, fn: Callable[..., Any], cost: float,
                 label: str = "") -> None:
        if cost < 0:
            raise ValueError(f"cost cannot be negative: {cost}")
        self.fn = fn
        self.cost = float(cost)
        self.label = label


class IterativeStage(Stage):
    """A stage re-executed at increasing accuracy levels.

    The last level must be the precise computation; each level's output
    atomically replaces the previous one in the output buffer.  Levels
    must have non-decreasing cost by default — the usual shape, since
    higher accuracy does more work — pass ``allow_any_costs=True`` for
    techniques where that does not hold (e.g. approximate storage, where
    every level touches all data).
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 inputs: tuple[VersionedBuffer, ...],
                 levels: Sequence[AccuracyLevel],
                 allow_any_costs: bool = False,
                 restart_policy: str = "complete") -> None:
        super().__init__(name, output, inputs,
                         restart_policy=restart_policy)
        if not levels:
            raise ValueError(f"stage {name!r} needs at least one level")
        if not allow_any_costs:
            for a, b in zip(levels, levels[1:]):
                if b.cost < a.cost:
                    raise ValueError(
                        f"stage {name!r}: level costs should not decrease "
                        f"({a.cost} -> {b.cost}); pass allow_any_costs="
                        f"True if intended")
        self.levels = list(levels)
        #: subclasses that implement :meth:`batch_levels` set this True
        #: to take multi-level command leases (PR 6's protocol)
        self.supports_batch = False

    def batch_levels(self, values: tuple[Any, ...], start: int,
                     count: int) -> "Sequence[Any]":
        """Compute levels ``start .. start+count-1`` in one vectorized
        call, returning their outputs in level order.

        Lease safety rule: each returned output must be bit-identical
        to ``self.levels[j].fn(*values)`` — a lease may only elide
        round-trips (and share work across levels), never change what
        gets published.  Each output is written as a level's is,
        frozen in place (see :class:`AccuracyLevel`).
        """
        raise NotImplementedError

    def run_once(self, snaps: dict[str, Snapshot],
                 inputs_final: bool) -> Body:
        values = self.input_values(snaps)
        last = len(self.levels) - 1
        # Fusing levels under a lease is only legal when the command
        # stream cannot depend on executor replies between the fused
        # levels: no preemption polls (same rule as DiffusiveStage).
        batchable = (self.supports_batch and self.emit_to is None
                     and self.restart_policy != "preempt")
        i = 0
        while i <= last:
            remaining = last - i + 1
            granted = 1
            if batchable and remaining > 1:
                granted = yield Lease(remaining)
                granted = max(1, min(int(granted), remaining))
            batch = None
            if granted > 1:
                batch = self.batch_levels(values, i, granted)
            for j in range(i, i + granted):
                level = self.levels[j]
                yield Compute(level.cost,
                              label=f"{self.name}:L{j}"
                                    + (f"({level.label})" if level.label
                                       else ""))
                out = (batch[j - i] if batch is not None
                       else level.fn(*values))
                yield Write(out, final=inputs_final and j == last,
                            transfer=True)
                if j != last and (yield from self.preempted()):
                    return
            i += granted

    def precise(self, input_values: dict[str, Any]) -> Any:
        values = tuple(input_values[b.name] for b in self.inputs)
        return self.levels[-1].fn(*values)

    @property
    def precise_cost(self) -> float:
        return self.levels[-1].cost

    @property
    def total_cost(self) -> float:
        """Work of the full anytime sequence (includes redundancy)."""
        return sum(level.cost for level in self.levels)

    @property
    def redundancy_ratio(self) -> float:
        """Anytime work over precise work (>= 1; the iterative tax)."""
        return self.total_cost / self.precise_cost
