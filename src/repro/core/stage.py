"""Computation stages and the executor command protocol.

An automaton stage is written as a *generator of commands*: it yields
:class:`Compute` (do this much work), :class:`Write` (publish an output
version), :class:`WaitInputs` (block until an input buffer has a newer
version), :class:`PollInputs` (ask whether one has),
:class:`Emit`/:class:`CloseChannel` (stream updates to a synchronous
child) and :class:`Recv` (consume such updates).  One kernel
(:mod:`repro.core.kernel`) interprets the stream for all three
executors — the deterministic discrete-event simulator, real threads
and one process per stage — so a stage is written once and runs
identically under any of them.  How many chunks or levels a stage
computes per kernel call is its own choice (:data:`BATCH`), not a
command.

The base :class:`Stage` provides the asynchronous-pipeline consumer loop
of paper Section III-C1: wait until every input has a version, run the
stage's full anytime sequence on that snapshot, then repeat whenever any
input publishes a newer version, stopping after processing final inputs.
This is precisely "at any point in time, g simply processes the most
recent available output of f", with the guarantee that g eventually
computes on F_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from .buffer import Snapshot, VersionedBuffer
from .channel import UpdateChannel

__all__ = [
    "Compute", "Write", "WaitInputs", "PollInputs", "Emit", "CloseChannel",
    "Recv", "Command", "CHANNEL_END", "BATCH", "Stage", "PreciseStage",
    "DEFAULT_ACCESS_PENALTIES", "access_penalty",
]


# ---------------------------------------------------------------------------
# Commands


@dataclass(frozen=True)
class Compute:
    """Charge ``cost`` work units (and ``energy`` units, default = cost)."""

    cost: float
    energy: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValueError(f"cost cannot be negative: {self.cost}")
        if self.energy is not None and self.energy < 0:
            raise ValueError(f"energy cannot be negative: {self.energy}")


@dataclass(frozen=True)
class Write:
    """Publish ``value`` as the stage's next output version.

    ``transfer=True`` declares an ownership-transfer write: the stage
    promises ``value`` is freshly allocated and never touched again, so
    the buffer may freeze it in place instead of copying defensively
    (see :meth:`VersionedBuffer.write <repro.core.buffer.VersionedBuffer.write>`).
    """

    value: Any
    final: bool = False
    transfer: bool = False


@dataclass(frozen=True)
class WaitInputs:
    """Block until all inputs are non-empty and any is newer than ``seen``.

    The executor responds with ``dict[str, Snapshot]`` of all inputs.
    """

    seen: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class PollInputs:
    """Non-blocking: executor responds True if a newer input exists."""

    seen: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Emit:
    """Stream one update to the stage's attached output channel."""

    update: Any


@dataclass(frozen=True)
class CloseChannel:
    """Mark the stage's output channel complete."""


@dataclass(frozen=True)
class Recv:
    """Receive the next update from the stage's consumed channel.

    The executor responds with the update, or :data:`CHANNEL_END` when the
    channel is closed and drained.
    """


Command = (Compute, Write, WaitInputs, PollInputs, Emit, CloseChannel, Recv)

#: sentinel sent in response to :class:`Recv` on a drained, closed channel
CHANNEL_END = object()


# ---------------------------------------------------------------------------
# Access-cost penalties (paper Section IV-C3)

#: Relative per-element access-cost multipliers by permutation family.
#: Sequential access streams through the cache; tree and LFSR orders
#: sacrifice locality (the paper's explanation for automata reaching the
#: precise output later than the baseline).  The values are calibrated
#: from the cache-simulator ablation (benchmarks/test_ablation_locality)
#: and can be overridden per stage.  "prefetched" reflects a permutation-
#: aware prefetcher (paper IV-C3).
DEFAULT_ACCESS_PENALTIES: dict[str, float] = {
    "sequential": 1.0,
    "reversed": 1.0,
    "strided": 1.3,
    "tree": 1.8,
    "lfsr": 2.2,
    "prefetched": 1.1,
}


def access_penalty(permutation_name: str,
                   prefetcher: bool = False) -> float:
    """Cost multiplier for accessing data in a permutation's order."""
    if prefetcher:
        return DEFAULT_ACCESS_PENALTIES["prefetched"]
    return DEFAULT_ACCESS_PENALTIES.get(permutation_name, 1.5)


# ---------------------------------------------------------------------------
# Stages

Body = Generator[Any, Any, None]

#: How many chunks or accuracy levels a batching stage fuses into one
#: vectorized kernel call (:attr:`Stage.batch_width`).  The stage still
#: yields one ``Compute`` and one ``Write`` per chunk or level, so every
#: published version is bit-identical at any width (the batch safety
#: rule): the width only sets how much is computed before the first of
#: a run's writes.  Read when a pass starts, so a forked worker sees the
#: value its parent had.
BATCH = 8


class Stage:
    """Base class for all computation stages.

    Parameters
    ----------
    name:
        Stage name, unique within a graph.
    output:
        The stage's single output buffer; ownership is registered at
        construction (Property 2).
    inputs:
        Buffers this stage consumes (empty for source stages).
    emit_to:
        Optional :class:`UpdateChannel` the stage streams its diffusive
        updates into, making it the parent of a synchronous pipeline.
        Only source stages may stream updates (their diffusion runs
        exactly once, so the update stream is well defined).
    restart_policy:
        ``"complete"`` (default) finishes the current anytime sequence
        before looking at newer input versions; ``"preempt"`` abandons it
        as soon as a newer input version is available.
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 inputs: tuple[VersionedBuffer, ...] = (),
                 emit_to: UpdateChannel | None = None,
                 restart_policy: str = "complete") -> None:
        if restart_policy not in ("complete", "preempt"):
            raise ValueError(
                f"unknown restart policy {restart_policy!r}")
        self.name = name
        self.output = output
        self.inputs = tuple(inputs)
        self.emit_to = emit_to
        self.restart_policy = restart_policy
        #: whether the kernel can compute several chunks or levels in
        #: one vectorized call and still publish each one's version bit
        #: for bit (see :attr:`batch_width`).  Subclasses with a pure,
        #: slice-decomposable kernel opt in.
        self.supports_batch = False
        self._seen: dict[str, int] = {}
        output.register_writer(name)

    # -- protocol -----------------------------------------------------

    def body(self) -> Body:
        """The stage's full command stream (asynchronous consumer loop)."""
        seen = {b.name: 0 for b in self.inputs}
        passes = 0
        self._seen = dict(seen)
        while True:
            snaps = yield WaitInputs(dict(seen))
            seen = {n: s.version for n, s in snaps.items()}
            self._seen = seen
            inputs_final = all(s.final for s in snaps.values())
            if self.emit_to is not None and passes > 0:
                # A synchronous parent's update stream is only well
                # defined for a single diffusion pass; re-running would
                # emit into a closed channel or double-count updates.
                raise RuntimeError(
                    f"stage {self.name!r} streams updates but saw a "
                    f"second input version; synchronous parents must "
                    f"consume final inputs only")
            yield from self.run_once(snaps, inputs_final)
            passes += 1
            if inputs_final:
                break

    def run_once(self, snaps: dict[str, Snapshot],
                 inputs_final: bool) -> Body:
        """One full anytime sequence over a fixed input snapshot.

        Must yield :class:`Compute`/:class:`Write` commands; the last
        write should carry ``final=inputs_final`` so finality propagates
        down the pipeline exactly when the precise inputs were used.
        """
        raise NotImplementedError

    @property
    def batch_width(self) -> int:
        """How many chunks or levels one kernel call of a pass fuses:
        :data:`BATCH` for a stage that batches, 1 for one that does not
        or whose command stream may depend on a reply between them (an
        update stream, or preemption polls)."""
        if (self.supports_batch and self.emit_to is None
                and self.restart_policy != "preempt"):
            return BATCH
        return 1

    def warm(self) -> None:
        """Derive into this process's memos what the body reads and no
        input changes.  Every executor calls it before the run starts,
        so the work is done once per process, and a forked stage worker
        inherits it.  The base stage has nothing to derive."""

    def preempted(self) -> Body:
        """Helper for preemptible sequences: yields a poll, returns
        True when a newer input version should abort the current pass."""
        if self.restart_policy != "preempt" or not self.inputs:
            return False
        newer = yield PollInputs(dict(self._seen))
        return bool(newer)

    # -- baseline / analysis -------------------------------------------

    def precise(self, input_values: dict[str, Any]) -> Any:
        """Compute the stage's precise output directly (baseline path)."""
        raise NotImplementedError

    @property
    def precise_cost(self) -> float:
        """Work units of one precise execution (for the cost model)."""
        raise NotImplementedError

    @property
    def anytime(self) -> bool:
        """Whether the stage produces more than one output version."""
        return True

    def input_values(self, snaps: dict[str, Snapshot]) -> tuple[Any, ...]:
        """Input snapshot values in declared input order."""
        return tuple(snaps[b.name].value for b in self.inputs)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        ins = ",".join(b.name for b in self.inputs)
        return (f"<{type(self).__name__} {self.name}: "
                f"[{ins}] -> {self.output.name}>")


class PreciseStage(Stage):
    """A non-anytime stage: one computation, one (final) output version.

    The paper's pipelines contain these for "small (typically sequential)
    tasks such as normalization of data structures (as in histeq) or
    reducing thread-privatized data (as in kmeans)"; the pipeline supports
    them because correctness only needs the n = 1 case.
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 inputs: tuple[VersionedBuffer, ...],
                 fn: Callable[..., Any], cost: float,
                 restart_policy: str = "complete") -> None:
        super().__init__(name, output, inputs,
                         restart_policy=restart_policy)
        self.fn = fn
        self._cost = float(cost)

    def run_once(self, snaps: dict[str, Snapshot],
                 inputs_final: bool) -> Body:
        yield Compute(self._cost, label=f"{self.name}:precise")
        value = self.fn(*self.input_values(snaps))
        yield Write(value, final=inputs_final)

    def precise(self, input_values: dict[str, Any]) -> Any:
        return self.fn(*(input_values[b.name] for b in self.inputs))

    @property
    def precise_cost(self) -> float:
        return self._cost

    @property
    def anytime(self) -> bool:
        return False
