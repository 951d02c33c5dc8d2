"""Fault tolerance for anytime automata.

The model's central guarantee is interruptibility: the output buffer
always holds a valid approximation.  A runtime that discards that
approximation because one stage raised mid-run betrays the guarantee —
anytime semantics demand that a failing stage *degrades output quality*
instead of killing the run.  This module supplies the three pieces both
executors share:

:class:`FaultPolicy`
    What a stage failure triggers — kill the run (``fail``), freeze the
    stage at its last published version while the rest of the pipeline
    keeps refining (``degrade``), or restart the stage from a fresh
    generator (``restart``, bounded by ``max_retries`` with exponential
    backoff, falling back to degradation when retries are exhausted).
    Restarting is legal because buffers are monotone: the fresh
    generator re-consumes the *current* input snapshots, and diffusive
    stages keep their dense state across generators, so published
    accuracy never regresses below what downstream already saw.

:class:`StageReport`
    Structured per-stage outcome (attempts, failures, degraded/failed
    flags, last error) carried by ``ThreadedResult`` and ``SimResult``
    instead of the old raise-and-lose behavior.

:class:`FaultInjector`
    A deterministic test harness that injects exceptions or delays into
    stage generators by stage name and command count.  Determinism: the
    count is cumulative across restarts, so a one-shot fault does not
    re-fire on the retry, and the same schedule replayed against the
    simulator yields bit-identical timelines.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Mapping

from .stage import Compute

__all__ = [
    "FaultPolicy", "StageReport", "FaultInjected", "FaultSpec",
    "FaultInjector", "resolve_policy", "parse_fault_spec",
    "DEFAULT_POLICY",
]

#: dispositions a policy may name
_ON_FAILURE = ("fail", "degrade", "restart")


class FaultInjected(RuntimeError):
    """The exception raised by an injected ``error`` fault."""


@dataclass(frozen=True)
class FaultPolicy:
    """Per-stage failure handling.

    Parameters
    ----------
    max_retries:
        How many times a ``restart`` policy re-runs the stage from a
        fresh generator before falling back to degradation.  Ignored by
        ``fail`` and ``degrade`` (their disposition is immediate).
    backoff:
        Delay before the first restart — wall seconds under the
        threaded executor, virtual work units under the simulator.
    backoff_factor:
        Multiplier applied to ``backoff`` for each further restart
        (exponential backoff).
    on_failure:
        ``"fail"`` halts the whole automaton (the pre-fault-tolerance
        behavior, minus the raise — see the executors' ``strict``
        flag); ``"degrade"`` seals the stage's output at its last
        published version and lets downstream finish on it;
        ``"restart"`` retries from a fresh generator, degrading once
        ``max_retries`` is exhausted.
    """

    max_retries: int = 0
    backoff: float = 0.0
    backoff_factor: float = 2.0
    on_failure: str = "fail"

    def __post_init__(self) -> None:
        if self.on_failure not in _ON_FAILURE:
            raise ValueError(
                f"on_failure must be one of {_ON_FAILURE}, got "
                f"{self.on_failure!r}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries cannot be negative: {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff cannot be negative: {self.backoff}")
        if self.backoff_factor <= 0:
            raise ValueError(
                f"backoff_factor must be positive: {self.backoff_factor}")

    def decide(self, failures: int) -> str:
        """Disposition after the ``failures``-th failure (1-based).

        ``"restart"`` while retries remain; the terminal disposition
        (``"fail"`` or ``"degrade"``) otherwise.
        """
        if self.on_failure == "restart":
            return "restart" if failures <= self.max_retries else "degrade"
        return self.on_failure

    def restart_delay(self, failures: int) -> float:
        """Backoff before the restart following the Nth failure."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * self.backoff_factor ** max(failures - 1, 0)


#: the default policy reproduces the historical semantics: a failing
#: stage halts the automaton (but the run now *returns* its partial
#: result instead of raising, unless the executor runs ``strict``)
DEFAULT_POLICY = FaultPolicy()

FaultMap = Mapping[str, FaultPolicy]


def resolve_policy(faults: FaultPolicy | FaultMap | None,
                   stage_name: str) -> FaultPolicy:
    """The policy governing one stage.

    ``faults`` may be a single policy (applied to every stage), a
    ``{stage_name: policy}`` mapping (the key ``"*"`` supplies the
    default for unlisted stages), or None (fail-fast default).
    """
    if faults is None:
        return DEFAULT_POLICY
    if isinstance(faults, FaultPolicy):
        return faults
    policy = faults.get(stage_name)
    if policy is None:
        policy = faults.get("*", DEFAULT_POLICY)
    return policy


@dataclass
class StageReport:
    """Structured outcome of one stage's execution.

    ``attempts`` counts generator starts (1 for an untroubled run);
    ``failures`` counts raised attempts; ``degraded`` marks a stage
    frozen at its last published version (own failure, exhausted
    retries, or an upstream that can no longer feed it); ``failed``
    marks the stage that halted the run under an ``on_failure="fail"``
    policy; ``completed`` means the stage ran its generator to the
    natural end and was not degraded.

    The remaining fields are per-stage observability counters
    (maintained by the kernel on every executor whether or not a trace
    sink is attached): ``commands`` counts protocol commands the stage
    yielded, ``waits`` counts blocking waits (inputs, channel recv,
    backpressured emit) and ``wait_time`` their total duration — virtual
    work units under the simulator, wall seconds elsewhere.
    ``round_trips`` counts completed control-pipe request/reply pairs on
    the process backend (always 0 elsewhere): one per worker request
    (write, wait, poll, emit, receive, channel close or failure
    report); ``benchmarks/latency``
    reports it per published terminal version
    (``procexec.round_trips_per_version``).
    """

    stage: str
    attempts: int = 0
    failures: int = 0
    degraded: bool = False
    failed: bool = False
    completed: bool = False
    last_error: str | None = None
    error_history: list[str] = field(default_factory=list)
    commands: int = 0
    waits: int = 0
    wait_time: float = 0.0
    round_trips: int = 0

    def record_failure(self, exc: BaseException) -> int:
        """Log one failed attempt; returns the failure count."""
        self.failures += 1
        self.last_error = repr(exc)
        self.error_history.append(repr(exc))
        return self.failures

    def record_wait(self, elapsed: float) -> None:
        """Log one completed blocking wait of ``elapsed`` duration."""
        self.waits += 1
        self.wait_time += elapsed

    @property
    def retries(self) -> int:
        """Restarts beyond the first attempt."""
        return max(self.attempts - 1, 0)

    @property
    def ok(self) -> bool:
        """Ran to natural completion without degradation."""
        return self.completed and not self.degraded and not self.failed

    def summary(self) -> str:
        state = ("failed" if self.failed
                 else "degraded" if self.degraded
                 else "completed" if self.completed
                 else "stopped")
        text = (f"{self.stage}: {state}, attempts={self.attempts}, "
                f"failures={self.failures}, commands={self.commands}, "
                f"waits={self.waits}, wait_time={self.wait_time:.3g}")
        if self.last_error is not None:
            text += f", last_error={self.last_error}"
        return text


# ---------------------------------------------------------------------------
# Fault injection


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Fires while the stage's cumulative command count ``c`` satisfies
    ``at <= c < at + times``.  The count survives restarts, so an
    ``error`` fault with ``times=1`` kills exactly one attempt and the
    retry sails past it, while ``times=k`` fails ``k`` consecutive
    commands — i.e. the first ``k`` attempts when ``at`` is reached.
    """

    stage: str
    at: int
    kind: str = "error"          # "error" | "delay"
    times: int = 1
    delay: float = 0.0           # seconds (threaded) / work units (sim)
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in ("error", "delay"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay < 0:
            raise ValueError(f"delay cannot be negative: {self.delay}")


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a CLI fault spec: ``STAGE:AT[:error|:delay=SECONDS][:xTIMES]``.

    Examples: ``conv:5`` (error at the 5th command), ``conv:5:x3``
    (three consecutive errors), ``norm:2:delay=0.5`` (0.5 units of
    injected latency).
    """
    parts = text.split(":")
    if len(parts) < 2:
        raise ValueError(
            f"fault spec {text!r} must look like STAGE:AT[:KIND][:xTIMES]")
    stage, at_text = parts[0], parts[1]
    try:
        at = int(at_text)
    except ValueError:
        raise ValueError(
            f"fault spec {text!r}: AT must be an integer, got "
            f"{at_text!r}") from None
    kind, delay, times = "error", 0.0, 1
    for extra in parts[2:]:
        if extra == "error":
            kind = "error"
        elif extra.startswith("delay="):
            kind = "delay"
            delay = float(extra[len("delay="):])
        elif extra.startswith("x"):
            times = int(extra[1:])
        else:
            raise ValueError(
                f"fault spec {text!r}: unknown component {extra!r}")
    return FaultSpec(stage=stage, at=at, kind=kind, times=times,
                     delay=delay)


class FaultInjector:
    """Deterministically injects faults into stage command streams.

    The injector wraps a stage's generator; every command the stage
    yields increments that stage's cumulative counter, and any
    :class:`FaultSpec` due at that count fires — raising
    :class:`FaultInjected` (``error``) or stalling the stage
    (``delay``: a real ``sleep`` under the threaded executor, an extra
    zero-energy :class:`Compute` under the simulator).

    Single-use, like the automaton itself: counters persist across
    stage restarts within one run, so build a fresh injector per run.
    """

    def __init__(self, faults: Iterable[FaultSpec] = ()) -> None:
        self.faults = list(faults)
        self._counts: dict[str, int] = {}
        #: log of fired faults as (stage, command_count, kind) triples
        self.triggered: list[tuple[str, int, str]] = []
        #: optional observability hook ``tracer(stage, count, kind)``,
        #: installed by an executor when tracing is enabled; fires once
        #: per triggered fault (see :mod:`repro.core.tracing`)
        self.tracer = None

    @classmethod
    def crash(cls, stage: str, at: int, times: int = 1) -> "FaultInjector":
        """Shorthand: one error fault on ``stage``'s ``at``-th command."""
        return cls([FaultSpec(stage=stage, at=at, times=times)])

    @classmethod
    def from_specs(cls, specs: Iterable[str]) -> "FaultInjector":
        """Build from CLI-style spec strings (:func:`parse_fault_spec`)."""
        return cls([parse_fault_spec(s) for s in specs])

    @classmethod
    def random_schedule(cls, seed: int, stage_names: Iterable[str],
                        n_faults: int = 1, max_at: int = 32,
                        error_prob: float = 1.0,
                        max_delay: float = 1.0) -> "FaultInjector":
        """A seed-deterministic schedule: same seed, same faults.

        Draws ``n_faults`` specs over ``stage_names`` with command
        indices in ``[1, max_at]``; each is an error with probability
        ``error_prob``, otherwise a delay up to ``max_delay``.
        """
        rng = random.Random(seed)
        names = sorted(stage_names)
        if not names:
            raise ValueError("random_schedule needs at least one stage")
        specs = []
        for _ in range(n_faults):
            stage = names[rng.randrange(len(names))]
            at = rng.randint(1, max_at)
            if rng.random() < error_prob:
                specs.append(FaultSpec(stage=stage, at=at))
            else:
                specs.append(FaultSpec(
                    stage=stage, at=at, kind="delay",
                    delay=rng.uniform(0.0, max_delay)))
        return cls(specs)

    def count(self, stage: str) -> int:
        """Commands seen from ``stage`` so far (across restarts)."""
        return self._counts.get(stage, 0)

    def _due(self, stage: str, count: int) -> FaultSpec | None:
        for spec in self.faults:
            if spec.stage == stage and spec.at <= count < spec.at + spec.times:
                return spec
        return None

    def wrap(self, stage_name: str, gen: Generator,
             realtime: bool = False) -> Generator:
        """Instrument a stage generator; pass-through when no fault
        targets the stage."""
        if not any(spec.stage == stage_name for spec in self.faults):
            return gen
        return self._instrument(stage_name, gen, realtime)

    def _instrument(self, stage: str, gen: Generator,
                    realtime: bool) -> Generator:
        send: Any = None
        while True:
            try:
                cmd = gen.send(send)
            except StopIteration:
                return
            count = self._counts.get(stage, 0) + 1
            self._counts[stage] = count
            spec = self._due(stage, count)
            if spec is not None:
                self.triggered.append((stage, count, spec.kind))
                if self.tracer is not None:
                    self.tracer(stage, count, spec.kind)
                if spec.kind == "error":
                    raise FaultInjected(
                        f"{spec.message} (stage {stage!r}, "
                        f"command {count})")
                if realtime:
                    _time.sleep(spec.delay)
                else:
                    yield Compute(spec.delay, energy=0.0,
                                  label=f"{stage}:injected-delay")
            send = yield cmd
