"""Checker self-test: deliberately broken runs the checker must catch.

A checker that never fires proves nothing.  This module is the
falsifiability story for :mod:`repro.check.invariants`: a table of
:class:`SelfTestCase` entries, one (or more) per invariant class, each
producing a deliberately broken execution and asserting the checker
reports exactly the expected violation.

Two mechanisms, because the runtime actively *prevents* most
violations:

**live** cases
    Genuinely broken stages run on a real executor — a stage whose
    accuracy regresses mid-run, a stage that mutates its published
    value after sealing it, a stage that writes a sibling's buffer
    out-of-band.  These prove the checker catches misbehavior through
    the same trace plumbing real runs use.  (An executor whose buffers
    do not hold the published values — the process executor isolates
    workers, so in-worker mutation and foreign writes never reach the
    parent's buffers, exactly the protection Property 2 wants — cannot
    show those two, so they run only where ``HOLDS_VALUES`` is declared
    (:mod:`repro.core.backends`); the accuracy-regression case runs on
    every executor.)

**tamper** cases
    The runtime itself refuses some violations (a
    :class:`~repro.core.buffer.VersionedBuffer` raises on post-final
    writes rather than emitting a bogus event), so for those we replay
    *tampered event streams* through :func:`~repro.check.invariants.check_events`
    — the recorded-trace audit path — covering every invariant class
    uniformly, independent of executor.

``repro check --self-test`` runs the whole table and fails unless every
case is caught with no stray violations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.automaton import AnytimeAutomaton
from ..core.backends import EXECUTORS, executor_names
from ..core.buffer import VersionedBuffer
from ..core.scheduling import proportional_shares
from ..core.stage import Compute, PreciseStage, Stage, Write
from ..core.tracing import TraceEvent
from ..metrics.snr import snr_db
from .differential import _checked_run
from .invariants import Checker, CheckReport, check_events

__all__ = ["SelfTestCase", "SelfTestOutcome", "SelfTestReport",
           "SELF_TEST_CASES", "run_self_test", "LIVE_EXECUTORS"]

#: executors live cases may run on: every one in the table
LIVE_EXECUTORS = tuple(EXECUTORS)

#: executors whose buffers hold the published values, so a value
#: mutated or written out-of-band inside a stage reaches the checker
_VALUE_HOLDERS = executor_names(HOLDS_VALUES=True)


@dataclass(frozen=True)
class SelfTestCase:
    """One deliberately broken execution and its expected verdict.

    ``run(executor)`` produces a :class:`CheckReport`; ``executor`` is
    ``"trace"`` for tamper cases (executor-independent) and one of
    :data:`LIVE_EXECUTORS` for live cases.  ``allowed`` lists further
    invariants the breakage may legitimately trip as collateral.
    """

    name: str
    invariant: str
    mode: str                      # "tamper" | "live"
    description: str
    run: Callable[[str], CheckReport]
    executors: tuple[str, ...] = ("trace",)
    allowed: tuple[str, ...] = ()

    def evaluate(self, executor: str) -> "SelfTestOutcome":
        report = self.run(executor)
        found = sorted({v.invariant for v in report.violations})
        tolerated = set(self.allowed) | {self.invariant}
        stray = [k for k in found if k not in tolerated]
        return SelfTestOutcome(
            case=self.name, executor=executor,
            expected=self.invariant, found=found,
            caught=self.invariant in found, stray=stray,
            violations=[v.to_dict() for v in report.violations])


@dataclass
class SelfTestOutcome:
    case: str
    executor: str
    expected: str
    found: list[str]
    caught: bool
    stray: list[str]
    violations: list[dict[str, Any]]

    @property
    def ok(self) -> bool:
        return self.caught and not self.stray

    def describe(self) -> str:
        status = "caught" if self.ok else (
            "MISSED" if not self.caught else f"stray {self.stray}")
        return (f"{self.case} [{self.executor}] expected "
                f"{self.expected}: {status}")


@dataclass
class SelfTestReport:
    outcomes: list[SelfTestOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "report": "checker-self-test", "ok": self.ok,
            "cases": len(self.outcomes),
            "outcomes": [
                {"case": o.case, "executor": o.executor,
                 "expected": o.expected, "found": o.found,
                 "caught": o.caught, "stray": o.stray, "ok": o.ok,
                 "violations": o.violations}
                for o in self.outcomes],
        }

    def summary(self) -> str:
        ok = sum(1 for o in self.outcomes if o.ok)
        lines = [f"checker self-test: {ok}/{len(self.outcomes)} "
                 f"violation cases caught"]
        lines += [f"  {o.describe()}" for o in self.outcomes]
        return "\n".join(lines)


# -- tampered event streams ----------------------------------------------

def _ev(ts: float, kind: str, stage: str | None = None,
        target: str | None = None, **args: Any) -> TraceEvent:
    return TraceEvent(ts=ts, kind=kind, stage=stage, target=target,
                      args=args)


def _w(ts: float, version: int, final: bool = False,
       stage: str = "s", target: str = "b") -> TraceEvent:
    return _ev(ts, "buffer.write", stage, target,
               version=version, final=final)


def _tamper(events: list[TraceEvent],
            **kwargs: Any) -> Callable[[str], CheckReport]:
    def run(executor: str) -> CheckReport:
        return check_events(events, **kwargs)
    return run


def _tamper_mutation(make: Callable[[], Any],
                     mutate: Callable[[Any], None]
                     ) -> Callable[[str], CheckReport]:
    """A real buffer holding a mutable value, ``make()``, that
    ``mutate`` changes after its write event was recorded."""
    def run(executor: str) -> CheckReport:
        buffer = VersionedBuffer("b")
        buffer.register_writer("s")
        value = make()
        version = buffer.write(value, final=True, writer="s")
        checker = Checker(owners={"b": "s"}, hash_buffers={"b": buffer},
                          strict_order=True)
        checker.emit(_w(0.0, version, final=True))   # digest taken here
        mutate(value)           # post-publication mutation
        checker.close()                               # re-digest differs
        return checker.report()
    return run


# -- live broken stages ---------------------------------------------------

class _RegressingStage(Stage):
    """Publishes a near-precise version, then a much worse one.

    Breaks monotone refinement: the accuracy stream (via
    ``trace_metric``) collapses at version 2 before recovering to the
    precise output.
    """

    def run_once(self, snaps, inputs_final):
        (value,) = self.input_values(snaps)
        value = np.asarray(value, np.float64)
        yield Compute(1.0, label=f"{self.name}:good")
        yield Write(value + 0.01)
        yield Compute(1.0, label=f"{self.name}:bad")
        yield Write(np.full_like(value, 1e6))
        yield Compute(1.0, label=f"{self.name}:precise")
        yield Write(value.copy(), final=inputs_final)

    def precise(self, input_values):
        return np.asarray(input_values[self.inputs[0].name], np.float64)

    @property
    def precise_cost(self) -> float:
        return 3.0


class _MutatingStage(Stage):
    """Publishes a mutable value as final, then keeps mutating it.

    Lists pass through the buffer's freeze unshared, so the published
    approximation silently changes after sealing — exactly what the
    write-time digest / close-time re-digest pair exists to catch.
    """

    def run_once(self, snaps, inputs_final):
        (value,) = self.input_values(snaps)
        payload = [float(v) for v in np.asarray(value).ravel()[:4]]
        yield Compute(1.0, label=f"{self.name}:compute")
        yield Write(payload, final=inputs_final)
        payload[0] = -1.0       # post-seal mutation
        yield Compute(0.0, label=f"{self.name}:cover-tracks")

    def precise(self, input_values):
        value = input_values[self.inputs[0].name]
        return [float(v) for v in np.asarray(value).ravel()[:4]]

    @property
    def precise_cost(self) -> float:
        return 1.0


class _OutOfBandWriter(Stage):
    """Writes a downstream sibling's buffer directly (Property 2 break).

    The victim buffer's tracer still fires, so the checker sees a write
    whose attributed stage is not the registered owner.
    """

    def __init__(self, name: str, output: VersionedBuffer,
                 inputs: tuple[VersionedBuffer, ...],
                 victim: VersionedBuffer) -> None:
        super().__init__(name, output, inputs)
        self.victim = victim

    def run_once(self, snaps, inputs_final):
        (value,) = self.input_values(snaps)
        yield Compute(1.0, label=f"{self.name}:compute")
        # out-of-band: bypass the command protocol and poke the
        # victim's buffer (writer unattributed, so the buffer's own
        # Property-2 guard cannot refuse it)
        self.victim.write(np.asarray(value, np.float64) * 0.5)
        yield Write(np.asarray(value, np.float64), final=inputs_final)

    def precise(self, input_values):
        return np.asarray(input_values[self.inputs[0].name], np.float64)

    @property
    def precise_cost(self) -> float:
        return 1.0


def _input_vector() -> np.ndarray:
    return np.linspace(1.0, 16.0, 16)


def _run_live(build: Callable[[VersionedBuffer], list[Stage]],
              executor: str, metric: bool = False,
              tolerance_db: float | None = None) -> CheckReport:
    b_in = VersionedBuffer("in")
    data = _input_vector()
    stages = build(b_in)
    automaton = AnytimeAutomaton(stages, name="selftest",
                                 external={"in": data})
    trace = ({"trace_metric": snr_db, "trace_reference": data}
             if metric else {})
    _, checker = _checked_run(automaton, executor, proportional_shares,
                              60.0, tolerance_db, **trace)
    return checker.report()


def _live_regression(executor: str) -> CheckReport:
    return _run_live(
        lambda b_in: [_RegressingStage(
            "reg", VersionedBuffer("out"), (b_in,))],
        executor, metric=True, tolerance_db=0.0)


def _live_mutation(executor: str) -> CheckReport:
    return _run_live(
        lambda b_in: [_MutatingStage(
            "mut", VersionedBuffer("out"), (b_in,))],
        executor)


def _live_foreign_write(executor: str) -> CheckReport:
    def build(b_in: VersionedBuffer) -> list[Stage]:
        b0 = VersionedBuffer("b0")
        victim = VersionedBuffer("victim")
        evil = _OutOfBandWriter("evil", b0, (b_in,), victim)
        honest = PreciseStage(
            "honest", victim, (b0,),
            lambda v: np.asarray(v, np.float64) + 1.0, cost=1.0)
        return [evil, honest]
    return _run_live(build, executor)


def _live_clean(executor: str) -> CheckReport:
    """Control case: a correct pipeline must produce zero violations."""
    def build(b_in: VersionedBuffer) -> list[Stage]:
        b0 = VersionedBuffer("b0")
        out = VersionedBuffer("out")
        return [
            PreciseStage("double", b0, (b_in,),
                         lambda v: np.asarray(v, np.float64) * 2.0,
                         cost=2.0),
            PreciseStage("shift", out, (b0,),
                         lambda v: np.asarray(v, np.float64) + 1.0,
                         cost=1.0),
        ]
    report = _run_live(build, executor, metric=True, tolerance_db=0.0)
    # invert the verdict contract: this case "catches" its invariant
    # when there is nothing to catch — see the clean-run entry below
    return report


# -- the table ------------------------------------------------------------

SELF_TEST_CASES: tuple[SelfTestCase, ...] = (
    # tampered streams: one per invariant class
    SelfTestCase(
        "tamper-version-skip", "version-order", "tamper",
        "write version 3 follows version 1 (a version was lost)",
        _tamper([_w(0.0, 1), _w(1.0, 3)])),
    SelfTestCase(
        "tamper-version-regress", "version-order", "tamper",
        "write version 1 repeats after itself (reordered publication)",
        _tamper([_w(0.0, 1), _w(1.0, 1)])),
    SelfTestCase(
        "tamper-write-after-final", "write-after-final", "tamper",
        "a version newer than the final one appears",
        _tamper([_w(0.0, 1, final=True), _w(1.0, 2)])),
    SelfTestCase(
        "tamper-double-final", "write-after-final", "tamper",
        "two versions both claim finality",
        _tamper([_w(0.0, 1, final=True), _w(1.0, 2, final=True)])),
    SelfTestCase(
        "tamper-write-after-seal", "write-after-seal", "tamper",
        "a sealed (degraded) buffer grows a new version",
        _tamper([_w(0.0, 1),
                 _ev(1.0, "buffer.seal", "s", "b", version=1),
                 _w(2.0, 2)])),
    SelfTestCase(
        "tamper-seal-twice", "seal-once", "tamper",
        "the buffer lifecycle reports two seal transitions",
        _tamper([_w(0.0, 1),
                 _ev(1.0, "buffer.seal", "s", "b", version=1),
                 _ev(2.0, "buffer.seal", "s", "b", version=1)])),
    SelfTestCase(
        "tamper-foreign-writer", "foreign-writer", "tamper",
        "a write on s's buffer is attributed to another stage",
        _tamper([_w(0.0, 1, stage="intruder")], owners={"b": "s"})),
    SelfTestCase(
        "tamper-recv-unsent", "channel-causality", "tamper",
        "a consumer receives an update nobody emitted",
        _tamper([_ev(0.0, "channel.recv", "g", "c", queued=0)]),
        allowed=("channel-state",)),
    SelfTestCase(
        "tamper-queue-depth", "channel-state", "tamper",
        "an emit reports a queue depth that contradicts the balance",
        _tamper([_ev(0.0, "channel.emit", "f", "c", queued=5)])),
    SelfTestCase(
        "tamper-emit-after-close", "emit-after-close", "tamper",
        "an update is enqueued on a closed stream",
        _tamper([_ev(0.0, "channel.emit", "f", "c", queued=1),
                 _ev(1.0, "channel.close", "f", "c"),
                 _ev(2.0, "channel.emit", "f", "c", queued=2)]),
        allowed=("channel-state",)),
    SelfTestCase(
        "tamper-close-twice", "channel-close-once", "tamper",
        "the stream closes twice",
        _tamper([_ev(0.0, "channel.close", "f", "c"),
                 _ev(1.0, "channel.close", "f", "c")])),
    SelfTestCase(
        "tamper-unbalanced-unpin", "pin-balance", "tamper",
        "a shared-memory slot is unpinned more often than pinned",
        _tamper([_ev(0.0, "shm.pin", "w", "b", segment="seg", slot=3),
                 _ev(1.0, "shm.unpin", "w", "b", segment="seg", slot=3),
                 _ev(2.0, "shm.unpin", "w", "b", segment="seg",
                     slot=3)])),
    SelfTestCase(
        "tamper-accuracy-regression", "accuracy-regression", "tamper",
        "the accuracy stream falls below its running best",
        _tamper([_ev(0.0, "accuracy.sample", "s", "b", accuracy=10.0),
                 _ev(1.0, "accuracy.sample", "s", "b", accuracy=3.0)],
                tolerance_db=0.0)),
    SelfTestCase(
        "tamper-accuracy-nan", "accuracy-nan", "tamper",
        "the accuracy metric produced NaN",
        _tamper([_ev(0.0, "accuracy.sample", "s", "b",
                     accuracy=float("nan"))], tolerance_db=0.0)),
    SelfTestCase(
        "tamper-unbalanced-span", "span-balance", "tamper",
        "a stage start never finishes",
        _tamper([_ev(0.0, "stage.start", "s")])),
    SelfTestCase(
        "tamper-orphan-finish", "span-balance", "tamper",
        "a stage finish has no matching start",
        _tamper([_ev(0.0, "stage.finish", "s", status="completed")])),
    SelfTestCase(
        "tamper-value-mutated", "value-mutated", "tamper",
        "a published (list) value changes content after its write",
        _tamper_mutation(lambda: [1, 2, 3],
                         lambda value: operator.setitem(value, 0, 999))),
    SelfTestCase(
        "tamper-dict-value-mutated", "value-mutated", "tamper",
        "an array inside a published dict changes in an element numpy's "
        "repr leaves out",
        _tamper_mutation(
            lambda: {"image": np.zeros(4096)},
            lambda value: operator.setitem(value["image"], 2000, 1.0))),
    # live broken stages through real executors
    SelfTestCase(
        "live-accuracy-regression", "accuracy-regression", "live",
        "a stage whose second version is far worse than its first",
        _live_regression, executors=LIVE_EXECUTORS),
    SelfTestCase(
        "live-post-seal-mutation", "value-mutated", "live",
        "a stage mutates its published final value after sealing",
        _live_mutation, executors=_VALUE_HOLDERS),
    SelfTestCase(
        "live-foreign-write", "foreign-writer", "live",
        "a stage pokes a sibling's buffer out-of-band",
        _live_foreign_write, executors=_VALUE_HOLDERS),
)


def run_self_test(executors: tuple[str, ...] = LIVE_EXECUTORS,
                  progress: Callable[[str], None] | None = None,
                  ) -> SelfTestReport:
    """Run every self-test case; live cases on each requested executor.

    The report is ``ok`` only when every broken execution is caught
    under its expected invariant with no stray violations — plus a
    clean control pipeline per executor producing *zero* violations.
    """
    report = SelfTestReport()
    for case in SELF_TEST_CASES:
        targets = (case.executors if case.mode == "live"
                   else ("trace",))
        for executor in targets:
            if case.mode == "live" and executor not in executors:
                continue
            if progress:
                progress(f"  self-test: {case.name} [{executor}] ...")
            report.outcomes.append(case.evaluate(executor))
    # the control: a clean pipeline must not trip anything
    for executor in executors:
        if progress:
            progress(f"  self-test: clean-control [{executor}] ...")
        clean = _live_clean(executor)
        report.outcomes.append(SelfTestOutcome(
            case="clean-control", executor=executor,
            expected="(none)", found=sorted(
                {v.invariant for v in clean.violations}),
            caught=clean.ok, stray=[v.invariant
                                    for v in clean.violations],
            violations=[v.to_dict() for v in clean.violations]))
    return report
