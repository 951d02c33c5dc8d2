"""Conformance checking for anytime automata (``repro.check``).

The model's value proposition rests on three runtime guarantees
(paper Section III):

1. **Monotone refinement** — every stage's output sequence is
   non-decreasing in accuracy (versions strictly ordered, accuracy
   non-regressing up to a declared tolerance).
2. **Interrupt validity** — an interrupt at any moment observes a
   valid, atomically published approximation (never a torn value,
   never a version that later regresses or mutates).
3. **Convergence** — uninterrupted execution reaches the bit-exact
   precise output.

We now have three executors (simulated, threaded, process) plus a
preemptive serving layer; this package machine-checks that they all
uphold those guarantees on the same automaton:

:mod:`repro.check.invariants`
    A composable :class:`Checker` that attaches to any executor
    through the existing trace-sink hook and validates the event
    stream: version ordering, seal-once semantics, no post-seal or
    post-final writes, single-writer attribution, channel emit/recv
    causality, shared-memory pin/unpin balance, and monotone accuracy
    with a per-buffer tolerance knob.
:mod:`repro.check.differential`
    A differential harness running one application on all three
    executors (and under :class:`~repro.serve.AnytimeServer`
    preempt/resume), judging each run with :func:`judge_run` — the one
    verdict on a finished run, which the restore legs and the fuzzer
    share — and cross-checking trace shapes into a machine-readable
    report.  Its restore mode (:func:`run_restore_differential`) interrupts a
    run on executor A, checkpoints it (:mod:`repro.ckpt`), restores on
    executor B, and requires the continuation to be indistinguishable
    from a never-interrupted run.
:mod:`repro.check.fleetdiff`
    A differential for the serving fleet: a duplicate-heavy workload
    on a TCP fleet must seal finals bit-identical to the in-process
    reference, and a SIGKILLed worker's runs must migrate in-band and
    still finish bit-exact with zero invariant violations
    (``repro check --fleet``).
:mod:`repro.check.fuzz`
    Property-based fuzzing of random automata (iterative / diffusive /
    synchronous mixes, every sampling permutation, fault-injection
    schedules, random interrupt points), shrinking failures to a
    replayable JSON seed file.
:mod:`repro.check.selftest`
    A table of deliberately broken executions — one per invariant —
    asserting the checker catches each (``repro check --self-test``).

CLI: ``python -m repro check`` (see ``repro check --help``).
"""

from .differential import (DEFAULT_APPS, DEFAULT_EXECUTORS,
                           DifferentialReport, RestoreReport,
                           RunObservation, judge_run, run_differential,
                           run_restore_differential)
from .fleetdiff import FleetDifferentialReport, run_fleet_differential
from .invariants import (CheckFailure, Checker, CheckReport, Violation,
                         check_events)
from .selftest import (SELF_TEST_CASES, SelfTestCase, SelfTestOutcome,
                       SelfTestReport, run_self_test)

__all__ = [
    "Checker", "CheckReport", "CheckFailure", "Violation",
    "check_events",
    "run_differential", "DifferentialReport", "RunObservation",
    "judge_run",
    "run_restore_differential", "RestoreReport",
    "run_fleet_differential", "FleetDifferentialReport",
    "DEFAULT_APPS", "DEFAULT_EXECUTORS",
    "run_self_test", "SELF_TEST_CASES", "SelfTestCase",
    "SelfTestOutcome", "SelfTestReport",
]
