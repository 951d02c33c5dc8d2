"""Differential conformance: one automaton, every executor, one truth.

The convergence guarantee says an uninterrupted run reaches the
bit-exact precise output *regardless of the execution substrate*.  This
harness runs one application on the simulated, threaded and process
executors — each with a :class:`~repro.check.invariants.Checker`
attached — and judges each run with :func:`judge_run`, the one verdict
on a finished run that the restore legs and the fuzzer
(:mod:`repro.check.fuzz`) share: a complete run, every produced buffer
published with exactly one final, a final bit-exact
(:func:`~repro.serve.digest.value_digest`) against the graph's precise
evaluation, source version ladders equal to an uninterrupted run's,
ladders in order, and zero checker violations.  Across legs it checks
that the same stages and buffers appear.

A fourth leg replays the same application under
:class:`~repro.serve.AnytimeServer` preemption: two concurrent requests
share one slot with a tiny quantum, the harness polls their snapshots
mid-flight (each observed snapshot must refine monotonically — the
interrupt-validity guarantee), and both must still finish bit-exact.

Everything lands in a machine-readable :class:`DifferentialReport`
(``to_dict()`` / ``repro check --json``).
"""

from __future__ import annotations

import threading
import time as _time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..apps.registry import get_app
from ..core.backends import EXECUTORS, executor_class
from ..core.tracing import InMemorySink
from ..serve.digest import value_digest
from .invariants import Checker, CheckReport

__all__ = ["RunObservation", "DifferentialReport", "run_differential",
           "RestoreReport", "run_restore_differential", "judge_run",
           "DEFAULT_EXECUTORS", "DEFAULT_APPS"]

#: every executor in the table (:data:`repro.core.backends.EXECUTORS`)
DEFAULT_EXECUTORS = tuple(EXECUTORS)

#: the acceptance trio: a diffusive map app, an iterative multi-stage
#: app, and a loop-perforated wavelet app
DEFAULT_APPS = ("2dconv", "kmeans", "dwt53")


@dataclass
class RunObservation:
    """What one executor did with one build of the automaton."""

    executor: str
    wall_s: float
    completed: bool
    stopped_early: bool
    final_matches_precise: bool
    version_counts: dict[str, int]
    final_counts: dict[str, int]
    stage_set: list[str]
    kind_counts: dict[str, int]
    check: CheckReport
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "executor": self.executor, "wall_s": self.wall_s,
            "completed": self.completed,
            "stopped_early": self.stopped_early,
            "final_matches_precise": self.final_matches_precise,
            "version_counts": dict(self.version_counts),
            "final_counts": dict(self.final_counts),
            "stage_set": list(self.stage_set),
            "kind_counts": dict(self.kind_counts),
            "check": self.check.to_dict(),
            "errors": list(self.errors),
        }


@dataclass
class DifferentialReport:
    """Cross-executor conformance verdict for one application."""

    app: str
    size: int
    seed: int
    ok: bool
    observations: list[RunObservation]
    mismatches: list[dict[str, Any]]
    serve: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "report": "differential-conformance",
            "app": self.app, "size": self.size, "seed": self.seed,
            "ok": self.ok,
            "observations": [o.to_dict() for o in self.observations],
            "mismatches": list(self.mismatches),
            "serve": self.serve,
        }

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        legs = ", ".join(o.executor for o in self.observations)
        serve = ("" if self.serve is None else
                 f" + serve({'ok' if self.serve.get('ok') else 'FAIL'})")
        return (f"{self.app}: {verdict} across [{legs}]{serve}; "
                f"{len(self.mismatches)} mismatch(es)")


def _checked_run(automaton: Any, executor: str, schedule: Any,
                 timeout_s: float, tolerance_db: float | None,
                 forward: Any = None,
                 **trace: Any) -> tuple[Any, Checker]:
    """Run ``automaton`` on ``executor`` under an invariant checker.

    The checker reads the executor's two facts
    (:mod:`repro.core.backends`): values are hashed only where the
    buffers hold them, and only a virtual-time trace is held to one
    event order.  A virtual-time run takes ``schedule``, a wall-clock
    run ``timeout_s``; a restored automaton seeds the checker first.
    """
    backend = executor_class(executor)
    checker = Checker.for_graph(
        automaton.graph, hash_values=backend.HOLDS_VALUES,
        strict_order=not backend.WALL_CLOCK, forward=forward,
        tolerances={automaton.terminal_buffer_name: tolerance_db})
    if automaton.resumed:
        checker.seed_resumed(automaton.graph)
    clock = ({"timeout_s": timeout_s} if backend.WALL_CLOCK
             else {"schedule": schedule})
    result = automaton.run(executor, trace=checker, **clock, **trace)
    checker.close()
    return result, checker


def _uninterrupted(build: Callable[[], Any],
                   **options: Any) -> tuple[str, dict[str, int]]:
    """What an uninterrupted run of ``build()`` must end on: the
    :func:`~repro.serve.digest.value_digest` of its precise terminal
    value, and each source buffer's version count on the simulated
    executor.  Source stages see final inputs from the start, so their
    version ladders are structural: the same on every executor."""
    automaton = build()
    precise = value_digest(automaton.precise_output())
    records = automaton.run_simulated(**options).timeline.records
    return precise, {
        s.output.name: sum(r.buffer == s.output.name for r in records)
        for s in automaton.graph.source_stages()}


def judge_run(automaton: Any, result: Any, checker: Checker,
              expected: tuple[str, dict[str, int]] | None
              ) -> list[dict[str, Any]]:
    """The verdict on a finished run: each rule it breaks, as a
    ``{"kind", "detail", ...}`` mismatch; none when the run is correct.

    Every run keeps ``ladder-order`` (each buffer's versions rise and
    its times do not fall in record order; under a strict-order
    checker, a virtual-time executor's, all records are time-ordered)
    and ``invariant-violations`` (the checker reports none).  A run
    that should have converged, ``expected`` being
    :func:`_uninterrupted`'s answer for it, also keeps ``incomplete``
    (it completed), ``missing-versions`` and ``final-count`` (every
    buffer a stage produces published, with exactly one final),
    ``final-mismatch`` (the terminal's final record and final value
    have the precise digest) and ``version-count`` (each source buffer
    published as many versions as the uninterrupted run).
    """
    problems: list[dict[str, Any]] = []

    def note(kind: str, detail: str, **extra: Any) -> None:
        problems.append({"kind": kind, "detail": detail, **extra})

    records = result.timeline.records
    ladders: dict[str, list[Any]] = {}
    for r in records:
        ladders.setdefault(r.buffer, []).append(r)
    for buffer, ladder in ladders.items():
        if any(a.version >= b.version or a.time > b.time
               for a, b in zip(ladder, ladder[1:])):
            note("ladder-order",
                 f"buffer {buffer!r} versions or times fall: "
                 f"{[(r.version, r.time) for r in ladder]}",
                 buffer=buffer)
    times = [r.time for r in records]
    if checker.strict_order and times != sorted(times):
        note("ladder-order", "records are not in time order")
    if not checker.ok:
        note("invariant-violations",
             f"{len(checker.violations)} checker violation(s): "
             + "; ".join(v.describe() for v in checker.violations[:5]),
             violations=[v.to_dict() for v in checker.violations])
    if expected is None:
        return problems
    precise, source_counts = expected
    if not result.completed:
        note("incomplete", "run did not complete",
             errors=[f"{name}: {exc!r}" for name, exc in result.errors])
    for name in (stage.output.name for stage in automaton.graph.stages):
        finals = sum(r.final for r in ladders.get(name, []))
        if name not in ladders:
            note("missing-versions", f"buffer {name!r} never published",
                 buffer=name)
        elif finals != 1:
            note("final-count", f"buffer {name!r} carries {finals} final "
                 f"versions (expected exactly 1)", buffer=name)
    terminal = automaton.terminal_buffer_name
    final = result.timeline.final_record(terminal)
    values = [result.final_values.get(terminal)]
    # a checkpoint's prefix records keep no value
    if final is not None and (final.value is not None
                              or not automaton.resumed):
        values.append(final.value)
    if final is None or any(value_digest(v) != precise for v in values):
        note("final-mismatch",
             "final output differs from the precise evaluation")
    for buffer, want in source_counts.items():
        got = len(ladders.get(buffer, []))
        if got != want:
            note("version-count",
                 f"source buffer {buffer!r} published {got} versions; "
                 f"an uninterrupted run publishes {want}", buffer=buffer)
    return problems


def _observe(spec: Any, image: np.ndarray, executor: str,
             reference: Any, expected: tuple[str, dict[str, int]],
             timeout_s: float, tolerance_db: float | None
             ) -> tuple[RunObservation, list[dict[str, Any]]]:
    """Run one fresh build on one executor with a checker attached,
    and judge it."""
    automaton = spec.build(image)
    mem = InMemorySink()
    t0 = _time.perf_counter()
    result, checker = _checked_run(
        automaton, executor, spec.schedule, timeout_s, tolerance_db,
        forward=mem, trace_metric=spec.metric, trace_reference=reference)
    wall = _time.perf_counter() - t0
    problems = judge_run(automaton, result, checker, expected)
    records = result.timeline.records
    stage_set = sorted({e.stage for e in mem.events
                        if e.kind == "stage.start" and e.stage})
    return RunObservation(
        executor=executor, wall_s=wall, completed=result.completed,
        stopped_early=result.stopped_early,
        final_matches_precise=all(p["kind"] != "final-mismatch"
                                  for p in problems),
        version_counts=dict(Counter(r.buffer for r in records)),
        final_counts=dict(Counter(r.buffer for r in records if r.final)),
        stage_set=stage_set, kind_counts=mem.counts(),
        check=checker.report(),
        errors=[f"{name}: {exc!r}" for name, exc in result.errors]
    ), problems


def _serve_input(spec: Any, size: int, seed: int, quantum_s: float,
                 timeout_s: float) -> tuple[np.ndarray, int]:
    """Pick an input large enough that one request spans many quanta.

    Preemption only happens when a run outlives its quantum; the fast
    apps (dwt53 finishes a 24-point signal in ~1 ms) would otherwise
    complete in their first tenure and the preempt/resume leg would
    test nothing.  Probe solo wall time, doubling the input until a
    run costs at least a dozen quanta.  The first run of an app at a
    new size pays one-time costs, so the second of two runs is timed.
    """
    target_s = 12.0 * quantum_s
    for _ in range(8):
        image = spec.make_input(size, seed)
        for _ in range(2):
            t0 = _time.perf_counter()
            spec.build(image).run_threaded(timeout_s=timeout_s)
            elapsed = _time.perf_counter() - t0
        if elapsed >= target_s:
            break
        size *= 2
    return spec.make_input(size, seed), size


def _observe_serve(spec: Any, size: int, seed: int,
                   timeout_s: float, quantum_s: float = 0.005,
                   requests: int = 2) -> dict[str, Any]:
    """Replay the app under AnytimeServer preempt/resume.

    ``requests`` concurrent submissions share a single slot, so the
    scheduler must preempt and resume to be fair; every mid-flight
    snapshot poll must observe a monotonically refining, never-regressing
    approximation, and every request must still converge bit-exactly.
    """
    from ..serve import SLO, AnytimeServer

    problems: list[str] = []
    image, size = _serve_input(spec, size, seed, quantum_s, timeout_s)
    reference = spec.reference_for(image)
    precise = value_digest(spec.build(image).precise_output())
    with AnytimeServer(slots=1, queue_limit=requests + 1,
                       quantum_s=quantum_s, tick_s=0.002) as server:
        sessions = [
            server.submit(lambda: spec.build(image),
                          SLO(deadline_s=timeout_s),
                          metric=lambda v: spec.metric(v, reference),
                          name=f"diff-{i}")
            for i in range(requests)]
        seen = {s.name: 0 for s in sessions}
        exhausted = {s.name: False for s in sessions}
        deadline = _time.monotonic() + timeout_s
        while (not all(s.done for s in sessions)
               and _time.monotonic() < deadline):
            for s in sessions:
                snap = s.snapshot()
                if snap.version < seen[s.name]:
                    problems.append(
                        f"{s.name}: snapshot regressed from version "
                        f"{seen[s.name]} to {snap.version}")
                if exhausted[s.name] and not snap.exhausted:
                    problems.append(
                        f"{s.name}: snapshot un-exhausted (was "
                        f"final/sealed, now neither)")
                seen[s.name] = max(seen[s.name], snap.version)
                exhausted[s.name] = exhausted[s.name] or snap.exhausted
            _time.sleep(0.002)
        drained = server.drain(timeout_s=timeout_s)
        stats = server.stats()
    if not drained:
        problems.append("server drain timed out")
    states: dict[str, str] = {}
    for s in sessions:
        r = s.result(timeout_s=0.0)
        states[s.name] = r.state.value
        if r.state.value != "completed":
            problems.append(f"{s.name}: ended {r.state.value}")
        elif value_digest(r.snapshot.value) != precise:
            problems.append(f"{s.name}: completed output is not "
                            f"bit-exact against the precise reference")
    if stats.get("preemptions", 0) < 1:
        problems.append(
            f"no preemption occurred ({requests} requests on 1 slot "
            f"with quantum {quantum_s}s should contend)")
    return {
        "ok": not problems,
        "requests": requests,
        "size": size,
        "states": states,
        "preemptions": stats.get("preemptions", 0),
        "resumes": stats.get("resumes", 0),
        "problems": problems,
    }


def run_differential(app: str = "2dconv", size: int = 24, seed: int = 0,
                     executors: tuple[str, ...] = DEFAULT_EXECUTORS,
                     serve: bool = True, timeout_s: float = 120.0,
                     tolerance_db: float | None = None,
                     progress: Callable[[str], None]
                     | None = None) -> DifferentialReport:
    """Run one app across executors and cross-check the guarantees.

    ``tolerance_db`` bounds how far (dB) the terminal buffer's accuracy
    may fall below its running best; None (the default) exempts it, as
    the apps' metrics are non-monotone by design (kmeans' assignment
    refinement can lower SNR while centroids move, dwt53's metric jumps
    across perforation levels).
    """
    spec = get_app(app)
    image = spec.make_input(size, seed)
    reference = spec.reference_for(image)
    expected = _uninterrupted(lambda: spec.build(image),
                              schedule=spec.schedule)

    observations: list[RunObservation] = []
    mismatches: list[dict[str, Any]] = []

    def note(kind: str, detail: str, **extra: Any) -> None:
        mismatches.append({"kind": kind, "detail": detail, **extra})

    for executor in executors:
        if progress:
            progress(f"  {app}: {executor} executor ...")
        obs, problems = _observe(spec, image, executor, reference,
                                 expected, timeout_s, tolerance_db)
        observations.append(obs)
        mismatches.extend({**p, "detail": f"{executor}: {p['detail']}",
                           "executor": executor} for p in problems)

    # cross-executor shape checks
    for obs in observations[1:]:
        base = observations[0]
        if obs.stage_set != base.stage_set:
            note("trace-shape",
                 f"stage sets differ: {base.executor} saw "
                 f"{base.stage_set}, {obs.executor} saw "
                 f"{obs.stage_set}")
        missing = set(base.version_counts) - set(obs.version_counts)
        extra = set(obs.version_counts) - set(base.version_counts)
        if missing or extra:
            note("trace-shape",
                 f"buffer sets differ between {base.executor} and "
                 f"{obs.executor} (missing={sorted(missing)}, "
                 f"extra={sorted(extra)})")

    serve_leg: dict[str, Any] | None = None
    if serve:
        if progress:
            progress(f"  {app}: AnytimeServer preempt/resume ...")
        serve_leg = _observe_serve(spec, size, seed, timeout_s)
        if not serve_leg["ok"]:
            note("serve", "; ".join(serve_leg["problems"]))

    ok = not mismatches
    return DifferentialReport(app=app, size=size, seed=seed, ok=ok,
                              observations=observations,
                              mismatches=mismatches, serve=serve_leg)


# ---------------------------------------------------------------------------
# Restore differential (repro.ckpt): interrupt on A, continue on B


@dataclass
class RestoreReport:
    """Cross-executor checkpoint/restore conformance for one app.

    Each leg interrupts a fresh run on executor A mid-flight, writes a
    checkpoint, restores it onto executor B, runs the continuation to
    completion under an invariant checker, and requires the logical run
    (prefix + continuation) to pass :func:`judge_run` as one that was
    never interrupted, with a checkpoint header naming executor A.
    """

    app: str
    size: int
    seed: int
    ok: bool
    legs: list[dict[str, Any]]
    mismatches: list[dict[str, Any]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "report": "restore-differential",
            "app": self.app, "size": self.size, "seed": self.seed,
            "ok": self.ok, "legs": list(self.legs),
            "mismatches": list(self.mismatches),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        pairs = ", ".join(f"{l['src']}>{l['dst']}" for l in self.legs)
        return (f"{self.app}: {verdict} across [{pairs}]; "
                f"{len(self.mismatches)} mismatch(es)")


def _interrupt_on(spec: Any, image: np.ndarray, executor: str,
                  path: str, timeout_s: float,
                  min_versions: int = 2) -> None:
    """Run a fresh build on ``executor``, checkpoint it mid-run.

    A virtual-time leg interrupts deterministically via a stop
    condition's ``checkpoint_at_stop``; the wall-clock legs launch,
    wait on an event the run sets at each terminal version and at its
    end (:meth:`RunHandle.watch`, as the server waits) until
    ``min_versions`` are out, the run ends or ``timeout_s`` passes, and
    checkpoint the live handle.  A fast run may complete before the
    checkpoint lands — that is a legal capture too (the restore then
    merely replays a finished run), so no retry is needed.
    """
    from ..core.controller import VersionCountStop

    automaton = spec.build(image)
    if not executor_class(executor).WALL_CLOCK:
        automaton.run(executor, schedule=spec.schedule,
                      stop=VersionCountStop(min_versions),
                      checkpoint_at_stop=path)
        return
    handle = automaton.launch(executor)
    buffer = automaton.graph.buffers[automaton.terminal_buffer_name]
    deadline = _time.monotonic() + timeout_s
    progressed = threading.Event()
    handle.watch(progressed)
    try:
        while True:
            progressed.clear()
            remaining = deadline - _time.monotonic()
            if buffer.version >= min_versions or handle.finished \
                    or remaining <= 0:
                break
            progressed.wait(remaining)
    finally:
        handle.unwatch(progressed)
    handle.checkpoint(path)
    handle.request_stop()
    handle.result()


def _observe_restore(spec: Any, image: np.ndarray, src: str, dst: str,
                     expected: tuple[str, dict[str, int]],
                     reference: Any, path: str, timeout_s: float,
                     tolerance_db: float | None) -> dict[str, Any]:
    """One leg: checkpoint on ``src``, continue on ``dst``, and judge
    the logical run (prefix + continuation) as an uninterrupted one."""
    from ..ckpt import read_header
    from ..core.automaton import AnytimeAutomaton

    problems: list[str] = []
    t0 = _time.perf_counter()
    _interrupt_on(spec, image, src, path, timeout_s)
    header = read_header(path)
    if header.get("executor") != src:
        problems.append(
            f"checkpoint header names executor "
            f"{header.get('executor')!r}, expected {src!r}")
    restored = AnytimeAutomaton.restore(
        path, builder=lambda: spec.build(image))
    result, checker = _checked_run(
        restored, dst, spec.schedule, timeout_s, tolerance_db,
        trace_metric=spec.metric, trace_reference=reference)
    wall = _time.perf_counter() - t0
    problems += [p["detail"]
                 for p in judge_run(restored, result, checker, expected)]
    return {
        "src": src, "dst": dst, "ok": not problems,
        "wall_s": wall, "live_at_capture":
            sorted(header.get("summary", {}).get("live_stages", [])),
        "problems": problems,
    }


def run_restore_differential(app: str = "2dconv", size: int = 48,
                             seed: int = 0,
                             pairs: list[tuple[str, str]] | None = None,
                             workdir: str | None = None,
                             timeout_s: float = 120.0,
                             tolerance_db: float | None = None,
                             progress: Callable[[str], None]
                             | None = None) -> RestoreReport:
    """Checkpoint/restore conformance across executor pairs.

    ``pairs`` defaults to every ordered (src, dst) combination of the
    executors — with three, six cross-executor migrations plus three
    same-executor resumes.  Checkpoints are written under ``workdir``
    (a temp directory when None) and left in place on failure so CI can
    attach them as artifacts.  ``tolerance_db`` is as in
    :func:`run_differential`.
    """
    import os
    import tempfile

    spec = get_app(app)
    image = spec.make_input(size, seed)
    reference = spec.reference_for(image)
    expected = _uninterrupted(lambda: spec.build(image),
                              schedule=spec.schedule)
    if pairs is None:
        pairs = [(a, b) for a in DEFAULT_EXECUTORS
                 for b in DEFAULT_EXECUTORS]

    own_workdir = workdir is None
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix=f"repro-ckpt-{app}-")
    else:
        os.makedirs(workdir, exist_ok=True)
    legs: list[dict[str, Any]] = []
    mismatches: list[dict[str, Any]] = []
    for src, dst in pairs:
        if progress:
            progress(f"  {app}: checkpoint on {src}, restore on "
                     f"{dst} ...")
        path = os.path.join(workdir, f"{app}-{src}-to-{dst}.rck")
        leg = _observe_restore(spec, image, src, dst, expected,
                               reference, path, timeout_s, tolerance_db)
        legs.append(leg)
        if leg["ok"]:
            if own_workdir:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        else:
            leg["checkpoint"] = path
            mismatches.append({
                "kind": "restore", "src": src, "dst": dst,
                "detail": "; ".join(leg["problems"]),
                "checkpoint": path,
            })
    if own_workdir and not mismatches:
        try:
            os.rmdir(workdir)
        except OSError:
            pass
    return RestoreReport(app=app, size=size, seed=seed,
                         ok=not mismatches, legs=legs,
                         mismatches=mismatches)
