"""Differential conformance: one automaton, every executor, one truth.

The convergence guarantee says an uninterrupted run reaches the
bit-exact precise output *regardless of the execution substrate*.  This
harness runs one application on the simulated, threaded and process
executors — each with a :class:`~repro.check.invariants.Checker`
attached — and cross-checks:

* **final outputs** bit-exactly against the graph's precise evaluation
  (and therefore against each other);
* **version counts** — every produced buffer publishes at least once,
  the terminal buffer publishes exactly one final version, and source
  stages (whose inputs are all external, hence final from the start)
  publish the same deterministic version ladder everywhere;
* **trace shapes** — the same stages appear, every span balances, every
  run ends with every stage ``completed``;
* **invariant reports** — zero checker violations per run.

A fourth leg replays the same application under
:class:`~repro.serve.AnytimeServer` preemption: two concurrent requests
share one slot with a tiny quantum, the harness polls their snapshots
mid-flight (each observed snapshot must refine monotonically — the
interrupt-validity guarantee), and both must still finish bit-exact.

Everything lands in a machine-readable :class:`DifferentialReport`
(``to_dict()`` / ``repro check --json``).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..apps.registry import get_app
from ..core.backends import EXECUTORS, executor_class
from ..core.tracing import InMemorySink
from .invariants import Checker, CheckReport

__all__ = ["RunObservation", "DifferentialReport", "run_differential",
           "RestoreReport", "run_restore_differential",
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


def _values_equal(a: Any, b: Any) -> bool:
    """Bit-exact structural equality over arrays and containers."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (np.asarray(a).shape == np.asarray(b).shape
                and np.array_equal(np.asarray(a), np.asarray(b)))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return (len(a) == len(b)
                and all(_values_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_values_equal(v, b[k]) for k, v in a.items()))
    return bool(a == b)


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


def _observe(spec: Any, image: np.ndarray, executor: str,
             reference: Any, timeout_s: float,
             tolerance_db: float | None) -> RunObservation:
    """Run one fresh build on one executor with a checker attached."""
    automaton = spec.build(image)
    precise = automaton.precise_output()
    mem = InMemorySink()
    t0 = _time.perf_counter()
    result, checker = _checked_run(
        automaton, executor, spec.schedule, timeout_s, tolerance_db,
        forward=mem, trace_metric=spec.metric, trace_reference=reference)
    wall = _time.perf_counter() - t0

    terminal = automaton.terminal_buffer_name
    final_rec = result.timeline.final_record(terminal)
    matches = (final_rec is not None
               and _values_equal(final_rec.value, precise))
    counts: dict[str, int] = {}
    finals: dict[str, int] = {}
    for r in result.timeline.records:
        counts[r.buffer] = counts.get(r.buffer, 0) + 1
        if r.final:
            finals[r.buffer] = finals.get(r.buffer, 0) + 1
    stage_set = sorted({e.stage for e in mem.events
                        if e.kind == "stage.start" and e.stage})
    return RunObservation(
        executor=executor, wall_s=wall, completed=result.completed,
        stopped_early=result.stopped_early,
        final_matches_precise=matches,
        version_counts=counts, final_counts=finals,
        stage_set=stage_set, kind_counts=mem.counts(),
        check=checker.report(),
        errors=[f"{name}: {exc!r}" for name, exc in result.errors])


def _serve_input(spec: Any, size: int, seed: int, quantum_s: float,
                 timeout_s: float) -> tuple[np.ndarray, int]:
    """Pick an input large enough that one request spans many quanta.

    Preemption only happens when a run outlives its quantum; the fast
    apps (dwt53 finishes a 24-point signal in ~1 ms) would otherwise
    complete in their first tenure and the preempt/resume leg would
    test nothing.  Probe solo wall time, doubling the input until a
    run costs at least a dozen quanta.
    """
    target_s = 12.0 * quantum_s
    for _ in range(8):
        image = spec.make_input(size, seed)
        probe = spec.build(image)
        t0 = _time.perf_counter()
        probe.run_threaded(timeout_s=timeout_s)
        if _time.perf_counter() - t0 >= target_s:
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
    reference = (spec.reference(image)
                 if spec.reference_kind != "input" else image)
    precise = spec.build(image).precise_output()
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
        elif not _values_equal(r.snapshot.value, precise):
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
    reference = (spec.reference(image)
                 if spec.reference_kind != "input" else image)

    observations: list[RunObservation] = []
    mismatches: list[dict[str, Any]] = []

    def note(kind: str, detail: str, **extra: Any) -> None:
        mismatches.append({"kind": kind, "detail": detail, **extra})

    for executor in executors:
        if progress:
            progress(f"  {app}: {executor} executor ...")
        obs = _observe(spec, image, executor, reference, timeout_s,
                       tolerance_db)
        observations.append(obs)
        if not obs.completed:
            note("incomplete", f"{executor} run did not complete",
                 executor=executor, errors=obs.errors)
        if not obs.final_matches_precise:
            note("final-mismatch",
                 f"{executor} final output differs from the precise "
                 f"evaluation", executor=executor)
        for buffer, n in obs.final_counts.items():
            if n != 1:
                note("final-count",
                     f"{executor}: buffer {buffer!r} carries {n} final "
                     f"versions (expected exactly 1)", executor=executor)
        if not obs.check.ok:
            note("invariant-violations",
                 f"{executor}: {len(obs.check.violations)} checker "
                 f"violation(s)", executor=executor,
                 violations=[v.to_dict() for v in obs.check.violations])

    # cross-executor shape checks (need at least two legs)
    if len(observations) >= 2:
        base = observations[0]
        for obs in observations[1:]:
            if obs.stage_set != base.stage_set:
                note("trace-shape",
                     f"stage sets differ: {base.executor} saw "
                     f"{base.stage_set}, {obs.executor} saw "
                     f"{obs.stage_set}")
            missing = (set(base.version_counts)
                       - set(obs.version_counts))
            extra = set(obs.version_counts) - set(base.version_counts)
            if missing or extra:
                note("trace-shape",
                     f"buffer sets differ between {base.executor} and "
                     f"{obs.executor} (missing={sorted(missing)}, "
                     f"extra={sorted(extra)})")
        # source stages see final inputs from the start, so their
        # version ladder is structural — identical on every executor
        automaton = spec.build(image)
        source_buffers = [s.output.name
                          for s in automaton.graph.source_stages()]
        for buffer in source_buffers:
            counts = {o.executor: o.version_counts.get(buffer, 0)
                      for o in observations}
            if len(set(counts.values())) > 1:
                note("version-count",
                     f"source buffer {buffer!r} version counts "
                     f"diverge: {counts}", buffer=buffer)
    for obs in observations:
        for buffer, n in obs.version_counts.items():
            if n < 1:
                note("missing-versions",
                     f"{obs.executor}: buffer {buffer!r} never "
                     f"published", executor=obs.executor)

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
    (prefix + continuation) to be indistinguishable from one that was
    never interrupted: bit-exact final output, exactly one final
    version, a gap-free version ladder, source-buffer version counts
    equal to the uninterrupted run's, and zero invariant violations.
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
    poll the terminal buffer for signs of progress, and checkpoint the
    live handle.  A fast run may complete before the checkpoint lands —
    that is a legal capture too (the restore then merely replays a
    finished run), so no retry is needed.
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
    while buffer.version < min_versions and not handle.finished \
            and _time.monotonic() < deadline:
        _time.sleep(0.002)
    handle.checkpoint(path)
    handle.request_stop()
    handle.result()


def _observe_restore(spec: Any, image: np.ndarray, src: str, dst: str,
                     precise: Any, reference: Any,
                     ref_source_counts: dict[str, int], path: str,
                     timeout_s: float,
                     tolerance_db: float | None) -> dict[str, Any]:
    """One leg: checkpoint on ``src``, continue on ``dst``, verify."""
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
    terminal = restored.terminal_buffer_name
    result, checker = _checked_run(
        restored, dst, spec.schedule, timeout_s, tolerance_db,
        trace_metric=spec.metric, trace_reference=reference)
    wall = _time.perf_counter() - t0

    if not result.completed:
        problems.append(
            f"continuation did not complete "
            f"(errors: {[f'{n}: {e!r}' for n, e in result.errors]})")
    final_rec = result.timeline.final_record(terminal)
    if final_rec is None:
        problems.append("continuation produced no final version")
    elif final_rec.value is not None \
            and not _values_equal(final_rec.value, precise):
        problems.append("final output is not bit-exact against the "
                        "precise evaluation")
    if not _values_equal(result.final_values.get(terminal), precise):
        problems.append("final buffer value is not bit-exact against "
                        "the precise evaluation")
    counts: dict[str, int] = {}
    finals: dict[str, int] = {}
    for r in result.timeline.records:
        counts[r.buffer] = counts.get(r.buffer, 0) + 1
        if r.final:
            finals[r.buffer] = finals.get(r.buffer, 0) + 1
    if finals.get(terminal, 0) != 1:
        problems.append(
            f"terminal buffer carries {finals.get(terminal, 0)} final "
            f"version(s) across prefix + continuation (expected 1)")
    # source ladders are structural — the logical (prefix +
    # continuation) ladder must match the uninterrupted run exactly
    for buffer, expected in ref_source_counts.items():
        got = counts.get(buffer, 0)
        if got != expected:
            problems.append(
                f"source buffer {buffer!r} published {got} versions "
                f"across prefix + continuation; uninterrupted run "
                f"published {expected}")
    versions = [r.version for r in result.timeline.for_buffer(terminal)]
    if versions != sorted(versions):
        problems.append(
            f"terminal ladder is not monotone across the checkpoint "
            f"seam: {versions}")
    if not checker.ok:
        problems.append(
            f"{len(checker.violations)} invariant violation(s): "
            + "; ".join(v.describe() for v in checker.violations[:5]))
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
    reference = (spec.reference(image)
                 if spec.reference_kind != "input" else image)
    precise = spec.build(image).precise_output()
    if pairs is None:
        pairs = [(a, b) for a in DEFAULT_EXECUTORS
                 for b in DEFAULT_EXECUTORS]
    # uninterrupted structural reference: source-buffer version counts
    # (identical on every executor, so one deterministic run suffices)
    baseline = spec.build(image)
    base_result = baseline.run_simulated(schedule=spec.schedule)
    source_buffers = {s.output.name
                      for s in baseline.graph.source_stages()}
    ref_source_counts: dict[str, int] = {b: 0 for b in source_buffers}
    for r in base_result.timeline.records:
        if r.buffer in source_buffers:
            ref_source_counts[r.buffer] += 1

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
        leg = _observe_restore(spec, image, src, dst, precise,
                               reference, ref_source_counts, path,
                               timeout_s, tolerance_db)
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
