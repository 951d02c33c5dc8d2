"""Differential conformance for the serving fleet.

A duplicate-heavy workload served by a TCP fleet must seal finals
bit-identical to the precise reference computed in-process, and killing
a worker mid-run must end in a bit-exact final after the in-band
checkpoint migration — with zero invariant violations from a
:class:`~repro.check.invariants.Checker` attached to every worker-side
run (``check=True`` worker config) and none either when answers come
from the router's fleet-wide memo.

Two legs (:func:`run_fleet_differential`, ``repro check --fleet``):

``tcp``
    A duplicate-heavy spec list on a 2-worker localhost TCP fleet.
    Per-key ``value_digest`` sets must be singletons and equal to the
    precise reference digest computed in-process.  The leg reports
    memo/coalesce sharing (the duplicates) and must have zero
    violations.  A worker answers a run with its precise value when
    that comes in first, and at 16² it comes in within a millisecond,
    before the run launches, so no checker sees it: the workers are
    forked under :func:`held_reference`, with a slot for every
    distinct spec, and the value is released only once every distinct
    spec's run was admitted.  Every one of them is launched, and so
    checked, by construction; the value then races those still
    running.

``migration``
    A 3-worker TCP fleet with per-worker ``resume_dir``s; one worker
    that provably holds suspend checkpoints (frozen with SIGSTOP
    first) is SIGKILLed.  Orphans must migrate in-band, the checkpoint
    inline in the re-dispatched ``submit`` (``migrated >= 1``), every
    request must complete with the reference digest when final, and
    violations must stay zero —
    including for runs restored mid-stream on the survivor.  A worker
    answers a run with its precise reference when that comes in first,
    which at this size ends a run in about a millisecond; the workers
    are forked under :func:`held_reference`, so that no reference comes
    in before the SIGKILL.  Each run then waits for its reference, and
    a preemption suspends it to disk whether or not its ladder
    finished, so the checkpoints exist by construction.

Every leg runs its workers with ``check`` on, and a leg in which no
run was checked — every request answered before its run launched —
is a mismatch (``nothing-checked``): a check that saw nothing passes
nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..apps.registry import APP_REGISTRY, get_app
from ..serve.fleet import value_digest
from ..serve.router import FleetRouter
from ..serve.workload import summarize
from ..serve.transport import spawn_local_tcp_worker

__all__ = ["FleetDifferentialReport", "run_fleet_differential",
           "held_reference"]

#: longest a held reference waits for its flag file
HOLD_S = 60.0
#: how often a held reference looks for its flag file
HOLD_POLL_S = 0.01
#: longest the tcp leg waits for every distinct spec's run to launch
ADMIT_S = 60.0


@contextlib.contextmanager
def held_reference(app: str, flag: str) -> Iterator[None]:
    """Make ``app``'s precise value late by construction.

    Inside the block, the registry entry's precise pass first waits
    until the file ``flag`` exists (at most :data:`HOLD_S`): its
    ``reference`` where that is the precise value, else the
    ``precise_output`` of every automaton its ``build`` makes (the
    ladder never calls it).  Workers forked inside the block inherit
    that entry; the registry is restored on exit.  The caller creates
    ``flag`` once the value may arrive.  A file, not a process-shared
    event: a worker can be SIGKILLed while its value waits.
    """
    spec = APP_REGISTRY[app]

    def wait() -> None:
        deadline = _time.monotonic() + HOLD_S
        while not os.path.exists(flag) and _time.monotonic() < deadline:
            _time.sleep(HOLD_POLL_S)

    if spec.reference_kind == "input":
        def build(image: Any) -> Any:
            automaton = spec.build(image)
            precise_output = automaton.precise_output

            def held() -> Any:
                wait()
                return precise_output()

            automaton.precise_output = held
            return automaton

        held_spec = dataclasses.replace(spec, build=build)
    else:
        def reference(image: Any) -> Any:
            wait()
            return spec.reference(image)

        held_spec = dataclasses.replace(spec, reference=reference)
    APP_REGISTRY[app] = held_spec
    try:
        yield
    finally:
        APP_REGISTRY[app] = spec


@dataclass
class FleetDifferentialReport:
    """Digest and migration outcome for one duplicate-heavy
    workload (see module docstring for the leg contracts)."""

    app: str
    size: int
    ok: bool
    legs: list[dict[str, Any]]
    mismatches: list[dict[str, Any]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "report": "fleet-differential",
            "app": self.app, "size": self.size, "ok": self.ok,
            "legs": list(self.legs),
            "mismatches": list(self.mismatches),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        names = ", ".join(l["leg"] for l in self.legs)
        return (f"{self.app}: {verdict} across [{names}]; "
                f"{len(self.mismatches)} mismatch(es)")


def _reference_digests(app: str, size: int,
                       seeds: list[int]) -> dict[int, str]:
    """Precise in-process outputs per seed — the ground truth every
    fleet's finals must match bit-exactly."""
    spec = get_app(app)
    return {seed: value_digest(
                spec.build(spec.make_input(size, seed)).precise_output())
            for seed in seeds}


def _check_leg(leg: str, reference: dict[int, str], requests: list[Any],
               summary: dict[str, Any],
               mismatches: list[dict[str, Any]]) -> dict[str, Any]:
    """The report of one leg run with ``check`` on; every way it went
    wrong is appended to ``mismatches``.  It reads each terminal
    request's outcome (non-terminal ones skipped — the drain-timeout
    mismatch already covers them): the per-seed digest sets of *final*
    completed answers, every reported violation count, and whether it
    shared work (a coalesced request found its spec live, so it reads
    ``shared``; a router memo answer reads ``memo_hit``)."""
    digests: dict[int, set[str]] = {}
    violations: list[int | None] = []
    shared = 0
    for request in requests:
        if not request.done:
            continue
        out = request.result(timeout_s=0.0)
        violations.append(out.get("violations"))
        shared += bool(out.get("shared") or out.get("memo_hit"))
        if out["state"] == "completed" and out.get("final") \
                and out.get("value_digest"):
            digests.setdefault(request.seed, set()).add(
                out["value_digest"])
    for seed, seen in sorted(digests.items()):
        if len(seen) != 1:
            mismatches.append({"leg": leg, "seed": seed,
                               "kind": "digest-divergence",
                               "digests": sorted(seen)})
        elif next(iter(seen)) != reference[seed]:
            mismatches.append({"leg": leg, "seed": seed,
                               "kind": "digest-vs-reference",
                               "digest": next(iter(seen)),
                               "reference": reference[seed]})
    bad = [v for v in violations if v not in (0, None)]
    if bad:
        mismatches.append({"leg": leg, "kind": "violations",
                           "counts": bad})
    checked = sum(1 for v in violations if v is not None)
    if not checked:
        mismatches.append({"leg": leg, "kind": "nothing-checked"})
    if not summary.get("drained"):
        mismatches.append({"leg": leg, "kind": "drain-timeout"})
    elif summary.get("failed"):
        mismatches.append({"leg": leg, "kind": "failed",
                           "count": summary["failed"]})
    return {
        "leg": leg,
        "drained": bool(summary.get("drained")),
        "completed": summary.get("completed"),
        "failed": summary.get("failed"),
        "shared": shared,
        "violations_checked": checked,
        "digests": {str(s): sorted(d)
                    for s, d in sorted(digests.items())},
    }


def _tcp_leg(specs: list[tuple[str, int, int]], distinct: int,
             slo: dict[str, Any], workdir: str,
             drain_timeout_s: float) -> tuple[list[Any], dict[str, Any]]:
    """Serve ``specs`` (``distinct`` different ones) on a 2-worker TCP
    fleet in check mode, the precise value held until every distinct
    spec's run was admitted (module docstring)."""
    app = specs[0][0]
    config = {"slots": max(2, distinct),
              "queue_limit": max(8, len(specs)), "check": True}
    released = os.path.join(workdir, "tcp-precise-released")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(released)
    with held_reference(app, released):
        procs, endpoints = _tcp_fleet(2, workdir, config, resume=False)
    try:
        with FleetRouter(endpoints=endpoints,
                         worker_config=config) as fleet:
            requests = [fleet.submit(a, size=size, seed=seed, slo=slo)
                        for a, size, seed in specs]
            deadline = _time.monotonic() + ADMIT_S
            while (fleet.aggregate_stats()["totals"].get("admitted", 0)
                   < distinct and _time.monotonic() < deadline):
                _time.sleep(HOLD_POLL_S)
            open(released, "w").close()
            drained = fleet.drain(timeout_s=drain_timeout_s)
            summary = summarize(requests) if drained else {}
            summary["drained"] = drained
    finally:
        _reap(procs)
    return requests, summary


def _tcp_fleet(n: int, workdir: str, base_config: dict[str, Any],
               resume: bool) -> tuple[list[Any], list[tuple[str, int]]]:
    procs, endpoints = [], []
    for i in range(n):
        config = dict(base_config)
        if resume:
            config["resume_dir"] = os.path.join(workdir, f"w{i}")
        process, endpoint = spawn_local_tcp_worker(config)
        procs.append(process)
        endpoints.append(endpoint)
    return procs, endpoints


def _reap(procs: list[Any]) -> None:
    for process in procs:
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)


def run_fleet_differential(app: str = "dwt53", size: int = 16,
                           distinct: int = 3, duplicates: int = 4,
                           migration_size: int = 96,
                           workdir: str | None = None,
                           timeout_s: float = 240.0,
                           progress: Callable[[str], None]
                           | None = None) -> FleetDifferentialReport:
    """TCP fleet digests against the reference plus the kill-one-worker
    in-band migration leg (module docstring has the full contract).

    The duplicate-heavy workload is ``distinct`` seeds ×
    ``duplicates`` copies each; migration runs ``migration_size``
    inputs so runs live long enough to be suspended and killed.
    """
    import tempfile

    def note(text: str) -> None:
        if progress is not None:
            progress(text)

    workdir = workdir or tempfile.mkdtemp(prefix="fleetdiff-")
    legs: list[dict[str, Any]] = []
    mismatches: list[dict[str, Any]] = []
    seeds = list(range(distinct))
    specs = [(app, size, seed) for seed in seeds
             for _ in range(duplicates)]
    slo = {"deadline_s": timeout_s}
    reference = _reference_digests(app, size, seeds)

    # -- leg 1: TCP fleet, duplicate-heavy workload ----------------------
    note("leg tcp: 2-worker localhost TCP fleet")
    requests, summary = _tcp_leg(specs, len(seeds), slo, workdir,
                                 timeout_s)
    legs.append(_check_leg("tcp", reference, requests, summary,
                           mismatches))

    # -- leg 2: kill one TCP worker, require in-band migration -----------
    note("leg migration: SIGKILL one TCP worker mid-run")
    mig_seeds = list(range(6))
    mig_specs = [("2dconv", migration_size, seed)
                 for seed in mig_seeds]
    mig_reference = _reference_digests("2dconv", migration_size,
                                       mig_seeds)
    mig_config = {"slots": 1, "queue_limit": 6, "quantum_s": 0.02,
                  "check": True}
    released = os.path.join(workdir, "reference-released")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(released)
    with held_reference("2dconv", released):
        procs, endpoints = _tcp_fleet(3, workdir, mig_config, resume=True)
    try:
        with FleetRouter(endpoints=endpoints, resume_dir=workdir,
                         worker_config=mig_config) as fleet:
            requests = [fleet.submit(a, size=s, seed=sd, slo=slo)
                        for a, s, sd in mig_specs]
            victim = None
            deadline = _time.monotonic() + 60.0
            while victim is None and _time.monotonic() < deadline:
                candidates = [l for l in fleet._links if l.inflight]
                for link in candidates:
                    os.kill(procs[link.index].pid, signal.SIGSTOP)
                    wdir = os.path.join(workdir, f"w{link.index}")
                    if link.inflight and os.path.isdir(wdir) and any(
                            f.endswith(".rck")
                            for f in os.listdir(wdir)):
                        victim = link   # frozen, checkpoints pinned
                        break
                    os.kill(procs[link.index].pid, signal.SIGCONT)
                if victim is None:
                    _time.sleep(0.02)
            if victim is None:
                mismatches.append({"leg": "migration",
                                   "kind": "no-checkpoint-pinned"})
            else:
                os.kill(procs[victim.index].pid, signal.SIGKILL)
            open(released, "w").close()
            drained = fleet.drain(timeout_s=timeout_s)
            summary = (summarize(requests) if drained else {})
            summary["drained"] = drained
            counters = dict(fleet.counters)
    finally:
        _reap(procs)
    leg = _check_leg("migration", mig_reference, requests, summary,
                     mismatches)
    if victim is not None and counters.get("migrated", 0) < 1:
        mismatches.append({"leg": "migration",
                           "kind": "no-in-band-migration",
                           "counters": counters})
    leg.update(worker_deaths=counters.get("worker_deaths"),
               migrated=counters.get("migrated"))
    legs.append(leg)

    return FleetDifferentialReport(
        app=app, size=size, ok=not mismatches, legs=legs,
        mismatches=mismatches)
