"""Transport-differential conformance for the serving fleet.

The anytime guarantee must be transport-invariant: the *same*
duplicate-heavy workload served by an AF_UNIX (fork) fleet and by a
TCP fleet must seal bit-identical finals per request key, and killing
a TCP worker mid-run must end in a bit-exact final after the in-band
checkpoint migration — with zero invariant violations from a
:class:`~repro.check.invariants.Checker` attached to every worker-side
run (``check=True`` worker config) and none either when answers come
from the router's fleet-wide memo.

Three legs (:func:`run_fleet_differential`, ``repro check --fleet``):

``unix`` / ``tcp``
    The same duplicate-heavy spec list on a 2-worker fork fleet and a
    2-worker localhost TCP fleet.  Per-key ``value_digest`` sets must
    be singletons, equal across transports, and equal to the precise
    reference digest computed in-process.  Both legs must report
    memo/coalesce sharing (the duplicates) and zero violations.

``migration``
    A 3-worker TCP fleet with per-worker ``resume_dir``s; one worker
    that provably holds suspend checkpoints (frozen with SIGSTOP
    first) is SIGKILLed.  Orphans must migrate via in-band ``ckpt_*``
    frames (``migrated >= 1``), every request must complete with the
    reference digest when final, and violations must stay zero —
    including for runs restored mid-stream on the survivor.  A worker
    answers a run with its precise reference when that comes in first,
    which at this size ends a run in about a millisecond; the workers
    are forked under :func:`held_reference`, so that no reference comes
    in before the SIGKILL.  Each run then waits for its reference, and
    a preemption suspends it to disk whether or not its ladder
    finished, so the checkpoints exist by construction.
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
from ..serve.router import FleetRouter, summarize_fleet
from ..serve.transport import spawn_local_tcp_worker

__all__ = ["FleetDifferentialReport", "run_fleet_differential",
           "held_reference"]

#: longest a held reference waits for its flag file
HOLD_S = 60.0
#: how often a held reference looks for its flag file
HOLD_POLL_S = 0.01


@contextlib.contextmanager
def held_reference(app: str, flag: str) -> Iterator[None]:
    """Make ``app``'s precise reference late by construction.

    Inside the block, the registry entry's ``reference`` first waits
    until the file ``flag`` exists (at most :data:`HOLD_S`).  Workers forked
    inside the block inherit that entry; the registry is restored on
    exit.  The caller creates ``flag`` once the reference may arrive.
    A file, not a process-shared event: a worker can be SIGKILLed while
    its reference waits.
    """
    spec = APP_REGISTRY[app]

    def reference(image: Any) -> Any:
        deadline = _time.monotonic() + HOLD_S
        while not os.path.exists(flag) and _time.monotonic() < deadline:
            _time.sleep(HOLD_POLL_S)
        return spec.reference(image)

    APP_REGISTRY[app] = dataclasses.replace(spec, reference=reference)
    try:
        yield
    finally:
        APP_REGISTRY[app] = spec


@dataclass
class FleetDifferentialReport:
    """Transport matrix + migration outcome for one duplicate-heavy
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
    """Precise in-process outputs per seed — the transport-independent
    ground truth every fleet's finals must match bit-exactly."""
    spec = get_app(app)
    return {seed: value_digest(
                spec.build(spec.make_input(size, seed)).precise_output())
            for seed in seeds}


def _collect(requests: list[Any]) -> tuple[dict[int, set[str]],
                                           list[int | None]]:
    """Per-seed digest sets of *final* completed answers, plus every
    reported violation count (non-terminal requests skipped — the
    drain-timeout mismatch already covers them)."""
    digests: dict[int, set[str]] = {}
    violations: list[int | None] = []
    for request in requests:
        if not request.done:
            continue
        out = request.result(timeout_s=0.0)
        violations.append(out.get("violations"))
        if out["state"] == "completed" and out.get("final") \
                and out.get("value_digest"):
            digests.setdefault(request.seed, set()).add(
                out["value_digest"])
    return digests, violations


def _run_leg(fleet: FleetRouter, specs: list[tuple[str, int, int]],
             slo: dict[str, Any],
             drain_timeout_s: float) -> tuple[list[Any], dict[str, Any]]:
    requests = [fleet.submit(app, size=size, seed=seed, slo=slo)
                for app, size, seed in specs]
    drained = fleet.drain(timeout_s=drain_timeout_s)
    summary = summarize_fleet(requests) if drained else {}
    summary["drained"] = drained
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
    """AF_UNIX vs TCP digest equality plus the kill-one-TCP-worker
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
    config = {"slots": 2, "queue_limit": max(8, len(specs)),
              "check": True}
    reference = _reference_digests(app, size, seeds)

    def check_digests(leg: str, digests: dict[int, set[str]],
                      violations: list[int | None],
                      summary: dict[str, Any]) -> dict[str, Any]:
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
        if not summary.get("drained"):
            mismatches.append({"leg": leg, "kind": "drain-timeout"})
        return {
            "leg": leg,
            "drained": bool(summary.get("drained")),
            "completed": summary.get("completed"),
            "failed": summary.get("failed"),
            "shared": (summary.get("coalesced", 0)
                       + summary.get("memo_hits", 0)),
            "violations_checked": sum(1 for v in violations
                                      if v is not None),
            "digests": {str(s): sorted(d)
                        for s, d in sorted(digests.items())},
        }

    # -- leg 1: AF_UNIX fork fleet ---------------------------------------
    note("leg unix: 2-worker fork fleet")
    with FleetRouter(workers=2, worker_config=config) as fleet:
        requests, summary = _run_leg(fleet, specs, slo, timeout_s)
        digests_unix, violations = _collect(requests)
    legs.append(check_digests("unix", digests_unix, violations,
                              summary))

    # -- leg 2: TCP fleet, same workload ---------------------------------
    note("leg tcp: 2-worker localhost TCP fleet")
    procs, endpoints = _tcp_fleet(2, workdir, config, resume=False)
    try:
        with FleetRouter(endpoints=endpoints,
                         worker_config=config) as fleet:
            requests, summary = _run_leg(fleet, specs, slo, timeout_s)
            digests_tcp, violations = _collect(requests)
    finally:
        _reap(procs)
    legs.append(check_digests("tcp", digests_tcp, violations, summary))
    if {s: sorted(d) for s, d in digests_unix.items()} \
            != {s: sorted(d) for s, d in digests_tcp.items()}:
        mismatches.append({"leg": "unix-vs-tcp",
                           "kind": "digest-set-mismatch",
                           "unix": {str(s): sorted(d) for s, d
                                    in digests_unix.items()},
                           "tcp": {str(s): sorted(d) for s, d
                                   in digests_tcp.items()}})

    # -- leg 3: kill one TCP worker, require in-band migration -----------
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
    leg: dict[str, Any] = {"leg": "migration"}
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
            summary = (summarize_fleet(requests) if drained else {})
            summary["drained"] = drained
            counters = dict(fleet.counters)
            digests_mig, violations = _collect(requests)
    finally:
        _reap(procs)
    for seed, seen in sorted(digests_mig.items()):
        expected = mig_reference[seed]
        if seen != {expected}:
            mismatches.append({"leg": "migration", "seed": seed,
                               "kind": "digest-vs-reference",
                               "digests": sorted(seen),
                               "reference": expected})
    bad = [v for v in violations if v not in (0, None)]
    if bad:
        mismatches.append({"leg": "migration", "kind": "violations",
                           "counts": bad})
    if not summary.get("drained"):
        mismatches.append({"leg": "migration", "kind": "drain-timeout"})
    elif summary.get("failed"):
        mismatches.append({"leg": "migration", "kind": "failed",
                           "count": summary["failed"]})
    if victim is not None and counters.get("migrated", 0) < 1:
        mismatches.append({"leg": "migration",
                           "kind": "no-in-band-migration",
                           "counters": counters})
    leg.update({
        "drained": bool(summary.get("drained")),
        "completed": summary.get("completed"),
        "failed": summary.get("failed"),
        "worker_deaths": counters.get("worker_deaths"),
        "migrated": counters.get("migrated"),
        "violations_checked": sum(1 for v in violations
                                  if v is not None),
    })
    legs.append(leg)

    return FleetDifferentialReport(
        app=app, size=size, ok=not mismatches, legs=legs,
        mismatches=mismatches)
