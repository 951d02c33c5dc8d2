"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``apps``
    List the evaluation applications.
``run <app>``
    Build and execute one application's automaton, print its
    runtime-accuracy profile, optionally stop at a deadline / energy
    budget / target SNR, save the final output as a PGM/PPM image, or
    execute in contract mode.
``figures [name ...]``
    Regenerate paper figures (default: all) and print their tables.
``serve``
    Drive a synthetic open-loop workload against an
    :class:`~repro.serve.AnytimeServer`: many concurrent requests with
    deadline/quality SLOs multiplexed over a bounded slot pool, with
    admission control and quality-aware preemption.  ``--workers N``
    serves through a forked fleet; ``--endpoints HOST:PORT,...``
    serves through externally launched TCP workers.
``serve-worker``
    Run one fleet worker bound to a TCP listener
    (``--listen HOST:PORT``) so a router on another host can reach it
    via ``FleetRouter(endpoints=[...])`` / ``serve --endpoints``.
``serve-front``
    Stand up a fleet plus the asyncio front end
    (:mod:`repro.serve.aiofront`): external clients speak the same
    length-prefixed JSON frames over TCP, with per-connection
    backpressure and graceful SIGTERM drain.
``check``
    Conformance checking (:mod:`repro.check`): run the differential
    harness across all executors (and under server preemption), the
    restore-differential harness (``--restore``: checkpoint on one
    executor, restore on another, require a bit-exact continuation),
    the checker self-test (``--self-test``), the property-based
    automaton fuzzer (``--fuzz``), or replay a saved fuzz failure
    (``--replay``).
``ckpt inspect <path>``
    Print a checkpoint's self-describing header (:mod:`repro.ckpt`):
    the log's event count per stage, the live stages and the buffer
    versions, without reading the payload.

Wall-clock performance is measured by ``benchmarks/latency``, not by
this CLI.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Sequence

from .apps.registry import APP_REGISTRY, calibrate_app, get_app
from .core.backends import EXECUTORS, executor_class, executor_names
from .core.contract import run_contract
from .core.controller import (AccuracyTarget, AnyOf, DeadlineStop,
                              EnergyBudget, StopCondition)
from .core.faults import FaultInjector, FaultPolicy
from .core.tracing import make_sink

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Anytime Automaton (ISCA 2016) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    wall_clock = executor_names(WALL_CLOCK=True)

    sub.add_parser("apps", help="list evaluation applications")

    run = sub.add_parser("run", help="execute one application")
    run.add_argument("app", choices=sorted(APP_REGISTRY))
    run.add_argument("--size", type=int, default=128,
                     help="input image edge length (default 128)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--cores", type=float, default=32.0,
                     help="simulated core count (default 32)")
    run.add_argument("--executor", choices=tuple(EXECUTORS),
                     default="simulated",
                     help="execution backend: deterministic virtual-"
                          "time simulation (default), real threads, or "
                          "one process per stage over shared memory")
    run.add_argument("--timeout-s", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock timeout (wall-clock "
                          "executors only)")
    run.add_argument("--deadline", type=float, default=None,
                     metavar="FRAC",
                     help="stop at FRAC x baseline runtime")
    run.add_argument("--energy-budget", type=float, default=None,
                     metavar="FRAC",
                     help="stop at FRAC x the full run's energy")
    run.add_argument("--target-snr", type=float, default=None,
                     metavar="DB",
                     help="stop once output SNR reaches DB")
    run.add_argument("--contract", action="store_true",
                     help="contract mode: size stages to --deadline "
                          "up front instead of running interruptibly")
    run.add_argument("--dynamic", action="store_true",
                     help="dynamic core reallocation (generalized "
                          "processor sharing)")
    run.add_argument("--save", type=str, default=None, metavar="PATH",
                     help="write the final output as PGM/PPM")
    run.add_argument("--rows", type=int, default=12,
                     help="profile rows to print (default 12)")
    run.add_argument("--fault-inject", action="append", default=None,
                     metavar="SPEC",
                     help="inject a fault, repeatable; SPEC is "
                          "STAGE:AT[:error|:delay=UNITS][:xTIMES] "
                          "(AT = the stage's Nth command)")
    run.add_argument("--max-retries", type=int, default=0,
                     metavar="N",
                     help="restarts per failing stage before it "
                          "degrades (with --on-failure restart)")
    run.add_argument("--on-failure",
                     choices=("fail", "degrade", "restart"),
                     default=None,
                     help="stage-failure disposition (default: degrade "
                          "when faults are injected, else fail)")
    run.add_argument("--fault-backoff", type=float, default=0.0,
                     metavar="UNITS",
                     help="virtual-time backoff before each restart")
    run.add_argument("--strict", action="store_true",
                     help="raise on unrecovered stage failure instead "
                          "of returning the partial result")
    run.add_argument("--trace", type=str, default=None, metavar="PATH",
                     help="write an execution trace to PATH")
    run.add_argument("--trace-format", choices=("jsonl", "chrome"),
                     default="chrome",
                     help="trace file format: chrome://tracing JSON "
                          "(default) or JSON lines")

    figures = sub.add_parser("figures",
                             help="regenerate paper figures")
    figures.add_argument("names", nargs="*",
                         help="figure names (default: all)")
    figures.add_argument("--size", type=int, default=None,
                         help="override REPRO_BENCH_SIZE")

    serve = sub.add_parser(
        "serve", help="serve an open-loop anytime workload")
    serve.add_argument("--app", type=str, default="2dconv",
                       choices=sorted(APP_REGISTRY))
    serve.add_argument("--size", type=int, default=32,
                       help="input image edge length (default 32)")
    serve.add_argument("--requests", type=int, default=16,
                       help="how many requests to submit (default 16)")
    serve.add_argument("--rate", type=float, default=None, metavar="RPS",
                       help="offered load, requests/s (default: 1.5x "
                            "the measured service capacity)")
    serve.add_argument("--slots", type=int, default=4,
                       help="concurrent executor slots (default 4)")
    serve.add_argument("--queue-limit", type=int, default=8,
                       help="admission queue bound (default 8)")
    serve.add_argument("--policy", choices=("fair", "gain"),
                       default="fair",
                       help="slot-allocation policy: round-robin fair "
                            "share or profile-guided marginal gain")
    serve.add_argument("--executor", choices=wall_clock,
                       default="threaded",
                       help="execution backend under the server")
    serve.add_argument("--deadline-s", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request latency SLO (default: 8x the "
                            "measured solo run time)")
    serve.add_argument("--target-snr", type=float, default=None,
                       metavar="DB",
                       help="per-request quality SLO: finish early "
                            "once output SNR reaches DB")
    serve.add_argument("--wait-s", type=float, default=0.0,
                       metavar="SECONDS",
                       help="backpressure budget per submission before "
                            "shedding (default 0: shed immediately "
                            "when the queue is full)")
    serve.add_argument("--quantum-s", type=float, default=0.02,
                       help="slot tenure before preemption (default "
                            "0.02)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="serve through a sharded fleet of N worker "
                            "processes (router + consistent-hash "
                            "placement + coalescing) instead of one "
                            "in-process server")
    serve.add_argument("--distinct", type=int, default=4,
                       help="unique inputs to spread requests over in "
                            "fleet mode (duplicates coalesce; "
                            "default 4)")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="fleet mode: disable same-key request "
                            "coalescing on the workers")
    serve.add_argument("--endpoints", type=str, default=None,
                       metavar="HOST:PORT,...",
                       help="serve through externally launched TCP "
                            "workers (see `repro serve-worker`) "
                            "instead of forking local ones")
    serve.add_argument("--trace", type=str, default=None, metavar="PATH",
                       help="write server + run events to PATH")
    serve.add_argument("--trace-format", choices=("jsonl", "chrome"),
                       default="chrome")

    worker = sub.add_parser(
        "serve-worker",
        help="run one fleet worker on a TCP listener")
    worker.add_argument("--listen", type=str, default="127.0.0.1:0",
                        metavar="HOST:PORT",
                        help="bind address (default 127.0.0.1:0 — an "
                             "ephemeral port, printed on startup)")
    worker.add_argument("--slots", type=int, default=2,
                        help="concurrent executor slots (default 2)")
    worker.add_argument("--queue-limit", type=int, default=8,
                        help="admission queue bound (default 8)")
    worker.add_argument("--executor", choices=wall_clock,
                        default="threaded",
                        help="execution backend under the worker")
    worker.add_argument("--quantum-s", type=float, default=0.02,
                        help="slot tenure before preemption "
                             "(default 0.02)")
    worker.add_argument("--memo-ttl-s", type=float, default=5.0,
                        help="worker-local memo TTL for sealed finals "
                             "(default 5.0)")
    worker.add_argument("--no-coalesce", action="store_true",
                        help="disable same-key request coalescing")
    worker.add_argument("--resume-dir", type=str, default=None,
                        metavar="DIR",
                        help="directory for suspend checkpoints "
                             "(enables preempt-to-disk + migration)")
    worker.add_argument("--check", action="store_true",
                        help="attach an invariant Checker to every run "
                             "and report violation counts in done "
                             "messages")
    worker.add_argument("--forever", action="store_true",
                        help="keep accepting router connections after "
                             "the first disconnects (default: serve "
                             "one router, then exit)")

    front = sub.add_parser(
        "serve-front",
        help="fleet + asyncio front end for external TCP clients")
    front.add_argument("--host", type=str, default="127.0.0.1",
                       help="front-end bind host (default 127.0.0.1)")
    front.add_argument("--port", type=int, default=9700,
                       help="front-end bind port (default 9700; 0 for "
                            "ephemeral)")
    front.add_argument("--workers", type=int, default=2, metavar="N",
                       help="forked local fleet workers (default 2; "
                            "ignored with --endpoints)")
    front.add_argument("--endpoints", type=str, default=None,
                       metavar="HOST:PORT,...",
                       help="route to externally launched TCP workers "
                            "instead of forking local ones")
    front.add_argument("--slots", type=int, default=2,
                       help="slots per forked worker (default 2)")
    front.add_argument("--queue-limit", type=int, default=8,
                       help="admission queue bound per worker "
                            "(default 8)")
    front.add_argument("--executor", choices=wall_clock,
                       default="threaded",
                       help="execution backend under forked workers")
    front.add_argument("--memo-ttl-s", type=float, default=30.0,
                       dest="fleet_memo_ttl_s",
                       help="router-level fleet memo TTL (default 30)")
    front.add_argument("--max-pending", type=int, default=8,
                       help="per-connection in-flight bound before the "
                            "front end stops reading frames "
                            "(default 8)")
    front.add_argument("--idle-timeout-s", type=float, default=60.0,
                       help="close idle client connections after this "
                            "many seconds (default 60)")

    check = sub.add_parser(
        "check", help="conformance checking (invariants, differential "
                      "harness, self-test, fuzzing)")
    check.add_argument("apps", nargs="*", metavar="APP",
                       help="applications to cross-check (default: "
                            "2dconv kmeans dwt53)")
    check.add_argument("--size", type=int, default=24,
                       help="input edge length for the differential "
                            "harness (default 24)")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--executors", type=str, default=None,
                       help="comma-separated executors to cross-check; "
                            "with --restore, every ordered pair of "
                            "them (default: all of them)")
    check.add_argument("--no-serve", action="store_true",
                       help="skip the AnytimeServer preempt/resume leg")
    check.add_argument("--timeout-s", type=float, default=120.0,
                       help="wall-clock bound per leg (default 120)")
    check.add_argument("--json", type=str, default=None, metavar="PATH",
                       help="write the machine-readable report to PATH")
    check.add_argument("--self-test", action="store_true",
                       help="inject each class of violation and assert "
                            "the checker catches every one")
    check.add_argument("--fuzz", action="store_true",
                       help="property-based fuzzing of random automata")
    check.add_argument("--max-examples", type=int, default=50,
                       help="fuzzing examples to draw (default 50)")
    check.add_argument("--fuzz-seed-file", type=str, default=None,
                       metavar="PATH",
                       help="write the shrunk falsifying spec to PATH "
                            "(default: fuzz-failure.json)")
    check.add_argument("--replay", type=str, default=None,
                       metavar="PATH",
                       help="replay a saved fuzz failure seed file")
    check.add_argument("--restore", action="store_true",
                       help="restore-differential mode: interrupt a "
                            "run, checkpoint it, restore it on every "
                            "other executor, and require the "
                            "continuation to be bit-exact")
    check.add_argument("--workdir", type=str, default=None,
                       metavar="DIR",
                       help="restore mode: directory for checkpoint "
                            "files; failing legs leave their .rck "
                            "files here for post-mortem (default: a "
                            "temporary directory)")
    check.add_argument("--fleet", action="store_true",
                       help="fleet differential: a duplicate-heavy "
                            "workload on a TCP fleet must seal the "
                            "reference's digests, and a SIGKILLed "
                            "worker's runs must migrate in-band and "
                            "finish bit-exact")

    ckpt = sub.add_parser(
        "ckpt", help="checkpoint utilities (inspect saved runs)")
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)
    inspect = ckpt_sub.add_parser(
        "inspect", help="print a checkpoint's header (log events per "
                        "stage, live stages, buffer versions)")
    inspect.add_argument("path", help="checkpoint file (.rck)")
    inspect.add_argument("--json", action="store_true",
                         help="emit the raw header as JSON")
    return parser


def _cmd_apps() -> int:
    width = max(len(name) for name in APP_REGISTRY)
    for name in sorted(APP_REGISTRY):
        print(f"{name:<{width}}  {APP_REGISTRY[name].description}")
    return 0


def _make_stop(args: argparse.Namespace, automaton: Any,
               reference: Any, spec: Any,
               full_energy: float | None) -> StopCondition | None:
    conditions: list[StopCondition] = []
    if args.deadline is not None:
        conditions.append(DeadlineStop(
            automaton.baseline_duration(args.cores) * args.deadline))
    if args.energy_budget is not None:
        if full_energy is None:
            raise ValueError("energy budget needs a probe run")
        conditions.append(EnergyBudget(full_energy
                                       * args.energy_budget))
    if args.target_snr is not None:
        conditions.append(AccuracyTarget(
            lambda value: spec.metric(value, reference),
            target=args.target_snr))
    if not conditions:
        return None
    return conditions[0] if len(conditions) == 1 else AnyOf(*conditions)


def _make_faults(args: argparse.Namespace,
                 ) -> tuple[FaultPolicy | None, FaultInjector | None]:
    """Fault policy + injector from the CLI flags (None when unused)."""
    injector = None
    if args.fault_inject:
        injector = FaultInjector.from_specs(args.fault_inject)
    on_failure = args.on_failure
    if on_failure is None:
        if injector is None and args.max_retries == 0:
            return None, None
        on_failure = "restart" if args.max_retries > 0 else "degrade"
    policy = FaultPolicy(max_retries=args.max_retries,
                         backoff=args.fault_backoff,
                         on_failure=on_failure)
    return policy, injector


def _cmd_run(args: argparse.Namespace) -> int:
    wall_clock = executor_class(args.executor).WALL_CLOCK
    if wall_clock:
        incompatible = [flag for flag, used in (
            ("--contract", args.contract),
            ("--dynamic", args.dynamic),
            ("--deadline", args.deadline is not None),
            ("--energy-budget", args.energy_budget is not None),
        ) if used]
        if incompatible:
            virtual = ", ".join(executor_names(WALL_CLOCK=False))
            print(f"error: {', '.join(incompatible)} require(s) a "
                  f"virtual-time executor ({virtual}); use --timeout-s "
                  f"or --target-snr with --executor {args.executor}",
                  file=sys.stderr)
            return 2
    elif args.timeout_s is not None:
        print(f"error: --timeout-s is wall-clock; the {args.executor} "
              f"executor takes --deadline (virtual time) instead",
              file=sys.stderr)
        return 2

    spec = get_app(args.app)
    image = spec.make_input(args.size, args.seed)
    automaton = spec.build(image)
    reference = (spec.reference(image) if spec.reference_kind != "input"
                 else image)

    full_energy = None
    if args.energy_budget is not None:
        probe = spec.build(image)
        full_energy = probe.run_simulated(
            total_cores=args.cores, schedule=spec.schedule).energy

    if args.contract:
        if args.deadline is None:
            print("error: --contract requires --deadline",
                  file=sys.stderr)
            return 2
        if args.trace is not None:
            print("error: --trace is not supported in --contract mode "
                  "(contract runs are planned, not observed)",
                  file=sys.stderr)
            return 2
        plan, result, automaton = run_contract(
            lambda: spec.build(image), args.deadline,
            total_cores=args.cores, schedule=spec.schedule)
        print(f"contract plan: budget {plan.budget_work:.0f} work "
              f"units, planned {plan.planned_work:.0f}, "
              f"precise={plan.achieves_precise}")
    else:
        stop = _make_stop(args, automaton, reference, spec, full_energy)
        try:
            faults, injector = _make_faults(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if injector is not None:
            known = {s.name for s in automaton.graph.stages}
            unknown = {f.stage for f in injector.faults} - known
            if unknown:
                print(f"error: --fault-inject names unknown stage(s) "
                      f"{sorted(unknown)}; {args.app} has "
                      f"{sorted(known)}", file=sys.stderr)
                return 2
        sink = (make_sink(args.trace, args.trace_format)
                if args.trace is not None else None)
        clock: dict[str, Any] = (
            {"timeout_s": args.timeout_s} if wall_clock else
            {"total_cores": args.cores, "schedule": spec.schedule,
             "dynamic_shares": args.dynamic})
        try:
            result = automaton.run(
                args.executor, stop=stop, faults=faults,
                injector=injector, strict=args.strict, trace=sink,
                trace_metric=spec.metric if sink is not None else None,
                trace_reference=reference if sink is not None else None,
                **clock)
        finally:
            if sink is not None:
                sink.close()
        if sink is not None:
            print(f"trace written to {args.trace} "
                  f"({args.trace_format})")
        troubled = [r for r in result.stage_reports.values()
                    if r.failures or r.degraded or r.failed]
        for report in troubled:
            print(f"fault report — {report.summary()}")

    records = result.output_records(automaton.terminal_buffer_name)
    if not records:
        print("no output version was produced before the stop "
              "condition fired; give it more budget")
        return 1

    if wall_clock:
        # wall-clock executors: real seconds, no virtual baseline
        time_header, scale = "time (s)", 1.0
    else:
        # normalize against the *untrimmed* application's baseline so
        # contract-mode runtimes compare against the same yardstick
        baseline = (spec.build(image).baseline_duration(args.cores)
                    if args.contract
                    else automaton.baseline_duration(args.cores))
        time_header, scale = "runtime", baseline
    state = ("stopped early" if result.stopped_early
             else "completed" if result.completed
             else "degraded")
    print(f"\n{args.app}: {len(records)} output version(s), {state} "
          f"({args.executor} executor)")
    print(f"{time_header:>10}  {'SNR (dB)':>10}")
    step = max(1, len(records) // max(args.rows, 1))
    shown = list(records[::step])
    if shown[-1] is not records[-1]:
        shown.append(records[-1])
    for rec in shown:
        snr = spec.metric(rec.value, reference)
        snr_text = "inf" if math.isinf(snr) else f"{snr:.2f}"
        print(f"{rec.time / scale:>10.3f}  {snr_text:>10}")

    if args.save:
        if spec.to_image is None:
            print("this app's output is not imageable", file=sys.stderr)
            return 2
        from .data.pnm import write_pnm
        write_pnm(args.save, spec.to_image(records[-1].value))
        print(f"final output written to {args.save}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import os

    from . import bench

    if args.size is not None:
        os.environ["REPRO_BENCH_SIZE"] = str(args.size)
    all_figures = {
        name: getattr(bench, name) for name in bench.__all__
        if name.startswith(("fig", "ablation", "extension"))
    }
    names = args.names or sorted(all_figures)
    unknown = [n for n in names if n not in all_figures]
    if unknown:
        print(f"unknown figures {unknown}; known: "
              f"{sorted(all_figures)}", file=sys.stderr)
        return 2
    for name in names:
        print(all_figures[name]().render())
        print()
    return 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import random
    import time as _time

    from .serve.router import FleetRouter, summarize_fleet
    from .serve.transport import parse_endpoint

    endpoints = None
    if getattr(args, "endpoints", None):
        endpoints = [parse_endpoint(token.strip())
                     for token in args.endpoints.split(",")
                     if token.strip()]
    workers = len(endpoints) if endpoints else args.workers

    print(f"calibrating {args.app} at size {args.size} ...")
    calib = calibrate_app(app=args.app, size=args.size,
                          seed=args.seed + 7)
    baseline = calib["baseline_wall_s"]
    capacity = workers * args.slots / baseline
    rate = args.rate if args.rate is not None else 1.5 * capacity
    deadline_s = (args.deadline_s if args.deadline_s is not None
                  else 8.0 * baseline)
    slo = {"deadline_s": deadline_s, "target_db": args.target_snr}
    distinct = max(1, args.distinct)
    kind = "TCP" if endpoints else "forked"
    print(f"solo run {baseline:.3f}s -> fleet capacity "
          f"~{capacity:.1f} req/s over {workers} {kind} worker(s); "
          f"offering {rate:.1f} req/s across {distinct} distinct "
          f"input(s), deadline {deadline_s:.3f}s")

    rng = random.Random(args.seed)
    config = _worker_config_from_args(args)
    with FleetRouter(workers=workers, endpoints=endpoints,
                     worker_config=config) as fleet:
        started = _time.monotonic()
        requests = []
        for i in range(args.requests):
            requests.append(fleet.submit(
                args.app, size=args.size,
                seed=args.seed + i % distinct, slo=slo,
                wait_s=args.wait_s))
            if i + 1 < args.requests:
                _time.sleep(rng.expovariate(rate))
        if not fleet.drain(timeout_s=max(60.0,
                                         4 * args.requests * baseline)):
            print("error: fleet drain timed out", file=sys.stderr)
            return 1
        wall_s = _time.monotonic() - started
        summary = summarize_fleet(requests, wall_s=wall_s)
        stats = fleet.aggregate_stats()

    print(f"\n{'request':<9}{'worker':>7}  {'state':<11}{'latency':>9}"
          f"{'coal':>6}{'memo':>6}{'SNR (dB)':>10}")
    for request in requests:
        r = request.result(timeout_s=0.0)
        snr = ("inf" if r.get("precise_snr")
               else "-" if r.get("snr_db") is None
               else f"{r['snr_db']:.1f}")
        print(f"r{request.rid:<8}{r['worker']!s:>7}  {r['state']:<11}"
              f"{r['fleet_latency_s']:>9.3f}"
              f"{'y' if r.get('coalesced') else '-':>6}"
              f"{'y' if r.get('memo_hit') else '-':>6}{snr:>10}")

    print(f"\nserved {summary['completed']}/{summary['requests']} "
          f"(shed {summary['shed']}, failed {summary['failed']}) at "
          f"{summary['goodput_rps']:.2f} req/s goodput on workers "
          f"{summary['workers_used']}")
    print(f"latency p50 {summary['latency_p50_s']:.3f}s  "
          f"p99 {summary['latency_p99_s']:.3f}s  "
          f"SLO attainment {summary['slo_attainment']:.0%}")
    print(f"coalesced {summary['coalesced']}, memo hits "
          f"{summary['memo_hits']}, re-dispatched "
          f"{summary['redispatched']}; router counters "
          f"{stats['router']}")
    return 0


def _make_policy(name: str, profile: Any, baseline_wall_s: float) -> Any:
    from .serve.scheduler import FairSharePolicy, MarginalGainPolicy

    if name == "gain":
        return MarginalGainPolicy(profile, baseline_wall_s)
    return FairSharePolicy()


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import SLO, AnytimeServer, summarize, run_open_loop

    if args.workers is not None or args.endpoints:
        if args.workers is not None and args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return 2
        ignored = [flag for flag, used in (
            ("--trace", args.trace is not None),
            ("--policy gain", args.policy == "gain"),
        ) if used]
        if ignored:
            print(f"error: {', '.join(ignored)} require(s) the "
                  f"in-process server; fleet workers (--workers / "
                  f"--endpoints) share slots fairly and write no "
                  f"trace", file=sys.stderr)
            return 2
        return _cmd_serve_fleet(args)

    print(f"calibrating {args.app} at size {args.size} ...")
    calib = calibrate_app(app=args.app, size=args.size,
                          seed=args.seed + 7)
    baseline = calib["baseline_wall_s"]
    capacity = args.slots / baseline
    rate = args.rate if args.rate is not None else 1.5 * capacity
    deadline_s = (args.deadline_s if args.deadline_s is not None
                  else 8.0 * baseline)
    slo = SLO(deadline_s=deadline_s, target_db=args.target_snr)
    print(f"solo run {baseline:.3f}s -> capacity ~{capacity:.1f} req/s; "
          f"offering {rate:.1f} req/s, deadline {deadline_s:.3f}s"
          + (f", target {args.target_snr:.1f} dB"
             if args.target_snr is not None else ""))

    sink = (make_sink(args.trace, args.trace_format)
            if args.trace is not None else None)
    server = AnytimeServer(
        slots=args.slots, queue_limit=args.queue_limit,
        executor=args.executor,
        policy=_make_policy(args.policy, calib["profile"], baseline),
        quantum_s=args.quantum_s, trace=sink)
    try:
        with server:
            sessions = run_open_loop(
                server, lambda i: calib["builder"], args.requests,
                rate_hz=rate, slo=slo,
                metric=lambda i: calib["metric"],
                wait_s=args.wait_s, seed=args.seed)
            drained = server.drain(
                timeout_s=max(60.0, 4 * args.requests * baseline))
        if not drained:
            print("error: drain timed out", file=sys.stderr)
            return 1
    finally:
        if sink is not None:
            sink.close()

    print(f"\n{'request':<12}{'state':<11}{'latency':>9}{'queued':>9}"
          f"{'preempt':>8}{'SNR (dB)':>10}")
    for session in sessions:
        r = session.result(timeout_s=0.0)
        snr = ("-" if r.snr_db is None
               else "inf" if math.isinf(r.snr_db) else f"{r.snr_db:.1f}")
        print(f"{session.name:<12}{r.state.value:<11}"
              f"{r.latency_s:>9.3f}{r.queue_s:>9.3f}"
              f"{r.preemptions:>8}{snr:>10}")

    summary = summarize(sessions)
    stats = server.stats()
    print(f"\nserved {summary['completed']}/{summary['requests']} "
          f"(shed {summary['shed']}, failed {summary['failed']}) at "
          f"{summary['throughput_rps']:.2f} req/s goodput")
    print(f"latency p50 {summary['latency_p50_s']:.3f}s  "
          f"p99 {summary['latency_p99_s']:.3f}s  "
          f"SLO attainment {summary['slo_attainment']:.0%}")
    print(f"preemptions {stats['preemptions']}, resumes "
          f"{stats['resumes']}; {summary['interrupted']} request(s) "
          f"interrupted, {summary['precise']} reached precise")
    if summary["interrupted"] and not math.isnan(
            summary["snr_at_interrupt_mean_db"]):
        print(f"mean SNR at interrupt: "
              f"{summary['snr_at_interrupt_mean_db']:.1f} dB")
    if args.trace is not None:
        print(f"trace written to {args.trace} ({args.trace_format})")
    return 0


def _worker_config_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """The worker config of ``serve --workers``, ``serve-worker`` and
    ``serve-front``: the flags a command has, over the worker defaults
    for those it lacks."""
    config: dict[str, Any] = {
        "slots": args.slots, "queue_limit": args.queue_limit,
        "executor": args.executor,
    }
    if getattr(args, "quantum_s", None) is not None:
        config["quantum_s"] = args.quantum_s
    if getattr(args, "memo_ttl_s", None) is not None:
        config["memo_ttl_s"] = args.memo_ttl_s
    if getattr(args, "no_coalesce", False):
        config["coalesce"] = False
    if getattr(args, "resume_dir", None):
        config["resume_dir"] = args.resume_dir
    if getattr(args, "check", False):
        config["check"] = True
    return config


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    from .serve.transport import parse_endpoint, serve_worker_listener

    try:
        listen = parse_endpoint(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = _worker_config_from_args(args)
    knobs = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))

    def announce(host: str, port: int) -> None:
        print(f"fleet worker listening on {host}:{port} ({knobs})")
        print(f"route to it with: repro serve --endpoints {host}:{port}",
              flush=True)

    try:
        serve_worker_listener(listen, config, once=not args.forever,
                              announce=announce)
    except KeyboardInterrupt:
        pass
    print("router disconnected; worker exiting")
    return 0


def _cmd_serve_front(args: argparse.Namespace) -> int:
    from .serve.aiofront import serve_front
    from .serve.router import FleetRouter
    from .serve.transport import parse_endpoint

    endpoints = None
    if args.endpoints:
        endpoints = [parse_endpoint(token.strip())
                     for token in args.endpoints.split(",")
                     if token.strip()]

    def announce(host: str, port: int) -> None:
        backing = (f"{len(endpoints)} TCP worker(s)" if endpoints
                   else f"{args.workers} forked worker(s)")
        print(f"anytime front end on {host}:{port} -> {backing}; "
              f"SIGTERM drains gracefully", flush=True)

    with FleetRouter(workers=args.workers, endpoints=endpoints,
                     worker_config=_worker_config_from_args(args),
                     fleet_memo_ttl_s=args.fleet_memo_ttl_s) as fleet:
        serve_front(fleet, args.host, args.port, announce=announce,
                    max_pending_per_conn=args.max_pending,
                    idle_timeout_s=args.idle_timeout_s)
    print("front end drained; fleet shut down")
    return 0


def _cmd_ckpt(args: argparse.Namespace) -> int:
    import json

    from .ckpt import CheckpointError, read_header

    try:
        header = read_header(args.path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(header, indent=2, sort_keys=True))
        return 0
    summary = header.get("summary") or {}
    app_spec = header.get("app_spec") or {}
    print(f"checkpoint {args.path}")
    print(f"  run        {header.get('name', '?')}")
    print(f"  executor   {header.get('executor', '?')}")
    if app_spec:
        spec_bits = ", ".join(f"{k}={v}" for k, v in
                              sorted(app_spec.items()))
        print(f"  app        {spec_bits}")
    if header.get("wall_time"):
        print(f"  captured   {header['wall_time']}")
    if summary:
        print(f"  duration   {summary.get('duration', 0.0):.6g}")
        print(f"  energy     {summary.get('energy', 0.0):.6g}")
        live = summary.get("live_stages") or []
        print(f"  live       {', '.join(live) if live else '(none)'}")
        for stage, count in sorted((summary.get("events") or {}).items()):
            print(f"  log        {stage}: {count} event(s)")
        versions = summary.get("buffer_versions") or {}
        for buffer, version in sorted(versions.items()):
            print(f"  buffer     {buffer} @ v{version}")
    print(f"  payload    {header.get('payload_len', '?')} bytes, "
          f"sha256 {header.get('payload_sha256', '?')[:16]}...")
    return 0


def _cmd_check_restore(args: argparse.Namespace,
                       executors: tuple[str, ...]) -> int:
    import json

    from .check import run_restore_differential

    pairs = [(src, dst) for src in executors for dst in executors]
    apps = args.apps or ["2dconv", "kmeans", "dwt53"]
    unknown = [a for a in apps if a not in APP_REGISTRY]
    if unknown:
        print(f"error: unknown app(s) {unknown}; known: "
              f"{sorted(APP_REGISTRY)}", file=sys.stderr)
        return 2
    reports = []
    for app in apps:
        print(f"{app}: restore-differential (checkpoint on one "
              f"executor, continue on another)")
        report = run_restore_differential(
            app=app, size=args.size, seed=args.seed, pairs=pairs,
            workdir=args.workdir, timeout_s=args.timeout_s,
            progress=print)
        reports.append(report)
        print(report.summary())
        for mismatch in report.mismatches:
            print(f"    {mismatch['kind']}: {mismatch['detail']}")
    ok = all(r.ok for r in reports)
    print(f"\nrestore conformance: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.ok for r in reports)}/{len(reports)} apps clean)")
    if args.json:
        payload = {"report": "restore-conformance", "ok": ok,
                   "apps": [r.to_dict() for r in reports]}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.json}")
    return 0 if ok else 1


def _cmd_check_fleet(args: argparse.Namespace) -> int:
    import json

    from .check import run_fleet_differential

    app = (args.apps[0] if args.apps else "dwt53")
    if app not in APP_REGISTRY:
        print(f"error: unknown app {app!r}; known: "
              f"{sorted(APP_REGISTRY)}", file=sys.stderr)
        return 2
    print(f"{app}: fleet differential "
          f"(TCP fleet + kill-one-worker migration)")
    report = run_fleet_differential(
        app=app, size=args.size, workdir=args.workdir,
        timeout_s=args.timeout_s, progress=print)
    print(report.summary())
    for mismatch in report.mismatches:
        print(f"    {mismatch['leg']}: {mismatch['kind']}")
    for leg in report.legs:
        bits = ", ".join(f"{k}={v}" for k, v in leg.items()
                         if k not in ("leg", "digests"))
        print(f"  [{leg['leg']}] {bits}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    if args.fleet:
        if args.executors is not None:
            from .serve.fleet import WORKER_DEFAULTS
            print(f"error: --fleet runs its workers on the "
                  f"{WORKER_DEFAULTS['executor']} executor; it takes "
                  f"no --executors", file=sys.stderr)
            return 2
        return _cmd_check_fleet(args)

    executors = tuple(EXECUTORS) if args.executors is None else tuple(
        e.strip() for e in args.executors.split(",") if e.strip())
    unknown = [e for e in executors if e not in EXECUTORS]
    if unknown:
        print(f"error: unknown executor(s) {unknown}; known: "
              f"{', '.join(EXECUTORS)}", file=sys.stderr)
        return 2

    if args.restore:
        return _cmd_check_restore(args, executors)

    if args.replay is not None:
        from .check.fuzz import replay
        try:
            summary = replay(args.replay)
        except AssertionError as exc:
            print(f"replay of {args.replay} still fails:\n{exc}")
            return 1
        print(f"replay of {args.replay} passed: {summary}")
        return 0

    if args.fuzz:
        from .check.fuzz import fuzz
        seed_file = args.fuzz_seed_file or "fuzz-failure.json"
        print(f"fuzzing {args.max_examples} random automata ...")
        failure = fuzz(max_examples=args.max_examples,
                       seed_file=seed_file)
        if failure is not None:
            print(str(failure))
            print(f"replay with: repro check --replay {seed_file}")
            return 1
        print(f"no falsifying automaton in {args.max_examples} "
              f"examples")
        return 0

    if args.self_test:
        from .check import run_self_test
        report = run_self_test(executors=executors, progress=print)
        print(report.summary())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
            print(f"report written to {args.json}")
        return 0 if report.ok else 1

    from .check import DEFAULT_APPS, run_differential
    apps = args.apps or list(DEFAULT_APPS)
    unknown = [a for a in apps if a not in APP_REGISTRY]
    if unknown:
        print(f"error: unknown app(s) {unknown}; known: "
              f"{sorted(APP_REGISTRY)}", file=sys.stderr)
        return 2
    reports = []
    for app in apps:
        print(f"{app}: differential conformance on "
              f"[{', '.join(executors)}]"
              + ("" if args.no_serve else " + serve"))
        report = run_differential(
            app=app, size=args.size, seed=args.seed,
            executors=executors, serve=not args.no_serve,
            timeout_s=args.timeout_s, progress=print)
        reports.append(report)
        print(report.summary())
        for mismatch in report.mismatches:
            print(f"    {mismatch['kind']}: {mismatch['detail']}")
    ok = all(r.ok for r in reports)
    print(f"\nconformance: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.ok for r in reports)}/{len(reports)} apps clean)")
    if args.json:
        payload = {"report": "conformance", "ok": ok,
                   "apps": [r.to_dict() for r in reports]}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.json}")
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "apps":
        return _cmd_apps()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-worker":
        return _cmd_serve_worker(args)
    if args.command == "serve-front":
        return _cmd_serve_front(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "ckpt":
        return _cmd_ckpt(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
