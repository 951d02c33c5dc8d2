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

Layout
------
:func:`build_parser` declares every command, and each command names its
handler (``set_defaults(func=...)``), which :func:`main` calls.  A flag
that two or more commands take (the serving commands' worker flags,
``--size``, ``--seed``, the trace flags) is declared once, in one table,
and reaches each command through an argparse parent parser; a command
that keeps its own default (``serve --slots 4``) sets it on its parent.
Values are checked as they are parsed: a count below 1 or a malformed
``HOST:PORT`` is a usage error naming the flag (exit 2).  An unknown
app, executor or figure is reported by one helper, also with exit 2,
and the four ``repro check`` reports (differential, ``--restore``,
``--self-test``, ``--fleet``) are printed and written to ``--json`` by
one function.

Wall-clock performance is measured by ``benchmarks/latency``, not by
this CLI.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import (Any, Callable, Collection, Iterable, Iterator,
                    Sequence)

from .apps.registry import APP_REGISTRY, calibrate_app, get_app
from .core.backends import EXECUTORS, executor_class, executor_names
from .core.contract import run_contract
from .core.controller import (AccuracyTarget, AnyOf, DeadlineStop,
                              EnergyBudget, StopCondition)
from .core.faults import FaultInjector, FaultPolicy
from .core.tracing import make_sink

__all__ = ["main", "build_parser"]


def _positive(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return value


def _endpoint(text: str) -> tuple[str, int]:
    """argparse type of ``HOST:PORT``."""
    from .serve.transport import parse_endpoint

    try:
        return parse_endpoint(text.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _endpoints(text: str) -> list[tuple[str, int]]:
    """argparse type of ``HOST:PORT,...``."""
    return [_endpoint(token) for token in text.split(",") if token.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Anytime Automaton (ISCA 2016) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    # a worker knob a command does not take keeps the worker's default
    parser.set_defaults(quantum_s=None, resume_dir=None,
                        no_coalesce=False, check=False)

    # the flags that two or more commands take, each declared once
    shared: dict[str, dict[str, Any]] = {
        "--size": dict(type=_positive,
                       help="input image edge length (default "
                            "%(default)s)"),
        "--seed": dict(type=int, default=0),
        "--target-snr": dict(type=float, default=None, metavar="DB",
                             help="stop (with serve: finish each request "
                                  "early) once output SNR reaches DB"),
        "--trace": dict(type=str, default=None, metavar="PATH",
                        help="write an execution trace (with serve: "
                             "server + run events) to PATH"),
        "--trace-format": dict(choices=("jsonl", "chrome"),
                               default="chrome",
                               help="trace file format: chrome://tracing "
                                    "JSON (default) or JSON lines"),
        "--slots": dict(type=_positive, default=2,
                        help="concurrent executor slots per server or "
                             "worker (default %(default)s)"),
        "--queue-limit": dict(type=int, default=8,
                              help="admission queue bound per server or "
                                   "worker (default %(default)s)"),
        "--executor": dict(choices=executor_names(WALL_CLOCK=True),
                           default="threaded",
                           help="execution backend under the server or "
                                "its workers"),
        "--quantum-s": dict(type=float, default=0.02,
                            help="slot tenure before preemption (default "
                                 "%(default)s)"),
        "--no-coalesce": dict(action="store_true",
                              help="disable same-key request coalescing "
                                   "on the fleet workers"),
        "--workers": dict(type=_positive, default=None, metavar="N",
                          help="serve through a fleet of N forked worker "
                               "processes: router + consistent-hash "
                               "placement + coalescing (default "
                               "%(default)s; ignored with --endpoints)"),
        "--endpoints": dict(type=_endpoints, default=None,
                            metavar="HOST:PORT,...",
                            help="route to externally launched TCP "
                                 "workers (see `repro serve-worker`) "
                                 "instead of forking local ones"),
    }

    def flags(*names: str, **defaults: Any) -> list[argparse.ArgumentParser]:
        """A parent parser of the ``shared`` flags ``names``, with the
        command's own ``defaults``.  Each command gets a new one: a
        parent's actions are shared with its children, so a default
        set on one command's would be every command's."""
        parent = argparse.ArgumentParser(add_help=False)
        for name in names:
            parent.add_argument(name, **shared[name])
        parent.set_defaults(**defaults)
        return [parent]

    def command(name: str, func: Any, **kwargs: Any,
                ) -> argparse.ArgumentParser:
        child = sub.add_parser(name, **kwargs)
        child.set_defaults(func=func)
        return child

    command("apps", _cmd_apps, help="list evaluation applications")

    run = command("run", _cmd_run, help="execute one application",
                  parents=flags("--size", "--seed", "--target-snr",
                                "--trace", "--trace-format", size=128))
    run.add_argument("app", choices=sorted(APP_REGISTRY))
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

    figures = command("figures", _cmd_figures,
                      help="regenerate paper figures")
    figures.add_argument("names", nargs="*",
                         help="figure names (default: all)")
    figures.add_argument("--size", type=_positive, default=None,
                         help="override REPRO_BENCH_SIZE")

    serve = command(
        "serve", _cmd_serve,
        help="serve an open-loop anytime workload",
        parents=flags("--size", "--seed", "--target-snr", "--trace",
                      "--trace-format", "--slots", "--queue-limit",
                      "--executor", "--quantum-s", "--no-coalesce",
                      "--workers", "--endpoints", size=32, slots=4))
    serve.add_argument("--app", type=str, default="2dconv",
                       choices=sorted(APP_REGISTRY))
    serve.add_argument("--requests", type=_positive, default=16,
                       help="how many requests to submit (default 16)")
    serve.add_argument("--rate", type=float, default=None, metavar="RPS",
                       help="offered load, requests/s (default: 1.5x "
                            "the measured service capacity)")
    serve.add_argument("--policy", choices=("fair", "gain"),
                       default="fair",
                       help="slot-allocation policy: round-robin fair "
                            "share or profile-guided marginal gain")
    serve.add_argument("--deadline-s", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request latency SLO (default: 8x the "
                            "measured solo run time)")
    serve.add_argument("--wait-s", type=float, default=0.0,
                       metavar="SECONDS",
                       help="backpressure budget per submission before "
                            "shedding (default 0: shed immediately "
                            "when the queue is full)")
    serve.add_argument("--distinct", type=int, default=4,
                       help="unique inputs to spread requests over in "
                            "fleet mode (duplicates coalesce; "
                            "default 4)")

    worker = command(
        "serve-worker", _cmd_serve_worker,
        help="run one fleet worker on a TCP listener",
        parents=flags("--slots", "--queue-limit", "--executor",
                      "--quantum-s", "--no-coalesce"))
    worker.add_argument("--listen", type=_endpoint, default="127.0.0.1:0",
                        metavar="HOST:PORT",
                        help="bind address (default 127.0.0.1:0 — an "
                             "ephemeral port, printed on startup)")
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

    front = command(
        "serve-front", _cmd_serve_front,
        help="fleet + asyncio front end for external TCP clients",
        parents=flags("--slots", "--queue-limit", "--executor",
                      "--workers", "--endpoints", workers=2))
    front.add_argument("--host", type=str, default="127.0.0.1",
                       help="front-end bind host (default 127.0.0.1)")
    front.add_argument("--port", type=int, default=9700,
                       help="front-end bind port (default 9700; 0 for "
                            "ephemeral)")
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

    check = command(
        "check", _cmd_check,
        help="conformance checking (invariants, differential harness, "
             "self-test, fuzzing)",
        parents=flags("--size", "--seed", size=24))
    check.add_argument("apps", nargs="*", metavar="APP",
                       help="applications to cross-check (default: "
                            "2dconv kmeans dwt53)")
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
    inspect = ckpt.add_subparsers(dest="ckpt_command", required=True) \
        .add_parser("inspect", help="print a checkpoint's header (log "
                    "events per stage, live stages, buffer versions)")
    inspect.set_defaults(func=_cmd_ckpt)
    inspect.add_argument("path", help="checkpoint file (.rck)")
    inspect.add_argument("--json", action="store_true",
                         help="emit the raw header as JSON")
    return parser


def _cmd_apps(args: argparse.Namespace) -> int:
    width = max(len(name) for name in APP_REGISTRY)
    for name in sorted(APP_REGISTRY):
        print(f"{name:<{width}}  {APP_REGISTRY[name].description}")
    return 0


def _make_stop(args: argparse.Namespace, automaton: Any,
               reference: Any, spec: Any, image: Any) -> StopCondition | None:
    conditions: list[StopCondition] = []
    if args.deadline is not None:
        conditions.append(DeadlineStop(
            automaton.baseline_duration(args.cores) * args.deadline))
    if args.energy_budget is not None:
        full_run = spec.build(image).run_simulated(
            total_cores=args.cores, schedule=spec.schedule)
        conditions.append(EnergyBudget(full_run.energy
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
    reference = spec.reference_for(image)

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
        stop = _make_stop(args, automaton, reference, spec, image)
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
    if _unknown("figure", names, all_figures):
        return 2
    for name in names:
        print(all_figures[name]().render())
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    fleet = args.workers is not None or bool(args.endpoints)
    if fleet:
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
    workers = len(args.endpoints or ()) or args.workers or 1

    print(f"calibrating {args.app} at size {args.size} ...")
    calib = calibrate_app(app=args.app, size=args.size,
                          seed=args.seed + 7)
    baseline = calib["baseline_wall_s"]
    capacity = workers * args.slots / baseline
    rate = args.rate if args.rate is not None else 1.5 * capacity
    deadline_s = (args.deadline_s if args.deadline_s is not None
                  else 8.0 * baseline)
    over = across = ""
    if fleet:
        kind = "TCP" if args.endpoints else "forked"
        over = f" over {workers} {kind} worker(s)"
        across = f" across {max(1, args.distinct)} distinct input(s)"
    print(f"solo run {baseline:.3f}s -> capacity ~{capacity:.1f} req/s"
          f"{over}; offering {rate:.1f} req/s{across}, deadline "
          f"{deadline_s:.3f}s"
          + (f", target {args.target_snr:.1f} dB"
             if args.target_snr is not None else ""))
    timeout_s = max(60.0, 4 * args.requests * baseline)
    if fleet:
        return _serve_fleet(args, rate, deadline_s, timeout_s)
    return _serve_in_process(args, calib, rate, deadline_s, timeout_s)


def _serve_fleet(args: argparse.Namespace, rate: float, deadline_s: float,
                 timeout_s: float) -> int:
    from .serve import FleetRouter, run_open_loop

    slo = {"deadline_s": deadline_s, "target_db": args.target_snr}
    distinct = max(1, args.distinct)
    with FleetRouter(workers=args.workers,
                     endpoints=args.endpoints or None,
                     worker_config=_worker_config_from_args(args)) as fleet:
        requests = run_open_loop(
            lambda i: fleet.submit(args.app, size=args.size,
                                   seed=args.seed + i % distinct, slo=slo,
                                   wait_s=args.wait_s),
            args.requests, rate, seed=args.seed)
        if not fleet.drain(timeout_s=timeout_s):
            print("error: fleet drain timed out", file=sys.stderr)
            return 1
        counters = fleet.aggregate_stats()["router"]
    _print_serving(requests, f"router counters {counters}")
    return 0


def _serve_in_process(args: argparse.Namespace, calib: dict[str, Any],
                      rate: float, deadline_s: float,
                      timeout_s: float) -> int:
    from .serve import SLO, AnytimeServer, run_open_loop
    from .serve.scheduler import FairSharePolicy, MarginalGainPolicy

    policy = (MarginalGainPolicy(calib["profile"], calib["baseline_wall_s"])
              if args.policy == "gain" else FairSharePolicy())
    sink = (make_sink(args.trace, args.trace_format)
            if args.trace is not None else None)
    server = AnytimeServer(
        slots=args.slots, queue_limit=args.queue_limit,
        executor=args.executor, policy=policy,
        quantum_s=args.quantum_s, trace=sink)
    slo = SLO(deadline_s=deadline_s, target_db=args.target_snr)
    try:
        with server:
            sessions = run_open_loop(
                lambda i: server.submit(calib["builder"], slo=slo,
                                        metric=calib["metric"],
                                        name=f"req-{i}",
                                        wait_s=args.wait_s),
                args.requests, rate, seed=args.seed)
            drained = server.drain(timeout_s=timeout_s)
        if not drained:
            print("error: drain timed out", file=sys.stderr)
            return 1
    finally:
        if sink is not None:
            sink.close()

    stats = server.stats()
    _print_serving(sessions, f"preemptions {stats['preemptions']}, "
                             f"resumes {stats['resumes']}")
    if args.trace is not None:
        print(f"trace written to {args.trace} ({args.trace_format})")
    return 0


def _print_serving(requests: Sequence[Any], counters: str) -> None:
    """``repro serve``'s one table and summary block, in-process or
    over a fleet; ``counters`` names the serving layer's own counts."""
    from .serve import summarize

    print(f"\n{'request':<9}{'worker':>7}  {'state':<11}{'latency':>9}"
          f"{'queued':>9}{'preempt':>8}{'coal':>6}{'memo':>6}"
          f"{'SNR (dB)':>10}")
    for i, request in enumerate(requests):
        r = request.outcome()
        # a request the router failed before any worker answered it
        # carries its state and errors only
        snr = ("inf" if r.get("precise_snr")
               else "-" if r.get("snr_db") is None
               else f"{r['snr_db']:.1f}")
        worker = r.get("worker")
        print(f"r{i:<8}{'-' if worker is None else worker!s:>7}  "
              f"{r['state']:<11}{r['latency_s']:>9.3f}"
              f"{r.get('queue_s', math.nan):>9.3f}"
              f"{r.get('preemptions', 0):>8}"
              f"{'y' if r.get('coalesced') else '-':>6}"
              f"{'y' if r.get('memo_hit') else '-':>6}{snr:>10}")

    summary = summarize(requests)
    workers = summary["workers_used"]
    print(f"\nserved {summary['completed']}/{summary['requests']} "
          f"(shed {summary['shed']}, failed {summary['failed']}) at "
          f"{summary['throughput_rps']:.2f} req/s goodput"
          + (f" on workers {workers}" if workers else ""))
    print(f"latency p50 {summary['latency_p50_s']:.3f}s  "
          f"p99 {summary['latency_p99_s']:.3f}s  "
          f"SLO attainment {summary['slo_attainment']:.0%}")
    print(f"queue wait mean {summary['queue_wait_mean_s']:.3f}s, "
          f"preemptions mean {summary['preemptions_mean']:.2f}; "
          f"{summary['interrupted']} request(s) interrupted, "
          f"{summary['precise']} reached precise")
    if summary["interrupted"] and not math.isnan(
            summary["snr_at_interrupt_mean_db"]):
        print(f"mean SNR at interrupt: "
              f"{summary['snr_at_interrupt_mean_db']:.1f} dB")
    print(f"coalesced {summary['coalesced']}, memo hits "
          f"{summary['memo_hits']}, shared a live spec "
          f"{summary['shared']}, re-dispatched "
          f"{summary['redispatched']}; {counters}")


def _worker_config_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """The worker config of ``serve --workers``, ``serve-worker`` and
    ``serve-front``; a knob the command does not take is None, and its
    workers keep their default."""
    config = {"slots": args.slots, "queue_limit": args.queue_limit,
              "executor": args.executor, "quantum_s": args.quantum_s,
              "resume_dir": args.resume_dir,
              "coalesce": not args.no_coalesce, "check": args.check}
    return {key: value for key, value in config.items()
            if value is not None}


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    from .serve.transport import serve_worker_listener

    config = _worker_config_from_args(args)
    knobs = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))

    def announce(host: str, port: int) -> None:
        print(f"fleet worker listening on {host}:{port} ({knobs})")
        print(f"route to it with: repro serve --endpoints {host}:{port}",
              flush=True)

    try:
        serve_worker_listener(args.listen, config, once=not args.forever,
                              announce=announce)
    except KeyboardInterrupt:
        pass
    print("router disconnected; worker exiting")
    return 0


def _cmd_serve_front(args: argparse.Namespace) -> int:
    from .serve.aiofront import serve_front
    from .serve.router import FleetRouter

    def announce(host: str, port: int) -> None:
        backing = (f"{len(args.endpoints)} TCP worker(s)" if args.endpoints
                   else f"{args.workers} forked worker(s)")
        print(f"anytime front end on {host}:{port} -> {backing}; "
              f"SIGTERM drains gracefully", flush=True)

    with FleetRouter(workers=args.workers,
                     endpoints=args.endpoints or None,
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


def _unknown(kind: str, names: Iterable[str], known: Collection[str],
             ) -> bool:
    """Report the ``names`` not in ``known`` as a usage error; True if
    there are any."""
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"error: unknown {kind}(s) {unknown}; known: "
              f"{sorted(known)}", file=sys.stderr)
    return bool(unknown)


def _each_app(apps: Sequence[str], title: str,
              run: Callable[[str], Any]) -> Iterator[Any]:
    """``run(app)`` for each app in turn, announced by ``title``."""
    for app in apps:
        print(f"{app}: {title}")
        yield run(app)


def _check_report(args: argparse.Namespace, reports: Iterable[Any],
                  verdict: str | None = None) -> int:
    """End a ``repro check`` mode: print each report's summary and
    mismatches as it arrives, and write ``--json``.  With ``verdict``
    (one report per app) print a PASS/FAIL line and write ``{"report":
    verdict, "ok", "apps"}``; without, write the one report's own
    ``to_dict()``."""
    import json

    done = []
    for report in reports:
        print(report.summary())
        # a self-test report has no mismatches: its summary lists cases
        for mismatch in getattr(report, "mismatches", ()):
            print("    " + ": ".join(str(mismatch[key]) for key in
                                     ("leg", "kind", "detail")
                                     if key in mismatch))
        done.append(report)
    ok = all(report.ok for report in done)
    if verdict is not None:
        print(f"\n{verdict.replace('-', ' ')}: "
              f"{'PASS' if ok else 'FAIL'} ({sum(r.ok for r in done)}/"
              f"{len(done)} apps clean)")
    if args.json:
        payload = done[0].to_dict() if verdict is None else {
            "report": verdict, "ok": ok,
            "apps": [report.to_dict() for report in done]}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.json}")
    return 0 if ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from . import check

    if args.fleet and args.executors is not None:
        from .serve.fleet import WORKER_DEFAULTS
        print(f"error: --fleet runs its workers on the "
              f"{WORKER_DEFAULTS['executor']} executor; it takes "
              f"no --executors", file=sys.stderr)
        return 2
    executors = tuple(EXECUTORS) if args.executors is None else tuple(
        e.strip() for e in args.executors.split(",") if e.strip())
    if (_unknown("executor", executors, EXECUTORS)
            or _unknown("app", args.apps, APP_REGISTRY)):
        return 2
    apps = args.apps or list(check.DEFAULT_APPS)

    if args.fleet:
        app = args.apps[0] if args.apps else "dwt53"
        print(f"{app}: fleet differential "
              f"(TCP fleet + kill-one-worker migration)")
        report = check.run_fleet_differential(
            app=app, size=args.size, workdir=args.workdir,
            timeout_s=args.timeout_s, progress=print)
        for leg in report.legs:
            bits = ", ".join(f"{k}={v}" for k, v in leg.items()
                             if k not in ("leg", "digests"))
            print(f"  [{leg['leg']}] {bits}")
        return _check_report(args, [report])

    if args.restore:
        pairs = [(src, dst) for src in executors for dst in executors]
        return _check_report(args, _each_app(
            apps, "restore-differential (checkpoint on one executor, "
                  "continue on another)",
            lambda app: check.run_restore_differential(
                app=app, size=args.size, seed=args.seed, pairs=pairs,
                workdir=args.workdir, timeout_s=args.timeout_s,
                progress=print)), "restore-conformance")

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
        return _check_report(args, [check.run_self_test(
            executors=executors, progress=print)])

    return _check_report(args, _each_app(
        apps, f"differential conformance on [{', '.join(executors)}]"
              + ("" if args.no_serve else " + serve"),
        lambda app: check.run_differential(
            app=app, size=args.size, seed=args.seed,
            executors=executors, serve=not args.no_serve,
            timeout_s=args.timeout_s, progress=print)), "conformance")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
