#!/usr/bin/env python3
"""Time to a useful answer, end to end and per layer.

    python3 benchmarks/latency/run.py --workload fleet_target --seed 1 \\
        --seconds 20 --trace 0 [--out RESULTS.json]
    python3 benchmarks/latency/run.py --compare A.json B.json
    python3 benchmarks/latency/run.py --summarize RESULTS.json [--json]
    python3 benchmarks/latency/run.py --smoke

A run prints every metric by name and unit, then — as the last line of
its standard output — one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See README.md beside this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "kernel": platform.release()}


def pin_to_one_cpu() -> int:
    """Keep this process, and every thread and process it starts from
    here on, on one CPU: the last of those it may use.

    The ``exec_*`` workloads take their times at the speed a kernel
    timed on the main thread reads (``machine.py``), which says nothing
    about a stage worker the scheduler put on the other vCPU — and it
    puts them there on some runs and not on others: ``exec_process``
    reads 125 ms a run spread over two vCPUs and 137 ms packed on one.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args: argparse.Namespace) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: the program under test is not at {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if str(args.workload).startswith("exec_"):
        # before numpy is imported: its BLAS threads start then
        pin_to_one_cpu()
    # the drivers import the program; import them only now
    from bench import run_workload
    from hygiene import Hygiene, quiet_shared_memory_del
    from spans import SpanRecorder
    from workloads import WORKLOADS, rounds_for

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    traced = bool(args.trace)
    listed = spec["per_layer" if traced else "end_to_end"]

    def on_sigterm(signum, frame):   # unwinds through every finally
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_sigterm)

    quiet_shared_memory_del()
    hygiene = Hygiene(OUT_DIR)
    recorder = SpanRecorder()
    rounds = rounds_for(args.workload, args.seconds, traced)
    outcome = None
    try:
        outcome = run_workload(args.workload, args.seed, rounds, traced,
                               hygiene, recorder)
    finally:
        leftovers = hygiene.close()
        for kind, count in leftovers.items():
            if count:
                print(f"LEFTOVER {kind}: {count}", file=sys.stderr)
    if traced:
        path = os.path.join(OUT_DIR, f"trace_{args.workload}.json")
        recorder.write_chrome(path)
        print(f"trace: {os.path.relpath(path)} "
              f"({len(recorder.spans)} spans)")

    for problem in outcome.problems[:20]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    # a layer a workload does not cross reports 0
    metrics = {m["name"]: {"value": float(outcome.metrics.get(m["name"],
                                                               0.0)),
                           "unit": m["unit"]} for m in listed}
    unlisted = sorted(set(outcome.metrics) - set(metrics))
    if unlisted:
        print(f"error: metrics missing from BENCHMARK.json: {unlisted}",
              file=sys.stderr)
        return 2
    correct = outcome.failed == 0 and not any(leftovers.values())
    print(f"{args.workload}  seed {args.seed}  {rounds} rounds in "
          f"{outcome.phase_s:.1f} s  {outcome.attempted} ops  "
          f"{outcome.failed} failed  leftovers {sum(leftovers.values())}")
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>14.4f} {entry['unit']}")
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": int(traced),
                  "rounds": rounds, "leftovers": leftovers,
                  "env": environment(), **result}
        records = []
        if os.path.exists(args.out):
            with open(args.out) as fh:
                records = json.load(fh)
        with open(args.out, "w") as fh:
            json.dump(records + [record], fh, indent=1)
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at its smallest, untraced and traced."""
    from workloads import WORKLOADS
    start = time.perf_counter()
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=170)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False}
            ok = proc.returncode == 0 and result.get("correct") is True
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace} "
                  f"{time.perf_counter() - t0:.1f}s")
            if not ok:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    print(f"smoke: {bad} failed, {time.perf_counter() - start:.1f}s")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="selects a whole number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--summarize", metavar="RESULTS")
    parser.add_argument("--json", action="store_true",
                        help="with --summarize: print JSON")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.compare or args.summarize:
        import compare
        spec = load_spec()
        if args.compare:
            return compare.print_comparison(*args.compare, spec)
        return compare.print_summary(args.summarize, spec, args.json)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("one of --workload, --compare, --summarize, --smoke")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
