"""Wall-clock timing of one run's event order: the threaded executor
(one thread per stage) against the simulator's order, driven on the
calling thread (``run_simulated``, every stage on one thread).

For each app and size (256² and 1024²), 12 pairs alternate which
backend runs first; each run builds a fresh automaton on one input
(made, with its reference, outside the timed part) and is timed from
just before ``run_*`` to each terminal write, stamped by a stop
condition that never stops.  The simulator uses the app's registered
schedule (kmeans: ``final_stage_shares``; the others the default
shares) on 32 virtual cores.  Prints one JSON line per run, with its
time to the first version, to 20 dB and to the final, then the
medians::

    PYTHONPATH=src python benchmarks/event_order.py
"""

from __future__ import annotations

import json
import math
import statistics
import time

from repro.apps.registry import APP_REGISTRY, get_app
from repro.core.controller import StopCondition

BACKENDS = ("threaded", "one-thread")
SIZES = (256, 1024)
RUNS = 12           # runs per backend, app and size
TARGET_DB = 20.0
SEED = 0


class Stamps(StopCondition):
    """The wall-clock time of every terminal write; never stops."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def should_stop(self, record) -> bool:
        self.times.append(time.perf_counter())
        return False


def timed_run(spec, image, reference, backend: str) -> dict:
    automaton = spec.build(image)
    stamps = Stamps()
    started = time.perf_counter()
    if backend == "threaded":
        result = automaton.run_threaded(stop=stamps)
    else:
        result = automaton.run_simulated(stop=stamps,
                                         schedule=spec.schedule)
    records = result.output_records(automaton.terminal_buffer_name)
    assert len(records) == len(stamps.times), "one stamp per version"
    ms = [(t - started) * 1e3 for t in stamps.times]
    snrs = [spec.metric(record.value, reference) for record in records]
    reached = [t for t, snr in zip(ms, snrs) if snr >= TARGET_DB]
    return {"first_ms": ms[0], "target_ms": reached[0] if reached
            else math.nan, "final_ms": ms[-1], "versions": len(ms),
            "final_snr": snrs[-1]}


def main(sizes=SIZES, runs: int = RUNS) -> None:
    medians = []
    for size in sizes:
        for app in sorted(APP_REGISTRY):
            spec = get_app(app)
            image = spec.make_input(size, SEED)
            reference = (spec.reference(image)
                         if spec.reference_kind != "input" else image)
            rows: dict[str, list[dict]] = {b: [] for b in BACKENDS}
            for i in range(runs):
                order = BACKENDS if i % 2 == 0 else BACKENDS[::-1]
                for backend in order:
                    row = timed_run(spec, image, reference, backend)
                    rows[backend].append(row)
                    print(json.dumps({"app": app, "size": size,
                                      "backend": backend, "run": i,
                                      **row}), flush=True)
            for backend, done in rows.items():
                medians.append((app, size, backend, {
                    key: statistics.median(row[key] for row in done)
                    for key in ("first_ms", "target_ms", "final_ms",
                                "versions")}))
    print(f"\nmedians of {runs} runs (ms):")
    for app, size, backend, m in medians:
        print(f"{app:8} {size:5} {backend:10} first {m['first_ms']:8.1f}"
              f"  {TARGET_DB:g} dB {m['target_ms']:8.1f}"
              f"  final {m['final_ms']:8.1f}  versions {m['versions']:g}")


if __name__ == "__main__":
    main()
