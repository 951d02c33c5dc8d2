#!/usr/bin/env python3
"""Run one automaton on all three execution backends and compare.

The simulated executor is the evaluation yardstick (deterministic
virtual time); the threaded executor runs on real threads but Python's
GIL serializes the numeric kernels; the process executor forks one
worker per stage and moves ndarray versions through shared-memory slab
rings, so stages truly overlap.  All three interpret the *same* command
protocol, so the final outputs are bit-identical — only the clock
differs.

This example runs the 2D convolution app on each backend, checks the
outputs agree with the precise reference, and prints each wall-clock
backend's time to reach 90% of the final SNR.  On a single-core
machine the process backend only pays fork and IPC overhead; give it
>= 4 cores to see it pull ahead.

Run:  python examples/process_pipeline.py
"""

import math
import time

from repro import scene_image
from repro.apps.conv2d import build_conv2d_automaton, conv2d_precise
from repro.metrics.snr import snr_db

SIZE = 128


def t90(records, reference) -> float | None:
    """Wall time of the first version at 90% of the best finite SNR."""
    snrs = [snr_db(r.value, reference) for r in records]
    finite = [s for s in snrs if math.isfinite(s)]
    if not finite:
        return None
    target = 0.9 * max(finite)
    return next(r.time for r, s in zip(records, snrs) if s >= target)


def main() -> None:
    image = scene_image(SIZE, seed=0)
    reference = conv2d_precise(image)

    print(f"2dconv at {SIZE}x{SIZE}, three backends\n")

    sim = build_conv2d_automaton(image)
    result = sim.run_simulated(total_cores=32.0)
    records = result.output_records(sim.terminal_buffer_name)
    print(f"  simulated  {len(records):>3} versions, "
          f"{result.duration:.1f} virtual time units")

    for name in ("threaded", "process"):
        automaton = build_conv2d_automaton(image)
        start = time.perf_counter()
        result = automaton.run(name, timeout_s=300.0)
        wall = time.perf_counter() - start
        records = result.output_records(automaton.terminal_buffer_name)
        final_snr = snr_db(records[-1].value, reference)
        assert math.isinf(final_snr), "must reach the precise output"
        reach = t90(records, reference)
        print(f"  {name:<9}  {len(records):>3} versions, "
              f"{wall:.3f}s wall, 90%-SNR at {reach:.3f}s")

    print("\nfinal outputs are bit-identical on every backend; only "
          "the clock differs.")


if __name__ == "__main__":
    main()
