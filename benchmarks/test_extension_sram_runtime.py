"""Extension F: conv2d on drowsy SRAM — the runtime-accuracy view of
the approximate-storage iterative technique (III-B1)."""

import math

from _common import report, run_once

from repro.bench import extension_sram_runtime


def test_extension_sram_runtime(benchmark):
    fig = run_once(benchmark, extension_sram_runtime)
    report(fig, "extension_sram_runtime")
    snrs = [r[2] for r in fig.rows]
    runtimes = [r[1] for r in fig.rows]
    assert runtimes == sorted(runtimes)
    assert math.isinf(snrs[-1]), \
        "the nominal last level must be precise despite earlier upsets"
    assert all(s > 20.0 for s in snrs), \
        "every voltage level yields a usable output"
    assert snrs[0] <= snrs[-1]
    # EXPERIMENTS.md: 45 dB -> 47 dB -> exact over the voltage ladder
    assert runtimes == [1.0, 2.0, 3.0]
    assert [round(s, 3) for s in snrs] == [45.348, 46.821, math.inf]
