"""Figure 13: dwt53 runtime-accuracy profile.

Paper shape: a steep curve — iterative loop perforation spends over half
the baseline runtime below acceptability, then jumps; acceptable
(~16.8 dB) arrives before baseline completes, precise after it.
"""

import math

from _common import report, run_once

from repro.bench import fig13_dwt53


def test_fig13_dwt53(benchmark):
    fig = run_once(benchmark, fig13_dwt53)
    report(fig, "fig13_dwt53")
    runtimes = [r[0] for r in fig.rows]
    snrs = [r[1] for r in fig.rows]
    assert runtimes == sorted(runtimes)
    assert all(b >= a for a, b in zip(snrs, snrs[1:])), \
        "iterative levels strictly improve"
    assert math.isinf(snrs[-1])
    # steepness: one output version per perforation level, few versions
    assert 3 <= len(fig.rows) <= 6
    # precise later than baseline (redundant iterative work)
    assert 1.2 <= runtimes[-1] <= 3.5
    # an acceptable (>14 dB) version exists before 1.5x baseline
    acceptable = [t for t, s in fig.rows if s >= 14.0]
    assert acceptable and acceptable[0] <= 1.5
    # EXPERIMENTS.md's headline, at the archived table's precision:
    # 9.8 dB until 0.49x, 13.2 dB at 0.78x, precise at 2.14x
    assert round(snrs[0], 3) == 9.824
    assert round(runtimes[1], 3) == 0.488
    at_78 = [s for t, s in fig.rows if t <= 0.78][-1]
    assert round(at_78, 3) == 13.154
    assert round(runtimes[-1], 3) == 2.138
