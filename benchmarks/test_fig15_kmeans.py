"""Figure 15: kmeans runtime-accuracy profile.

Paper shape: diffusive assignment + non-anytime reduce; acceptable
output below baseline runtime, precise a bit past it — better than
histeq (one cheap non-anytime stage, not two blocking ones).
"""

import math

from _common import report, run_once

from repro.bench import fig15_kmeans


def test_fig15_kmeans(benchmark):
    fig = run_once(benchmark, fig15_kmeans)
    report(fig, "fig15_kmeans")
    runtimes = [r[0] for r in fig.rows]
    snrs = [r[1] for r in fig.rows]
    assert runtimes == sorted(runtimes)
    best = -math.inf
    for s in snrs:
        assert s >= best - 2.0
        best = max(best, s)
    assert math.isinf(snrs[-1])
    assert 1.2 <= runtimes[-1] <= 4.0
    # double-digit SNR well before the precise output
    acceptable = [t for t, s in fig.rows if s >= 10.0]
    assert acceptable and acceptable[0] <= 0.7 * runtimes[-1]
    # EXPERIMENTS.md's headline, at the archived table's precision:
    # 15.5 dB at 1.5x, precise at 2.58x
    at_1_5 = [s for t, s in fig.rows if t <= 1.51][-1]
    assert round(at_1_5, 3) == 15.498
    assert round(runtimes[-1], 3) == 2.582
