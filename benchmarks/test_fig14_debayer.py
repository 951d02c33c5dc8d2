"""Figure 14: debayer runtime-accuracy profile.

Paper shape: like 2dconv — a single diffusive stage gives high accuracy
early; precise at 1.5-2x baseline.
"""

import math

from _common import report, run_once

from repro.bench import fig14_debayer


def test_fig14_debayer(benchmark):
    fig = run_once(benchmark, fig14_debayer)
    report(fig, "fig14_debayer")
    runtimes = [r[0] for r in fig.rows]
    snrs = [r[1] for r in fig.rows]
    assert runtimes == sorted(runtimes)
    best = -math.inf
    for s in snrs:
        assert s >= best - 1.0
        best = max(best, s)
    assert math.isinf(snrs[-1])
    early = [s for t, s in fig.rows if t <= 0.35]
    assert early and max(early) > 10.0
    assert 1.0 <= runtimes[-1] <= 3.0
    # EXPERIMENTS.md: precise at 1.80x (archived table's precision)
    assert round(runtimes[-1], 3) == 1.800
