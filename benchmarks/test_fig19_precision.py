"""Figure 19: 2dconv sample-size-accuracy under reduced pixel precision.

Paper anchors at full sample size: 6-bit ~37.9 dB, 4-bit ~24.2 dB;
8-bit is exact.  Reduced precision composes with sampling: at small
sample sizes the sampling error dominates and the curves overlap.
"""

import math

from _common import report, run_once

from repro.bench import fig19_precision


def test_fig19_precision(benchmark):
    fig = run_once(benchmark, fig19_precision)
    report(fig, "fig19_precision")
    final = {}
    for bits, frac, snr in fig.rows:
        if frac == 1.0:
            final[bits] = snr
    assert math.isinf(final[8]), "8-bit full sample is the precise output"
    # precision ceilings ordered and near the paper's anchors
    assert final[6] > final[4] > final[2]
    assert abs(final[6] - 38.2) <= 0.1, "paper: ~37.9 dB at 6 bits"
    assert 15.0 <= final[4] <= 35.0, "paper: ~24.2 dB at 4 bits"
    # SNR grows with sample size within each precision (tolerance 1 dB)
    for bits in (8, 6, 4, 2):
        series = [snr for b, _, snr in fig.rows if b == bits]
        best = -math.inf
        for s in series:
            assert s >= best - 1.0
            best = max(best, s)
