"""Figure 16: 2dconv output halted at ~21% of baseline runtime.

The paper shows the image at SNR 15.8 dB; we assert a usable
double-digit-SNR output exists at that stopping point and that the
paper's SNR is reachable within baseline runtime.
"""

from _common import report, run_once

from repro.bench import fig16_conv2d_output


def test_fig16_conv2d_output(benchmark):
    fig = run_once(benchmark, fig16_conv2d_output)
    report(fig, "fig16_conv2d_output")
    rows = {r[0]: r for r in fig.rows}
    measured_snr = rows["SNR at halt (dB)"][2]
    assert measured_snr > 10.0, \
        "halting at 21% runtime must already give a usable output"
    time_to_paper_snr = rows["runtime to reach paper SNR"][2]
    assert time_to_paper_snr == time_to_paper_snr  # not NaN
    assert time_to_paper_snr <= 1.0, \
        "the paper's 15.8 dB operating point lies below baseline runtime"
    # EXPERIMENTS.md's headline, at the archived table's precision:
    # 19.5 dB at the 21 % halt, the paper's SNR reached at 0.11x
    assert round(measured_snr, 3) == 19.461
    assert round(time_to_paper_snr, 3) == 0.113
