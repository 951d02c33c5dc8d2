"""Figure 17: dwt53 output halted at ~78% of baseline runtime (paper:
SNR 16.8 dB)."""

from _common import report, run_once

from repro.bench import fig17_dwt53_output


def test_fig17_dwt53_output(benchmark):
    fig = run_once(benchmark, fig17_dwt53_output)
    report(fig, "fig17_dwt53_output")
    rows = {r[0]: r for r in fig.rows}
    measured_snr = rows["SNR at halt (dB)"][2]
    assert measured_snr > 8.0
    time_to_paper_snr = rows["runtime to reach paper SNR"][2]
    assert time_to_paper_snr == time_to_paper_snr  # not NaN
    assert time_to_paper_snr <= 1.6
    # EXPERIMENTS.md's headline, at the archived table's precision:
    # 13.2 dB at the 78 % halt, the paper's SNR reached at 1.14x
    assert round(measured_snr, 3) == 13.154
    assert round(time_to_paper_snr, 3) == 1.138
