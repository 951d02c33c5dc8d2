"""Figure 18: kmeans output halted at ~63% of baseline runtime (paper:
SNR 16.7 dB)."""

from _common import report, run_once

from repro.bench import fig18_kmeans_output


def test_fig18_kmeans_output(benchmark):
    fig = run_once(benchmark, fig18_kmeans_output)
    report(fig, "fig18_kmeans_output")
    rows = {r[0]: r for r in fig.rows}
    measured_snr = rows["SNR at halt (dB)"][2]
    assert measured_snr > 8.0
    time_to_paper_snr = rows["runtime to reach paper SNR"][2]
    assert time_to_paper_snr == time_to_paper_snr  # not NaN
    assert time_to_paper_snr <= 3.0
    # EXPERIMENTS.md's headline, at the archived table's precision:
    # 8.5 dB at the 63 % halt, the paper's SNR reached at 1.86x
    assert round(measured_snr, 3) == 8.543
    assert round(time_to_paper_snr, 3) == 1.861
