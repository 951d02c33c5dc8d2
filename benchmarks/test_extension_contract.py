"""Extension G: contract vs interruptible execution at known deadlines
(paper II-B's dichotomy, quantified on dwt53)."""

import math

from _common import report, run_once

from repro.bench import extension_contract


def test_extension_contract(benchmark):
    fig = run_once(benchmark, extension_contract)
    report(fig, "extension_contract")
    for deadline, inter_snr, contract_snr in fig.rows:
        # knowing the deadline never hurts
        assert contract_snr >= inter_snr - 1e-9, deadline
    # with a generous deadline both reach the precise output
    last = fig.rows[-1]
    assert math.isinf(last[1]) and math.isinf(last[2])
    # at some mid deadline the contract run is strictly better
    assert any(c > i for _, i, c in fig.rows
               if not (math.isinf(c) and math.isinf(i)))
    # EXPERIMENTS.md: at 0.7x contract 14.2 vs interruptible 10.3 dB, at
    # 1.2x contract exact vs 14.2 dB; ties at 0.3x and 2.5x
    assert [tuple(round(v, 3) for v in r) for r in fig.rows] == [
        (0.3, 8.157, 8.157), (0.7, 10.313, 14.217),
        (1.2, 14.217, math.inf), (2.5, math.inf, math.inf)]
