"""Extension D: restart policy (complete vs preempt) on histeq.

Preempting stale apply-stage passes reaches the precise output earlier
at the cost of fewer intermediate outputs.
"""

from _common import report, run_once

from repro.bench import ablation_restart_policy


def test_ablation_restart_policy(benchmark):
    fig = run_once(benchmark, ablation_restart_policy)
    report(fig, "ablation_restart_policy")
    rows = {r[0]: r for r in fig.rows}
    assert rows["preempt"][1] < rows["complete"][1], \
        "preemption must shorten time-to-precise"
    assert rows["preempt"][2] <= rows["complete"][2], \
        "preemption abandons some intermediate outputs"
    # EXPERIMENTS.md: 7.37x -> 6.64x, at ~14% fewer intermediate outputs
    assert round(rows["complete"][1], 3) == 7.373
    assert round(rows["preempt"][1], 3) == 6.638
    assert (rows["complete"][2], rows["preempt"][2]) == (96, 83)
