"""Ablation B (paper IV-C2): thread allocation policies.

Correctness never depends on the allocation; the final-stage policy
minimizes the inter-output gap, as the paper's discussion predicts.
"""

from _common import report, run_once

from repro.bench import ablation_scheduling


def test_ablation_scheduling(benchmark):
    fig = run_once(benchmark, ablation_scheduling)
    report(fig, "ablation_scheduling")
    for f_scale in (2.0, 10.0):
        rows = {r[1]: r for r in fig.rows if r[0] == f_scale}
        gaps = {name: r[3] for name, r in rows.items()}
        assert gaps["final-stage"] == min(gaps.values()), \
            "boosting the terminal stage minimizes the output gap"
        # every policy reaches the precise output
        assert all(r[4] > 0 for r in rows.values())
    # EXPERIMENTS.md: final-stage boost 41.7 vs 50-100 work units at
    # f/other = 2, 72 vs 93-100 at f/other = 10
    gaps = {(r[0], r[1]): round(r[3], 3) for r in fig.rows}
    assert gaps == {
        (2.0, "equal"): 50.0, (2.0, "proportional"): 62.5,
        (2.0, "first-output"): 100.0, (2.0, "final-stage"): 41.667,
        (10.0, "equal"): 92.857, (10.0, "proportional"): 100.0,
        (10.0, "first-output"): 100.0, (10.0, "final-stage"): 72.222}
