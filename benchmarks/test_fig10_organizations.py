"""Figure 10: runtime of the five automaton organizations.

Expected ordering (the paper's summary example): the synchronous
pipeline finishes before the baseline; the diffusive asynchronous
pipeline matches the baseline; iterative organizations pay the
redundant-work tax, mitigated (but not erased) by pipelining.
"""

from _common import report, run_once

from repro.bench import fig10_organizations


def test_fig10_organizations(benchmark):
    fig = run_once(benchmark, fig10_organizations, m=64)
    report(fig, "fig10_organizations")
    runtime = {row[0]: row[1] for row in fig.rows}
    # the summary example's runtimes, exactly: sync < baseline =
    # diffusive-async < iterative-async < iterative
    expected = {"sync": 0.75, "baseline": 1.00, "diffusive-async": 1.00,
                "iterative-async": 1.25, "iterative": 1.50}
    for org, ratio in expected.items():
        assert abs(runtime[org] / runtime["baseline"] - ratio) < 1e-3, \
            f"{org}: {runtime[org]:.4f}x baseline, expected {ratio}x"
    # Every pipelined organization delivers a first (approximate)
    # whole-application output before the baseline's only output.
    first = {row[0]: row[2] for row in fig.rows}
    for org in ("iterative", "iterative-async", "diffusive-async",
                "sync"):
        assert first[org] < runtime["baseline"]
