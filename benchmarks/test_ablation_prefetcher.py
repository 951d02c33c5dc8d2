"""Extension E: permutation-aware prefetching applied to the apps
(paper IV-C3's mitigation, measured end to end)."""

from _common import report, run_once

from repro.bench import ablation_prefetcher


def test_ablation_prefetcher(benchmark):
    fig = run_once(benchmark, ablation_prefetcher)
    report(fig, "ablation_prefetcher")
    for app, plain, prefetched, reordered in fig.rows:
        assert prefetched < plain, app
        # the prefetcher pulls time-to-precise close to baseline
        assert prefetched < 1.3, app
        # in-memory reordering removes the penalty entirely, at the
        # price of one streaming pass
        assert reordered < prefetched, app
        assert 1.0 <= reordered < 1.1, app
    # EXPERIMENTS.md: plain 1.80x, prefetcher 1.10x, in-memory reorder
    # 1.006x (2dconv) and 1.062x (debayer)
    assert {r[0]: tuple(round(v, 3) for v in r[1:]) for r in fig.rows} \
        == {"2dconv": (1.8, 1.1, 1.006), "debayer": (1.8, 1.1, 1.062)}
