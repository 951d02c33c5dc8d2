"""Ablation C (paper IV-C3): sampling-permutation cache locality.

Sequential access enjoys spatial locality; tree and LFSR orders do not.
A permutation-aware prefetcher recovers most of the LFSR loss; the tree
order additionally suffers power-of-two set conflicts that lookahead
alone cannot fix (its early strides alias to one cache set).
"""

from _common import report, run_once

from repro.bench import ablation_locality


def test_ablation_locality(benchmark):
    fig = run_once(benchmark, ablation_locality)
    report(fig, "ablation_locality")
    rates = {r[0]: (r[1], r[2], r[3]) for r in fig.rows}
    seq_plain, seq_pf, seq_rb = rates["sequential"]
    assert seq_plain < 0.1, "sequential access mostly hits"
    for name in ("tree", "lfsr"):
        assert rates[name][0] > 5 * seq_plain, \
            f"{name} order must show the locality penalty"
        # the row-buffer side of the paper's IV-C3 claim
        assert rates[name][2] < 0.5 * seq_rb, \
            f"{name} order must also hurt row-buffer locality"
    assert seq_rb > 0.9
    # the prefetcher substantially recovers the LFSR penalty
    lfsr_plain, lfsr_pf, _ = rates["lfsr"]
    assert lfsr_pf < 0.25 * lfsr_plain
    assert seq_pf <= seq_plain
    # EXPERIMENTS.md: miss rates 6.2 / 100 / 89 %, prefetched LFSR 0.6 %
    # and tree 87 %, row-buffer hits 99.8 / 0 / 22 %
    assert {name: tuple(round(v, 3) for v in r)
            for name, r in rates.items()} == {
        "sequential": (0.062, 0.0, 0.998),
        "tree": (1.0, 0.875, 0.0),
        "lfsr": (0.894, 0.006, 0.223)}
