"""Extension I: energy fraction to reach target acceptability levels
("hold-the-power-button computing", quantified)."""

import math

from _common import report, run_once

from repro.bench import extension_energy


def test_extension_energy(benchmark):
    fig = run_once(benchmark, extension_energy)
    report(fig, "extension_energy")
    for app, mid, high in fig.rows:
        assert 0.0 < mid <= 1.0, app
        if not math.isnan(high):
            assert mid <= high, \
                f"{app}: higher quality cannot cost less energy"
    # the single-stage diffusive apps hit 15 dB on a small energy slice
    rows = {r[0]: r for r in fig.rows}
    assert rows["2dconv"][1] < 0.35
    assert rows["debayer"][1] < 0.35
    # EXPERIMENTS.md: 15 dB costs 6 / 16 / 36 % and 25 dB 44 / 84 / 54 %
    # of the full run's energy (2dconv / debayer / histeq)
    assert {app: (round(m, 3), round(h, 3)) for app, m, h in fig.rows} \
        == {"2dconv": (0.062, 0.437), "histeq": (0.359, 0.541),
            "debayer": (0.156, 0.844)}
