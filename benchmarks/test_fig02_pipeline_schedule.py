"""Figure 2: a four-stage automaton produces whole-application outputs
with increasing accuracy, well before the precise one."""

from _common import report, run_once

from repro.bench import fig02_pipeline_schedule


def test_fig02_pipeline_schedule(benchmark):
    fig = run_once(benchmark, fig02_pipeline_schedule)
    report(fig, "fig02_pipeline_schedule")
    times = [row[1] for row in fig.rows]
    finals = [row[2] for row in fig.rows]
    assert len(fig.rows) >= 2, "pipeline must emit intermediate outputs"
    assert times == sorted(times), "outputs appear in time order"
    assert finals[-1] and not any(finals[:-1]), \
        "exactly the last output is the precise one"
    # Early availability: the first whole-application output lands in a
    # fraction of the time the precise one needs.
    assert times[0] < 0.7 * times[-1]
    # EXPERIMENTS.md: six versions, the first at 0.44x the precise time
    assert [round(t, 3) for t in times] == [3.2, 4.0, 4.8, 5.6, 6.4, 7.2]
    assert round(times[0] / times[-1], 2) == 0.44
