import json

import pytest

import compare

SPEC = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.10},
        {"name": "throughput_rps", "unit": "1/s", "better": "higher",
         "bound": 0.10},
    ],
    "per_layer": [
        {"name": "aiofront.added_ms_mean", "unit": "ms",
         "better": "lower"},
    ],
}


def runs(workload, name, values, trace=0, unit="ms"):
    return [{"workload": workload, "seed": i, "trace": trace,
             "metrics": {name: {"value": v, "unit": unit}}}
            for i, v in enumerate(values)]


QUIET = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_identical_sets_are_not_worse():
    assert compare.verdict(QUIET, QUIET, "lower", 0.10) == "not worse"


def test_a_median_beyond_the_bound_is_worse():
    slower = [v * 1.15 for v in QUIET]
    assert compare.verdict(QUIET, slower, "lower", 0.10) == "worse"
    assert compare.verdict(slower, QUIET, "lower", 0.10) == "not worse"


def test_a_median_inside_the_bound_is_not_worse():
    assert compare.verdict(QUIET, [v * 1.05 for v in QUIET], "lower",
                           0.10) == "not worse"


def test_direction_follows_better():
    fewer = [v * 0.85 for v in QUIET]
    assert compare.verdict(QUIET, fewer, "higher", 0.10) == "worse"
    assert compare.verdict(QUIET, fewer, "lower", 0.10) == "not worse"


def test_a_spread_over_the_bound_is_unresolved():
    noisy = [80.0, 100.0, 120.0, 90.0, 112.0]
    assert compare.verdict(QUIET, noisy, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, QUIET, "lower", 0.10) == "unresolved"


def test_noisy_but_fully_separated_sets_are_resolved():
    noisy_slow = [180.0, 200.0, 220.0, 190.0, 212.0]
    assert compare.verdict(QUIET, noisy_slow, "lower", 0.10) == "worse"
    assert compare.verdict(noisy_slow, QUIET, "lower", 0.10) == \
        "not worse"


def test_compare_gives_one_row_per_metric_per_workload():
    a = runs("fleet_target", "latency_p50_ms", QUIET) \
        + runs("fleet_shared", "latency_p50_ms", QUIET) \
        + runs("fleet_shared", "throughput_rps", QUIET, unit="1/s")
    b = runs("fleet_target", "latency_p50_ms", [v * 1.2 for v in QUIET]) \
        + runs("fleet_shared", "latency_p50_ms", QUIET) \
        + runs("fleet_shared", "throughput_rps", QUIET, unit="1/s")
    rows = compare.compare(a, b, SPEC)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("fleet_target", "latency_p50_ms", "worse"),
        ("fleet_shared", "latency_p50_ms", "not worse"),
        ("fleet_shared", "throughput_rps", "not worse"),
    ]
    assert rows[0]["change"] == pytest.approx(0.2)


def test_summary_holds_quartiles_spreads_and_layer_medians(tmp_path):
    records = runs("exec_threaded", "latency_p50_ms", QUIET) \
        + runs("exec_threaded", "aiofront.added_ms_mean", [1.0, 3.0, 2.0],
               trace=1)
    summary = compare.summarize(records, SPEC)["exec_threaded"]
    row = summary["end_to_end"]["latency_p50_ms"]
    assert row["median"] == 100.0 and row["runs"] == 5
    assert row["q1"] <= row["median"] <= row["q3"]
    assert row["spread"] == pytest.approx((row["q3"] - row["q1"]) / 100.0)
    assert summary["per_layer"]["aiofront.added_ms_mean"]["median"] == 2.0
    path = tmp_path / "results.json"
    path.write_text(json.dumps(records))
    assert compare.print_summary(str(path), SPEC, as_json=False) == 0
    assert compare.print_comparison(str(path), str(path), SPEC) == 0
