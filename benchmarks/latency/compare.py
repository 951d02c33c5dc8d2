"""Summaries of a results file and comparison of two.

One row per end-to-end metric per workload.  B against A is

* ``worse`` when B's median is beyond A's by more than the metric's
  bound (a share of A's median, as ``BENCHMARK.json`` fixes it),
* ``not worse`` otherwise,
* ``unresolved`` when the interquartile spread of either side exceeds
  the bound — unless every run of one side beats every run of the
  other, in which case the medians are trusted.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from stats import quartiles, spread

__all__ = ["load_runs", "values_of", "verdict", "summarize", "compare",
           "print_summary", "print_comparison"]


def load_runs(path: str) -> list[dict[str, Any]]:
    with open(path) as fh:
        return json.load(fh)


def values_of(runs: list[dict[str, Any]], workload: str, trace: int,
              metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and run["trace"] == trace
            and metric in run["metrics"]]


def _workloads(runs: list[dict[str, Any]]) -> list[str]:
    return list(dict.fromkeys(run["workload"] for run in runs))


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` reads than ``a`` (negative: better)."""
    return b - a if better == "lower" else a - b


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """``worse`` / ``not worse`` / ``unresolved`` for B against A."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    noisy = max(spread(a), spread(b)) > bound
    separated = (
        all(_worse_by(x, y, better) > 0 for x in a for y in b)
        or all(_worse_by(x, y, better) < 0 for x in a for y in b))
    if noisy and not separated:
        return "unresolved"
    if _worse_by(median_a, median_b, better) > bound * abs(median_a):
        return "worse"
    return "not worse"


def summarize(runs: list[dict[str, Any]], spec: dict[str, Any],
              ) -> dict[str, Any]:
    """Medians, quartiles and spreads of the end-to-end metrics, and
    the medians of the per-layer ones, per workload."""
    out: dict[str, Any] = {}
    for workload in _workloads(runs):
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = values_of(runs, workload, 0, metric["name"])
            if values:
                q1, median, q3 = quartiles(values)
                end_to_end[metric["name"]] = {
                    "unit": metric["unit"], "runs": len(values),
                    "median": median, "q1": q1, "q3": q3,
                    "spread": spread(values), "bound": metric["bound"]}
        per_layer = {}
        for metric in spec["per_layer"]:
            values = values_of(runs, workload, 1, metric["name"])
            if values:
                per_layer[metric["name"]] = {
                    "unit": metric["unit"], "runs": len(values),
                    "median": quartiles(values)[1]}
        out[workload] = {"end_to_end": end_to_end, "per_layer": per_layer}
    return out


def compare(runs_a: list[dict[str, Any]], runs_b: list[dict[str, Any]],
            spec: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for workload in _workloads(runs_a):
        for metric in spec["end_to_end"]:
            a = values_of(runs_a, workload, 0, metric["name"])
            b = values_of(runs_b, workload, 0, metric["name"])
            if not a or not b:
                continue
            median_a, median_b = quartiles(a)[1], quartiles(b)[1]
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "a": median_a, "b": median_b,
                "change": (median_b - median_a) / abs(median_a)
                if median_a else 0.0,
                "spread_a": spread(a), "spread_b": spread(b),
                "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"],
                                   metric["bound"])})
    return rows


def print_summary(path: str, spec: dict[str, Any], as_json: bool) -> int:
    runs = load_runs(path)
    summary = summarize(runs, spec)
    if as_json:
        envs = [run["env"] for run in runs if "env" in run]
        print(json.dumps({"env": envs[0] if envs else {},
                          "workloads": summary}, indent=1))
        return 0
    for workload, parts in summary.items():
        print(workload)
        for name, row in parts["end_to_end"].items():
            flag = "" if name == "setup_s" or row["spread"] <= row["bound"] \
                else "  SPREAD OVER BOUND"
            print(f"  {name:<22} {row['median']:>12.4f} {row['unit']:<6}"
                  f" q1 {row['q1']:.4f} q3 {row['q3']:.4f}"
                  f" spread {row['spread']:.4f} bound {row['bound']}"
                  f" n={row['runs']}{flag}")
        for name, row in parts["per_layer"].items():
            print(f"  {name:<36} {row['median']:>12.4f} {row['unit']:<6}"
                  f" n={row['runs']}")
    return 0


def print_comparison(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    rows = compare(load_runs(path_a), load_runs(path_b), spec)
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<20}"
              f" A {row['a']:>11.4f} B {row['b']:>11.4f} {row['unit']:<6}"
              f" {row['change']:+8.2%} spread {row['spread_a']:.3f}/"
              f"{row['spread_b']:.3f} bound {row['bound']}"
              f"  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
