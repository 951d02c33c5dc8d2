"""The runner end to end: the smoke run and the contract's edges."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")


def test_benchmark_json_matches_the_workloads():
    from workloads import LIMIT_MS, ROUNDS_PER_SECOND, WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(LIMIT_MS) == set(ROUNDS_PER_SECOND) == set(WORKLOADS)
    assert spec["paths"] == ["benchmarks/latency"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def _baseline():
    with open(os.path.join(BENCH, "baseline.json")) as fh:
        return json.load(fh)["workloads"]


def test_every_bound_covers_the_spread_the_baseline_measured():
    """The driver accepts the benchmark only while ten runs of every
    workload spread by no more than the bound (``setup_s`` excepted),
    and no bound may exceed 0.25."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    baseline = _baseline()
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        assert 0.0 < bound <= 0.25, name
        if name != "setup_s":
            worst = max(rows["end_to_end"][name]["spread"]
                        for rows in baseline.values())
            assert worst <= bound, (name, worst)


def test_limits_stay_near_three_times_the_baseline_p90():
    """Not equal to it: the limits are constants, and the fleet's p90
    moves by a 50 ms step between two baselines of the same code."""
    from workloads import LIMIT_MS, WORKLOADS
    baseline = _baseline()
    for workload in WORKLOADS:
        p90 = baseline[workload]["per_layer"]["latency_p90_ms"]["median"]
        assert 2.5 * p90 <= LIMIT_MS[workload] <= 4.0 * p90, workload


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "latency",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/latency/run.py", "--workload",
         "exec_threaded", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_out_appends_run_records(tmp_path):
    out = tmp_path / "results.json"
    for seed in (1, 2):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "exec_threaded", "--seed",
             str(seed), "--seconds", "1", "--trace", "0",
             "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert all(v["value"] > 0 for v in last["metrics"].values())
    records = json.loads(out.read_text())
    assert [r["seed"] for r in records] == [1, 2]
    assert {"nproc", "python", "numpy", "kernel"} <= set(records[0]["env"])


def test_an_exec_run_and_the_workers_it_forks_stay_on_one_cpu():
    code = ("import os, run\n"
            "run.pin_to_one_cpu()\n"
            "r, w = os.pipe()\n"
            "if os.fork() == 0:\n"
            "    os.write(w, str(len(os.sched_getaffinity(0))).encode())\n"
            "    os._exit(0)\n"
            "os.wait()\n"
            "print(len(os.sched_getaffinity(0)), os.read(r, 8).decode())\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          capture_output=True, text=True, timeout=30)
    assert proc.stdout.split() == ["1", "1"], proc.stderr


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run([sys.executable, RUN, "--smoke"],
                          capture_output=True, text=True, timeout=280)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok  ") == 8
    # nothing but the traces is left in the benchmark's output directory
    assert all(name.startswith("trace_")
               for name in os.listdir(os.path.join(BENCH, "out")))


def _running(marker):
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    if marker.encode() in fh.read():
                        found.append(int(entry))
            except OSError:
                pass
    return found


def test_sigterm_in_the_middle_of_a_process_run_leaves_nothing():
    # forked stage workers carry the command line, so the seed finds them
    seed = "424242"
    before = set(os.listdir("/dev/shm"))
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "exec_process", "--seed", seed,
         "--seconds", "22", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        time.sleep(4.0)          # inside the first set-up's warm-up runs
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 128 + signal.SIGTERM
    assert '"correct"' not in out
    assert _running(seed) == []
    assert {name for name in set(os.listdir("/dev/shm")) - before
            if name.startswith("repro_")} == set()
