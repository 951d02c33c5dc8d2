"""One run of one workload: set-up, timed phase, answer checks, and —
on a traced run — the layer probes.

The timed phase does no reference or digest work on the fleet
workloads; answers are checked after the fleet is down.  On the
``exec_*`` workloads the per-run bookkeeping is timed and taken out of
the phase (see ``exec_driver.run_ops``).
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Callable

from repro.serve.aiofront import AioFleetClient

import probes
from exec_driver import Pool, RunSample, launcher, layer_of, run_ops
from fleet_driver import Fleet, Sample, drive, slo_of
from hygiene import (Hygiene, cpu_seconds, reaped_rss_peak_mb,
                     rss_peak_mb)
from machine import spin_ms, to_nominal
from outcome import Outcome, end_to_end
from refs import precise_digest
from spans import SpanRecorder
from stats import mean, percentile
from workloads import APPS, LIMIT_MS, REPEATS, TARGET_DB, Op, plan

__all__ = ["run_workload"]

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: input-seed offsets that keep warm-up and probe keys apart from the
#: timed plan's and from one another
WARM_INDEX = 900_000
PROBE_INDEX = 500_000
#: rounds the router and apps probes take at most
PROBE_ROUNDS = 2


def run_workload(workload: str, seed: int, rounds: int, traced: bool,
                 hygiene: Hygiene, recorder: SpanRecorder) -> Outcome:
    """A traced run sets up once: it does not report ``setup_s``."""
    recorder.enabled = traced
    run = _run_fleet if workload.startswith("fleet_") else _run_exec
    return run(workload, seed, rounds, traced, hygiene, recorder,
               1 if traced else SETUP_REPEATS)


def _alternate(per_round: int) -> Callable[[int], bool]:
    """Spans on even rounds, off on odd ones: the two halves of one
    traced run give the tracing overhead."""
    return lambda index: (index // per_round) % 2 == 0


def _overhead_share(latency_ms: list[float], traced: list[bool]) -> float:
    on = [v for v, t in zip(latency_ms, traced) if t]
    off = [v for v, t in zip(latency_ms, traced) if not t]
    return mean(on) / mean(off) - 1.0 if on and off else 0.0


def _latency_layers(pairs: list[tuple[str, float]]) -> dict[str, float]:
    """The workload's own latencies: percentiles, and the per-app split
    that says which app moved the mix's mean."""
    values = [v for _, v in pairs]
    metrics = {"latency_p50_ms": percentile(values, 50),
               "latency_p90_ms": percentile(values, 90)}
    for app in APPS:
        metrics[f"apps.{app}.latency_ms_mean"] = mean(
            [v for a, v in pairs if a == app])
    return metrics


# -- fleet_target / fleet_shared ----------------------------------------

def _run_fleet(workload: str, seed: int, rounds: int, traced: bool,
               hygiene: Hygiene, recorder: SpanRecorder,
               repeats: int) -> Outcome:
    steps = plan(workload, seed, rounds)
    per_round = len(steps) // rounds
    setup_s: list[float] = []
    fleet = None
    try:
        for k in range(repeats):
            start = time.perf_counter()
            fleet = Fleet()
            hygiene.note_processes()
            warm = plan("fleet_target", seed, 1, first_index=WARM_INDEX + k)
            session = asyncio.run(_session(
                fleet, workload, warm,
                steps if k == repeats - 1 else None, recorder,
                _alternate(per_round) if traced else None))
            setup_s.append(session["setup_end"] - start)
            if k < repeats - 1:
                fleet.close()
        rss_mb = sum(rss_peak_mb(pid) for pid in fleet.pids)
    finally:
        if fleet is not None:
            fleet.close()

    samples: list[Sample] = session["samples"]
    _check_replies(workload, session["warm"] + samples)
    correct = [s for s in samples if not s.problems]
    problems = [f"{s.op.app}/{s.op.kind} seed {s.op.seed}: {p}"
                for s in session["warm"] + samples for p in s.problems]
    # a warm-up request that went wrong fails the run like any other
    failed = sum(1 for s in session["warm"] + samples if s.problems)
    latency = [s.latency_ms for s in correct]
    if not traced:
        # the reply is the answer asked for, so useful = latency here
        metrics = end_to_end(latency, latency, len(samples),
                             LIMIT_MS[workload], session["wall_s"],
                             session["cpu_s"], rss_mb, setup_s)
        return Outcome(len(samples), failed, metrics, problems,
                       session["wall_s"])

    metrics = _fleet_layers(workload, session, correct, recorder)
    metrics["trace.overhead_share"] = _overhead_share(
        [s.latency_ms for s in samples],
        [_alternate(per_round)(i) for i, step in enumerate(steps)
         for _ in step])
    found = _fleet_probes(workload, seed, [op for step in steps
                                           for op in step],
                          min(rounds, PROBE_ROUNDS), recorder, metrics)
    if correct:
        metrics["fleet.frame_roundtrip_us_p50"] = \
            probes.frame_roundtrip_us(correct[0].reply)
    return Outcome(len(samples), failed + len(found), metrics,
                   problems + found, session["wall_s"])


def _fleet_probes(workload: str, seed: int, ops: list[Op],
                  probe_rounds: int, recorder: SpanRecorder,
                  metrics: dict[str, float]) -> list[str]:
    """Enter the path one layer further in each time; fills ``metrics``
    and returns what went wrong.  The router and apps probes take keys
    this process has never seen: ``spec_key`` caches per process."""
    def fresh(first_index: int) -> list[Op]:
        return [op for step in plan("fleet_target", seed, probe_rounds,
                                    first_index=first_index)
                for op in step]

    values, problems = probes.router_probe(
        fresh(PROBE_INDEX), slo_of(workload), recorder,
        hits_per_key=REPEATS if workload == "fleet_shared" else 0)
    metrics.update(values)
    metrics.update(probes.apps_probe(fresh(PROBE_INDEX + PROBE_ROUNDS),
                                     recorder))
    if workload == "fleet_target":
        images, quality = probes.inputs_and_metrics(ops)
        server_ms, found = probes.server_probe(ops, images, quality,
                                               recorder)
        problems += found
        values, found = probes.harvest_probe(ops, images, quality,
                                             "launch_threaded", recorder)
        problems += found
        metrics.update(values)
        metrics["server.added_ms_mean"] = \
            server_ms - values["executor.useful_ms_mean"]
    return problems


async def _session(fleet: Fleet, workload: str, warm: list[list[Op]],
                   steps: list[list[Op]] | None, recorder: SpanRecorder,
                   traced_round: Callable[[int], bool] | None,
                   ) -> dict[str, Any]:
    """One connection: warm-up round (the end of set-up), then — on the
    last set-up — the timed phase."""
    client = await AioFleetClient.connect("127.0.0.1", fleet.port)
    try:
        slo = slo_of(workload)
        out: dict[str, Any] = {
            "warm": await drive(client, warm, slo, SpanRecorder.off())}
        out["setup_end"] = time.perf_counter()
        if steps is None:
            return out
        tracing = recorder.enabled
        if tracing:
            out["stats_before"] = await client.stats()
            out["spin_before"] = spin_ms()
        cpu0 = sum(cpu_seconds(pid) for pid in fleet.pids)
        start = time.perf_counter()
        out["samples"] = await drive(client, steps, slo, recorder,
                                     traced_round)
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = sum(cpu_seconds(pid) for pid in fleet.pids) - cpu0
        recorder.enabled = tracing
        if tracing:
            out["spin_after"] = spin_ms()
            out["stats_after"] = await client.stats()
        return out
    finally:
        await client.close()


def _check_replies(workload: str, samples: list[Sample]) -> None:
    """Answer checks, after the fleet is down: every problem found is
    appended to its sample."""
    digests: dict[tuple[str, int], str] = {}
    for sample in samples:
        reply = sample.reply
        if reply is None:
            if not sample.problems:
                sample.problems.append("no reply")
            continue
        if reply.get("state") != "completed":
            sample.problems.append(f"state {reply.get('state')!r}: "
                                   f"{reply.get('errors')}")
            continue
        if reply.get("errors"):
            sample.problems.append(f"errors {reply['errors']}")
        if workload == "fleet_target":
            snr = reply.get("snr_db")
            if not reply.get("slo_met"):
                sample.problems.append("slo_met is false")
            if not (reply.get("precise_snr")
                    or (snr is not None and snr >= TARGET_DB)):
                sample.problems.append(f"snr_db {snr} below the target")
        elif not reply.get("final"):
            sample.problems.append("not the sealed final")
        if reply.get("final"):
            spec = (sample.op.app, sample.op.seed)
            if spec not in digests:
                digests[spec] = precise_digest(*spec)
            if reply.get("value_digest") != digests[spec]:
                sample.problems.append("final differs from the precise "
                                       "output")


def _fleet_layers(workload: str, session: dict[str, Any],
                  correct: list[Sample],
                  recorder: SpanRecorder) -> dict[str, float]:
    """Layer numbers read off the replies, the client's spans and the
    ``stats`` frames either side of the timed phase."""
    replies = [(s, s.reply) for s in correct]
    ran = [(s, r) for s, r in replies if not r.get("fleet_memo")]
    front_ms = [s.latency_ms - r["fleet_latency_s"] * 1e3
                for s, r in replies]
    metrics = {
        "client.ack_ms_mean": mean(recorder.durations_ms("client.submit")),
        "client.done_after_ack_ms_mean": mean(recorder.durations_ms(
            "client.done")),
        "aiofront.added_ms_mean": mean(front_ms),
        "aiofront.added_ms_p90": percentile(front_ms, 90),
        "router.added_ms_mean": mean([
            (r["fleet_latency_s"] - r["latency_s"]) * 1e3 for _, r in ran]),
        "server.queue_ms_mean": mean([r["queue_s"] * 1e3 for _, r in ran]),
        "machine.spin_ms_before": session["spin_before"],
        "machine.spin_ms_after": session["spin_after"],
    }
    if workload == "fleet_target":
        scored = [r for _, r in replies if r.get("snr_db") is not None]
        metrics["server.overshoot_db_mean"] = mean(
            [r["snr_db"] - TARGET_DB for r in scored])
        metrics["server.answer_version_mean"] = mean(
            [float(r["version"]) for _, r in replies])
    metrics.update(_latency_layers(
        [(s.op.app, s.latency_ms) for s in correct]))

    before, after = session["stats_before"], session["stats_after"]

    def delta(*path: str) -> float:
        a, b = after, before
        for name in path:
            a, b = a[name], b[name]
        return float(a - b)

    submits = max(delta("frontend", "submits"), 1.0)
    submitted = max(delta("stats", "totals", "submitted"), 1.0)
    for name in ("submits", "dones", "rejected", "frame_errors"):
        metrics[f"aiofront.{name}"] = delta("frontend", name)
    for name in ("dispatched", "redispatched", "shed_retries", "fallbacks"):
        metrics[f"router.{name}"] = delta("stats", "router", name)
    metrics["router.memo_hit_share"] = \
        delta("stats", "router", "memo_hits") / submits
    metrics["server.coalesced_share"] = \
        delta("stats", "totals", "coalesced") / submitted
    metrics["server.memo_hit_share"] = \
        delta("stats", "totals", "memo_hits") / submitted
    for name in ("detaches", "preemptions", "shed"):
        metrics[f"server.{name}"] = delta("stats", "totals", name)
    return metrics


# -- exec_threaded / exec_process ---------------------------------------

def _run_exec(workload: str, seed: int, rounds: int, traced: bool,
              hygiene: Hygiene, recorder: SpanRecorder,
              repeats: int) -> Outcome:
    launch = launcher(workload)
    ops = [op for step in plan(workload, seed, rounds) for op in step]
    warm = [op for step in plan(workload, seed, 2) for op in step]
    specs = list(dict.fromkeys(warm + ops))   # the pool inputs in use
    setup_s: list[float] = []
    for _ in range(repeats):
        spin, start = spin_ms(), time.perf_counter()
        pool = Pool(specs)
        pool_s = time.perf_counter() - start
        pool_s *= to_nominal(spin, spin_ms())
        _, warm_s, _ = run_ops(warm, pool, launch, SpanRecorder.off(),
                               check=False)
        setup_s.append(pool_s + warm_s)
    pool.references()
    hygiene.note_processes()

    spin_before = spin_ms() if traced else 0.0
    samples, wall_s, cpu_s = run_ops(
        ops, pool, launch, recorder,
        _alternate(len(APPS)) if traced else None)
    recorder.enabled = traced
    spin_after = spin_ms() if traced else 0.0

    correct = [s for s in samples if not s.problems]
    failed = len(samples) - len(correct)
    problems = [f"{s.op.app} seed {s.op.seed}: {p}"
                for s in samples for p in s.problems]
    if not traced:
        metrics = end_to_end(
            [s.latency_ms for s in correct],
            [s.useful_ms for s in correct], len(samples),
            LIMIT_MS[workload], wall_s, cpu_s,
            rss_peak_mb(os.getpid()) + reaped_rss_peak_mb(), setup_s)
        return Outcome(len(samples), failed, metrics, problems, wall_s)

    metrics = _exec_layers(layer_of(launch), correct)
    metrics.update({"machine.spin_ms_before": spin_before,
                    "machine.spin_ms_after": spin_after})
    metrics["trace.overhead_share"] = _overhead_share(
        [s.latency_ms for s in samples],
        [_alternate(len(APPS))(i) for i in range(len(samples))])
    once = specs[:len(APPS)]     # one input of every app
    metrics.update({
        name: value for name, value in probes.apps_probe(
            [Op(op.app, op.seed + PROBE_INDEX, "new") for op in once],
            recorder).items() if name.startswith("apps.")})
    metrics.update(probes.ckpt_probe(once, pool.images, pool.digest,
                                     launch, hygiene.tmp_dir, recorder))
    if workload == "exec_threaded":
        metrics.update(probes.simexec_probe(once, pool.images, recorder))
    else:
        values, found = probes.harvest_probe(
            once, pool.images, pool.metric, launch, recorder)
        problems += found
        failed += len(found)
        metrics["procexec.snapshot_us_p50"] = \
            values["procexec.snapshot_us_p50"]
        metrics["procexec.stop_ms_mean"] = values["procexec.stop_ms_mean"]
        metrics["shmplane.segments_leaked"] = \
            float(hygiene.leaked_segments())
    failed += int(metrics["ckpt.mismatches"])
    return Outcome(len(samples), failed, metrics, problems, wall_s)


def _exec_layers(layer: str, correct: list[RunSample]) -> dict[str, float]:
    """Layer numbers read off the returned results of the runs."""
    metrics = {
        f"{layer}.launch_ms_mean": mean([s.launch_ms for s in correct]),
        f"{layer}.first_version_ms_mean": mean(
            [s.first_version_ms for s in correct]),
        f"{layer}.useful_ms_mean": mean([s.useful_ms for s in correct]),
        f"{layer}.versions_per_run": mean(
            [float(s.versions) for s in correct]),
        f"{layer}.commands_per_run": mean(
            [float(s.commands) for s in correct]),
        f"{layer}.waits_per_run": mean([float(s.waits) for s in correct]),
        f"{layer}.wait_ms_per_run": mean([s.wait_ms for s in correct]),
    }
    if layer == "procexec":
        metrics["procexec.round_trips_per_version"] = \
            sum(s.round_trips for s in correct) \
            / max(sum(s.versions for s in correct), 1)
    metrics.update(_latency_layers(
        [(s.op.app, s.latency_ms) for s in correct]))
    return metrics
