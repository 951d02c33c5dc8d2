"""Layer probes of the traced run.

The serving path is peeled one public entry point at a time: what
``AioFleetClient.submit`` costs over ``FleetRouter.submit().result()``,
that over an in-process ``AnytimeServer.submit().result()``, that over
``launch_*().result()``, that over the ``AppSpec`` calls.  Every probe
calls public functions only and records a span around each call.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable

from repro.apps.registry import get_app
from repro.core.automaton import AnytimeAutomaton
from repro.serve.fleet import (WORKER_DEFAULTS, recv_msg, send_msg,
                               spec_key, value_digest)
from repro.serve.router import FleetRouter
from repro.serve.server import AnytimeServer
from repro.serve.slo import SLO
from repro.serve.transport import spawn_local_tcp_worker

from exec_driver import first_and_useful_ms, layer_of
from fleet_driver import reap
from refs import make_input, precise_output, quality_metric
from spans import SpanRecorder
from stats import mean, percentile
from workloads import SIZE, TARGET_DB, Op

__all__ = ["frame_roundtrip_us", "apps_probe", "harvest_probe",
           "server_probe", "router_probe", "ckpt_probe", "simexec_probe",
           "inputs_and_metrics"]

TIMEOUT_S = 30.0


def frame_roundtrip_us(frame: dict[str, Any], count: int = 300) -> float:
    """Median echo time of one ``done``-sized frame through
    ``send_msg``/``recv_msg`` over loopback TCP."""
    listener = socket.create_server(("127.0.0.1", 0))

    def echo() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                msg = recv_msg(conn)
                if msg is None:
                    return
                send_msg(conn, msg)

    server = threading.Thread(target=echo, name="bench-echo", daemon=True)
    server.start()
    times = []
    try:
        with socket.create_connection(listener.getsockname()) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(count):
                start = time.perf_counter()
                send_msg(sock, frame)
                recv_msg(sock)
                times.append((time.perf_counter() - start) * 1e6)
    finally:
        server.join(timeout=5.0)
        listener.close()
    return percentile(times, 50)


def apps_probe(ops: list[Op], recorder: SpanRecorder) -> dict[str, float]:
    """Direct ``AppSpec`` calls and the two fleet helpers built on them:
    what a worker does on its reader thread before admitting a new spec
    (``make_input`` + ``reference`` + ``spec_key``), and the digest of
    a final."""
    for rid, op in enumerate(ops):
        record = get_app(op.app)
        with recorder.span("fleet.calibrate", "apps", rid) as root:
            with recorder.span("apps.make_input", "apps", rid, root):
                image = record.make_input(SIZE, op.seed)
            with recorder.span("apps.reference", "apps", rid, root):
                if record.reference_kind != "input":
                    record.reference(image)
            with recorder.span("fleet.spec_key", "apps", rid, root):
                spec_key(op.app, SIZE, op.seed)
        with recorder.span("apps.build", "apps", rid):
            record.build(image)
        final = precise_output(op.app, image)
        with recorder.span("fleet.value_digest", "apps", rid):
            value_digest(final)
    return {
        "fleet.calibrate_ms_mean": mean(recorder.durations_ms(
            "fleet.calibrate")),
        "fleet.value_digest_ms_mean": mean(recorder.durations_ms(
            "fleet.value_digest")),
        "apps.make_input_ms_mean": mean(recorder.durations_ms(
            "apps.make_input")),
        "apps.reference_ms_mean": mean(recorder.durations_ms(
            "apps.reference")),
        "apps.build_ms_mean": mean(recorder.durations_ms("apps.build")),
    }


def harvest_probe(ops: list[Op], images: dict[Op, Any],
                  metrics: dict[Op, Callable[[Any], float]], launch: str,
                  recorder: SpanRecorder,
                  ) -> tuple[dict[str, float], list[str]]:
    """Use a launched run the way the server's harvest does: poll
    ``snapshot()`` every tick, score each new version, and at the first
    useful one ``request_stop()`` and collect.  The sealed value must
    still be a valid approximation.

    ``launch`` / ``first_version`` / ``useful`` are read off the
    returned timeline, so they are the executor's own times without the
    polling delay (which is the server's, not the executor's).
    """
    layer = layer_of(launch)
    tick_s = float(WORKER_DEFAULTS["tick_s"])
    snapshot_us: list[float] = []
    stop_ms: list[float] = []
    launch_ms: list[float] = []
    first_ms: list[float] = []
    useful_ms: list[float] = []
    problems: list[str] = []
    for rid, op in enumerate(ops):
        metric = metrics[op]
        automaton = get_app(op.app).build(images[op])
        terminal = automaton.terminal_buffer_name
        start = time.perf_counter()
        with recorder.span(f"{layer}.run", layer, rid) as root:
            with recorder.span(f"{layer}.launch", layer, rid, root):
                handle = getattr(automaton, launch)()
            launch_ms.append((time.perf_counter() - start) * 1e3)
            seen = 0
            while time.perf_counter() - start < TIMEOUT_S:
                t0 = time.perf_counter()
                snap = handle.snapshot()
                snapshot_us.append((time.perf_counter() - t0) * 1e6)
                if snap.version > seen and snap.value is not None:
                    seen = snap.version
                    if metric(snap.value) >= TARGET_DB:
                        break
                if handle.finished:
                    break
                time.sleep(tick_s)
            t0 = time.perf_counter()
            with recorder.span(f"{layer}.stop", layer, rid, root):
                handle.request_stop()
                result = handle.result(timeout_s=TIMEOUT_S)
            end = time.perf_counter()
            stop_ms.append((end - t0) * 1e3)
        first, useful = first_and_useful_ms(
            result, terminal, (end - start) * 1e3, metric)
        sealed = result.final_values.get(terminal)
        if useful is None:
            problems.append(f"{op.app}: stopped before a useful version")
        elif sealed is None or not metric(sealed) >= TARGET_DB:
            problems.append(f"{op.app}: sealed value is not a valid "
                            f"approximation")
        else:
            first_ms.append(first)
            useful_ms.append(useful)
    return {
        f"{layer}.snapshot_us_p50": percentile(snapshot_us, 50),
        f"{layer}.stop_ms_mean": mean(stop_ms),
        f"{layer}.launch_ms_mean": mean(launch_ms),
        f"{layer}.first_version_ms_mean": mean(first_ms),
        f"{layer}.useful_ms_mean": mean(useful_ms),
    }, problems


def server_probe(ops: list[Op], images: dict[Op, Any],
                 metrics: dict[Op, Callable[[Any], float]],
                 recorder: SpanRecorder) -> tuple[float, list[str]]:
    """The same specs through an in-process ``AnytimeServer`` set up as
    ``worker_main`` sets its own up; returns the mean latency in ms."""
    cfg = WORKER_DEFAULTS
    problems: list[str] = []
    server = AnytimeServer(
        slots=int(cfg["slots"]), queue_limit=int(cfg["queue_limit"]),
        executor=cfg["executor"], quantum_s=float(cfg["quantum_s"]),
        tick_s=float(cfg["tick_s"]), coalesce=bool(cfg["coalesce"]),
        memo_ttl_s=float(cfg["memo_ttl_s"]))
    with server:
        for rid, op in enumerate(ops):
            record, image = get_app(op.app), images[op]
            key = spec_key(op.app, SIZE, op.seed)
            with recorder.span("server.request", "server", rid) as root:
                with recorder.span("server.submit", "server", rid, root):
                    session = server.submit(
                        lambda record=record, image=image:
                        record.build(image),
                        SLO(target_db=TARGET_DB), metric=metrics[op],
                        name=f"probe-{rid}", key=key)
                with recorder.span("server.result", "server", rid, root):
                    result = session.result(timeout_s=TIMEOUT_S)
            if result.state.value != "completed" or not result.slo_met:
                problems.append(f"{op.app}: server answered "
                                f"{result.state.value}")
    return mean(recorder.durations_ms("server.request")), problems


def router_probe(ops: list[Op], slo: dict[str, Any] | None,
                 recorder: SpanRecorder,
                 hits_per_key: int) -> tuple[dict[str, float], list[str]]:
    """``FleetRouter.submit().result()`` from this process against two
    fresh TCP workers: the cost of the ``submit`` call itself on new
    keys and, when ``hits_per_key`` > 0, on keys the router's memo
    already holds."""
    problems: list[str] = []
    workers = [spawn_local_tcp_worker() for _ in range(2)]
    try:
        with FleetRouter(endpoints=[f"{host}:{port}"
                                    for _, (host, port) in workers]
                         ) as router:
            rid = 0
            for op in ops:
                for attempt in range(1 + hits_per_key):
                    name = "router.submit_hit" if attempt else \
                        "router.submit"
                    with recorder.span("router.request", "router",
                                       rid) as root:
                        with recorder.span(name, "router", rid, root):
                            request = router.submit(op.app, size=SIZE,
                                                    seed=op.seed, slo=slo)
                        with recorder.span("router.result", "router",
                                           rid, root):
                            reply = request.result(timeout_s=TIMEOUT_S)
                    rid += 1
                    if reply.get("state") != "completed":
                        problems.append(f"{op.app}: router answered "
                                        f"{reply.get('state')}")
                    elif attempt and not reply.get("fleet_memo"):
                        problems.append(f"{op.app}: repeat was not a "
                                        f"router memo hit")
    finally:
        for process, _ in workers:   # the router's shutdown told them
            reap(process)
    return {
        "router.submit_ms_mean": mean(recorder.durations_ms(
            "router.submit")),
        "router.submit_hit_ms_mean": mean(recorder.durations_ms(
            "router.submit_hit")),
    }, problems


def ckpt_probe(ops: list[Op], images: dict[Op, Any],
               digests: dict[Op, str], launch: str, tmp_dir: str,
               recorder: SpanRecorder) -> dict[str, float]:
    """``RunHandle.checkpoint`` at the first version >= 4, stop,
    ``AnytimeAutomaton.restore``, run on: the final must be bit-exact."""
    sizes: list[float] = []
    mismatches = 0
    for rid, op in enumerate(ops):
        record, image = get_app(op.app), images[op]
        path = os.path.join(tmp_dir, f"probe-{rid}.rck")
        handle = getattr(record.build(image), launch)()
        start = time.perf_counter()
        while handle.snapshot().version < 4 and not handle.finished \
                and time.perf_counter() - start < TIMEOUT_S:
            time.sleep(0.001)
        try:
            with recorder.span("ckpt.save", "ckpt", rid):
                handle.checkpoint(path)
            handle.request_stop()
            handle.result(timeout_s=TIMEOUT_S)
            sizes.append(float(os.path.getsize(path)))
            with recorder.span("ckpt.restore", "ckpt", rid):
                resumed = AnytimeAutomaton.restore(
                    path, builder=lambda: record.build(image))
            result = getattr(resumed, launch)().result(timeout_s=TIMEOUT_S)
            final = result.final_values.get(resumed.terminal_buffer_name)
            if not result.completed \
                    or value_digest(final) != digests[op]:
                mismatches += 1
        except Exception:
            handle.request_stop()
            handle.result(timeout_s=TIMEOUT_S)
            mismatches += 1
        finally:
            if os.path.exists(path):
                os.unlink(path)
    return {
        "ckpt.save_ms_mean": mean(recorder.durations_ms("ckpt.save")),
        "ckpt.restore_ms_mean": mean(recorder.durations_ms(
            "ckpt.restore")),
        "ckpt.bytes_mean": mean(sizes),
        "ckpt.mismatches": float(mismatches),
    }


def simexec_probe(ops: list[Op], images: dict[Op, Any],
                  recorder: SpanRecorder) -> dict[str, float]:
    for rid, op in enumerate(ops):
        automaton = get_app(op.app).build(images[op])
        with recorder.span("simexec.run", "simexec", rid):
            automaton.run_simulated(total_cores=32)
    return {"simexec.run_ms_mean": mean(recorder.durations_ms(
        "simexec.run"))}


def inputs_and_metrics(ops: list[Op]) -> tuple[
        dict[Op, Any], dict[Op, Callable[[Any], float]]]:
    """Inputs and quality metrics of distinct specs (reference work:
    outside every timed span)."""
    images = {op: make_input(op.app, op.seed) for op in set(ops)}
    return images, {op: quality_metric(op.app, image)
                    for op, image in images.items()}
