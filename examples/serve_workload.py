#!/usr/bin/env python3
"""Serve an open-loop anytime workload with deadline/quality SLOs.

Many clients, four executor slots: this example drives a Poisson
arrival stream of 2D-convolution requests against an
:class:`~repro.serve.AnytimeServer` and shows the serving layer's
moving parts —

* **admission control**: the queue is bounded; requests beyond it are
  shed (their sessions land in the distinct ``SHED`` terminal state);
* **deadline SLOs**: a request stopped at its latency bound returns
  the newest output version its buffer holds — degraded, never
  invalid (the model's interruptibility guarantee doing real work);
* **quality SLOs + marginal-gain scheduling**: a calibrated
  runtime-accuracy profile lets the scheduler keep slots on requests
  that are still climbing steeply and finish the ones that reached
  their target dB early;
* **streaming refinement**: any session can be watched version by
  version while it runs.

Run:  python examples/serve_workload.py
Also: python -m repro serve --app 2dconv --policy gain
"""

from repro.apps import calibrate_app
from repro.serve import SLO, AnytimeServer, MarginalGainPolicy
from repro.serve.workload import run_open_loop, summarize

SLOTS = 4
QUEUE_LIMIT = 6
REQUESTS = 20
TARGET_DB = 25.0


def main() -> None:
    # One simulated run calibrates the accuracy profile; one solo
    # threaded run measures what "normalized runtime 1.0" costs in
    # wall seconds on this machine.
    print("calibrating 2dconv ...")
    calib = calibrate_app(app="2dconv", size=32)
    baseline = calib["baseline_wall_s"]
    capacity = SLOTS / baseline
    rate = 2.0 * capacity                # deliberately overloaded
    slo = SLO(deadline_s=6.0 * baseline, target_db=TARGET_DB)
    print(f"solo run {baseline * 1e3:.1f} ms -> capacity "
          f"~{capacity:.0f} req/s; offering {rate:.0f} req/s "
          f"(open loop, 2x overload)")

    policy = MarginalGainPolicy(calib["profile"], baseline)
    with AnytimeServer(slots=SLOTS, queue_limit=QUEUE_LIMIT,
                       policy=policy, quantum_s=0.02) as server:
        sessions = run_open_loop(
            lambda i: server.submit(calib["builder"], slo,
                                    metric=calib["metric"],
                                    name=f"req-{i}"),
            REQUESTS, rate_hz=rate, seed=1)

        # Watch one request refine while the server churns.
        watched = next(s for s in sessions if not s.done)
        print(f"\nstreaming {watched.name}:")
        for snap in watched.stream(timeout_s=10.0):
            print(f"  version {snap.version:>2}  "
                  f"{calib['metric'](snap.value):6.1f} dB")

        server.drain(timeout_s=60.0)

    print(f"\n{'request':<10}{'state':<11}{'latency':>9}"
          f"{'preempt':>8}{'SNR (dB)':>10}")
    for session in sessions:
        outcome = session.result(timeout_s=0.0)
        snr = ("-" if outcome.snr_db is None
               else f"{outcome.snr_db:.1f}")
        print(f"{session.name:<10}{outcome.state.value:<11}"
              f"{outcome.latency_s:>9.3f}{outcome.preemptions:>8}"
              f"{snr:>10}")

    summary = summarize(sessions)
    print(f"\nserved {summary['completed']}/{summary['requests']} "
          f"(shed {summary['shed']}) at "
          f"{summary['throughput_rps']:.1f} req/s goodput; "
          f"p50 {summary['latency_p50_s'] * 1e3:.0f} ms, "
          f"p99 {summary['latency_p99_s'] * 1e3:.0f} ms")
    if summary["interrupted"]:
        print(f"{summary['interrupted']} request(s) interrupted at "
              f"mean {summary['snr_at_interrupt_mean_db']:.1f} dB — "
              f"valid approximations, on time")


if __name__ == "__main__":
    main()
