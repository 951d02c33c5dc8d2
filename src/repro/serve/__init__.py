"""The anytime serving layer (``repro.serve``).

Multiplexes many concurrent automaton runs over a bounded pool of
executor slots, with deadline/quality SLOs, bounded-queue admission
control (backpressure + load shedding), and quality-aware preemptive
scheduling built on the model's interruptibility guarantee: pausing or
stopping a request at any moment leaves a valid approximation in its
output buffer, so slots can chase marginal accuracy instead of
babysitting stragglers.

Entry points::

    from repro.serve import AnytimeServer, SLO

    with AnytimeServer(slots=4, queue_limit=16) as server:
        session = server.submit(lambda: build_app(x),
                                SLO(deadline_s=0.5, target_db=30.0),
                                metric=quality)
        for snap in session.stream():
            ...                       # streaming refinement
        outcome = session.result()    # always a valid answer

Scale-out: :class:`~repro.serve.router.FleetRouter` shards requests by
their spec's identity across N worker processes (each one an
``AnytimeServer``), where same-key concurrent requests coalesce onto a
single shared run::

    from repro.serve import FleetRouter, summarize

    with FleetRouter(workers=4) as fleet:
        requests = [fleet.submit("2dconv", size=32, seed=i % 4,
                                 slo={"deadline_s": 0.5})
                    for i in range(64)]
        fleet.drain(timeout_s=60.0)
        print(summarize(requests))

:func:`~repro.serve.workload.summarize` reduces fleet requests and
server sessions alike, and :func:`~repro.serve.workload.run_open_loop`
drives either through a ``submit`` closure.

Every worker is a TCP listener; by default the router forks its own on
localhost.  Cross-host: launch workers with ``repro serve-worker
--listen host:port`` and pass
``FleetRouter(endpoints=["hostA:9701", "hostB:9701"])`` (see
:mod:`repro.serve.transport`).  External clients connect through the
asyncio front end (:mod:`repro.serve.aiofront`, imported lazily —
``from repro.serve.aiofront import AioFrontend, AioFleetClient``).
Sealed finals are shared fleet-wide through the router's bounded TTL
memo, so duplicate keys are answered without recompute wherever they
land.
"""

from .digest import input_digest, request_key
from .fleet import (FrameError, MAX_FRAME, spec_key, value_digest,
                    worker_main)
from .router import FleetRequest, FleetRouter
from .transport import (parse_endpoint, serve_worker_listener,
                        spawn_local_tcp_worker)
from .scheduler import FairSharePolicy, MarginalGainPolicy, ServePolicy
from .server import AnytimeServer, shutdown_all_servers
from .session import ServeResult, Session, SessionState
from .slo import SLO
from .workload import percentile, run_open_loop, summarize

__all__ = [
    "AnytimeServer", "shutdown_all_servers",
    "FairSharePolicy", "MarginalGainPolicy", "ServePolicy",
    "FleetRequest", "FleetRouter",
    "ServeResult", "Session", "SessionState",
    "SLO",
    "input_digest", "request_key", "spec_key", "value_digest",
    "percentile", "run_open_loop", "summarize",
    "FrameError", "MAX_FRAME", "worker_main",
    "parse_endpoint", "serve_worker_listener", "spawn_local_tcp_worker",
]
