"""A spec's ``size`` is bounded, and both ends of the wire check it.

Making the input of an outsized spec would hold a worker's reader, and
every frame queued behind it on that link, for seconds.  ``spec_key``
rejects it, so the router dispatches nothing and a worker makes no
input.
"""

import socket
import threading
import time

import pytest

from repro.serve.fleet import (MAX_SPEC_SIZE, recv_msg, send_msg,
                               spec_key, worker_main)
from repro.serve.router import FleetRouter

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]


def test_spec_key_bounds_the_size():
    assert MAX_SPEC_SIZE == 2048
    assert spec_key("2dconv", MAX_SPEC_SIZE, 0).startswith("2dconv:")
    for size in (MAX_SPEC_SIZE + 1, 10**6):
        with pytest.raises(ValueError, match="size must be <= 2048"):
            spec_key("2dconv", size, 0)


def test_router_rejects_an_outsized_spec_before_dispatch():
    with FleetRouter(workers=1) as fleet:
        with pytest.raises(ValueError, match="size"):
            fleet.submit("2dconv", size=MAX_SPEC_SIZE + 1, seed=0)
        dispatched = fleet.counters["dispatched"]
        fine = fleet.submit("dwt53", size=16, seed=0,
                            slo={"deadline_s": 60.0})
        assert fleet.drain(timeout_s=60.0)
    assert dispatched == 0
    assert fine.result(timeout_s=0.0)["state"] == "completed"


def test_worker_fails_an_outsized_spec_without_making_its_input():
    ours, theirs = socket.socketpair()
    ours.settimeout(20.0)
    thread = threading.Thread(target=worker_main, args=(theirs, None),
                              daemon=True)
    thread.start()
    try:
        start = time.monotonic()
        send_msg(ours, {"op": "submit", "rid": 1, "app": "2dconv",
                        "size": MAX_SPEC_SIZE + 1, "seed": 0})
        done = recv_msg(ours)
        waited = time.monotonic() - start
        send_msg(ours, {"op": "stats", "rid": 2})
        stats = recv_msg(ours)
    finally:
        send_msg(ours, {"op": "shutdown"})
        thread.join(timeout=20.0)
        ours.close()
    assert done["op"] == "done" and done["state"] == "failed", done
    assert "size" in " ".join(done["errors"])
    assert waited < 0.5
    assert stats["stats"]["submitted"] == 0
