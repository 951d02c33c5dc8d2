"""Every subscriber of a shared run reports the run's counts.

Coalesced requests subscribe to one run; whatever happened to that run
(preempted, suspended to disk and restored) happened to each of them,
so each one's ``ServeResult`` carries the run's ``preemptions`` and
``restores``, not only the request that launched it.
"""

import time

import pytest

from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.serve import SLO, AnytimeServer, SessionState

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

LEVELS = 12


def staircase(sleep_s=0.02, name="work"):
    """Level i sleeps then writes i+1; the final is version LEVELS."""
    def make_level(i):
        def fn(x):
            time.sleep(sleep_s)
            return i + 1
        return AccuracyLevel(fn, 1.0)

    stage = IterativeStage(name, VersionedBuffer(f"{name}-out"),
                           (VersionedBuffer(f"{name}-in"),),
                           [make_level(i) for i in range(LEVELS)])
    return AnytimeAutomaton([stage], external={f"{name}-in": 0})


def wait_until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def test_subscriber_reports_its_runs_preemptions():
    """One slot, a shared run and a rival: fair share pauses the shared
    run N >= 1 times, and both of its subscribers report N."""
    with AnytimeServer(slots=1, quantum_s=0.01, tick_s=0.002) as server:
        a = server.submit(staircase, SLO(deadline_s=60.0), name="a",
                          key="k")
        b = server.submit(staircase, SLO(deadline_s=60.0), name="b",
                          key="k")
        rival = server.submit(lambda: staircase(name="rival"),
                              SLO(deadline_s=60.0), name="rival")
        ra, rb, rr = (s.result(timeout_s=60.0) for s in (a, b, rival))
        stats = server.stats()
    assert rb.coalesced and rb.snapshot.final
    assert ra.preemptions >= 1
    assert rb.preemptions == ra.preemptions
    assert ra.preemptions + rr.preemptions == stats["preemptions"]


def test_subscriber_reports_its_runs_restores(tmp_path, suspend_only):
    """A run suspended to disk and restored once: a subscriber that
    joined while it was on disk reports the suspend and the restore."""
    with AnytimeServer(slots=1, quantum_s=0.01, tick_s=0.002,
                       starvation_s=60.0,
                       policy=suspend_only("a", "blocker"),
                       resume_dir=str(tmp_path)) as server:
        a = server.submit(staircase, SLO(deadline_s=60.0), name="a",
                          key="k")
        wait_until(lambda: a.snapshot().version >= 1)
        blocker = server.submit(lambda: staircase(sleep_s=0.05,
                                                  name="slow"),
                                SLO(deadline_s=60.0), name="blocker")
        wait_until(lambda: a.state is SessionState.RESUMABLE)
        b = server.submit(staircase, SLO(deadline_s=60.0), name="b",
                          key="k")
        ra, rb = a.result(timeout_s=60.0), b.result(timeout_s=60.0)
        blocker.result(timeout_s=60.0)
        stats = server.stats()
    assert stats["suspends"] == stats["restores"] == 1
    assert rb.coalesced and rb.snapshot.final
    assert ra.restores == rb.restores == 1
    assert ra.preemptions == rb.preemptions == 1
