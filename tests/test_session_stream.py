"""``Session.stream()``: the in-process way to watch an answer refine.

Every yielded snapshot is a sealed version of the run (Property 3), so
versions only go up, the stream ends on the answer ``result()`` holds,
and ``timeout_s`` bounds the wait on a run that has not finished.
"""

import time

import pytest

from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.serve import AnytimeServer, SessionState

pytestmark = [pytest.mark.serve, pytest.mark.timeout(60)]


def staircase(levels, sleep_s):
    """One iterative stage whose level i sleeps, then writes i + 1."""
    def level(i):
        def fn(x):
            time.sleep(sleep_s)
            return i + 1
        return AccuracyLevel(fn, 1.0)

    out = VersionedBuffer("out")
    stage = IterativeStage("work", out, (VersionedBuffer("in"),),
                           [level(i) for i in range(levels)])
    return AnytimeAutomaton([stage], external={"in": 0})


def test_stream_yields_rising_versions_ending_on_the_result():
    with AnytimeServer(slots=1) as server:
        session = server.submit(lambda: staircase(12, 0.004))
        seen = list(session.stream(timeout_s=30.0))
        result = session.result(timeout_s=30.0)
    versions = [snap.version for snap in seen]
    assert versions, "the stream yielded nothing"
    assert all(a < b for a, b in zip(versions, versions[1:])), versions
    assert result.state is SessionState.COMPLETED
    # the same version of the answer; the run may seal its buffer after
    # the stream saw that version, which sets ``sealed`` and nothing else
    last, answer = seen[-1], result.snapshot
    assert (last.version, last.value, last.final) \
        == (answer.version, answer.value, answer.final)
    assert last.final and last.value == 12


def test_timeout_bounds_a_stream_over_an_unfinished_run():
    with AnytimeServer(slots=1) as server:
        session = server.submit(lambda: staircase(400, 0.01))
        start = time.monotonic()
        seen = list(session.stream(timeout_s=0.2))
        waited = time.monotonic() - start
        assert not session.done
        session.cancel()
        assert session.result(timeout_s=10.0).state \
            is SessionState.CANCELLED
    assert 0.2 <= waited < 2.0, waited
    assert all(snap.value == snap.version for snap in seen)
