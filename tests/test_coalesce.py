"""Same-key request coalescing (``AnytimeServer`` keyed submissions).

The contract under test: concurrent requests for identical work attach
to one shared automaton run; each subscriber still gets exactly the
answer it would have gotten solo — its own SLO enforced, its sealed
snapshot drawn from the shared run's version ladder (bit-identical to
an uncoalesced run, since the run is the same deterministic
computation) — and one subscriber's cancellation never destroys
another's run.
"""

import os
import time

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.check.invariants import Checker
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.serve import (SLO, AnytimeServer, SessionState, input_digest,
                         request_key)
from repro.serve.fleet import _done_message

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

LEVELS = 12
SLEEP_S = 0.004


def staircase(levels=LEVELS, sleep_s=SLEEP_S, name="work", fail_at=None):
    """One iterative stage: level i sleeps then writes value i+1, so a
    snapshot is valid iff value == version (the test-side oracle).
    Level ``fail_at`` raises instead."""
    b_in = VersionedBuffer(f"{name}-in")
    b_out = VersionedBuffer(f"{name}-out")

    def make_level(i):
        def fn(x):
            if i == fail_at:
                raise RuntimeError(f"injected failure at level {i}")
            time.sleep(sleep_s)
            return i + 1
        return AccuracyLevel(fn, 1.0)

    stage = IterativeStage(name, b_out, (b_in,),
                           [make_level(i) for i in range(levels)])
    return AnytimeAutomaton([stage], external={f"{name}-in": 0})


def value_metric(value):
    return float(value)


def assert_valid(snapshot, levels=LEVELS):
    if snapshot.version == 0:
        assert snapshot.value is None
        return
    assert 1 <= snapshot.version <= levels
    assert snapshot.value == snapshot.version


def keyed_server(**kwargs):
    kwargs.setdefault("slots", 1)
    kwargs.setdefault("queue_limit", 16)
    kwargs.setdefault("quantum_s", 5.0)   # no preemption noise
    kwargs.setdefault("tick_s", 0.002)
    return AnytimeServer(**kwargs)


class TestSubscriberSLOs:
    def test_two_subscribers_different_slos_both_valid(self):
        """A target-dB follower detaches early with a valid sealed
        snapshot; the no-target primary runs to the final version."""
        with keyed_server() as server:
            blocker = server.submit(staircase, SLO(deadline_s=30.0),
                                    name="blocker")
            a = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="a", key="k")
            b = server.submit(staircase, SLO(deadline_s=30.0,
                                             target_db=5.0),
                              metric=value_metric, name="b", key="k")
            ra = a.result(timeout_s=60.0)
            rb = b.result(timeout_s=60.0)
            blocker.result(timeout_s=60.0)
        assert ra.state is SessionState.COMPLETED
        assert rb.state is SessionState.COMPLETED
        assert rb.coalesced and not ra.coalesced
        # the primary saw the whole run; the follower left at its target
        assert ra.snapshot.version == LEVELS and ra.snapshot.final
        assert rb.snapshot.version >= 5
        assert rb.slo_met
        assert_valid(ra.snapshot)
        assert_valid(rb.snapshot)

    def test_deadline_follower_gets_pinned_valid_snapshot(self):
        """A follower with a short deadline detaches mid-run with a
        sealed snapshot while the shared run keeps going."""
        with keyed_server() as server:
            a = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="a", key="k")
            b = server.submit(staircase,
                              SLO(deadline_s=LEVELS * SLEEP_S / 3),
                              metric=value_metric, name="b", key="k")
            rb = b.result(timeout_s=60.0)
            ra = a.result(timeout_s=60.0)
        assert ra.state is SessionState.COMPLETED
        assert rb.state is SessionState.COMPLETED
        assert rb.coalesced and rb.interrupted
        assert rb.snapshot.version < LEVELS
        assert_valid(ra.snapshot)
        assert_valid(rb.snapshot)
        assert ra.snapshot.version == LEVELS

    def test_followers_marked_coalesced_in_stats(self):
        with keyed_server() as server:
            blocker = server.submit(staircase, SLO(deadline_s=30.0),
                                    name="blocker")
            sessions = [server.submit(staircase, SLO(deadline_s=30.0),
                                      metric=value_metric,
                                      name=f"s{i}", key="k")
                        for i in range(4)]
            for s in sessions + [blocker]:
                s.result(timeout_s=60.0)
            stats = server.stats()
        assert stats["coalesced"] == 3
        coalesced = [s.result(0.0).coalesced for s in sessions]
        assert coalesced.count(True) == 3


class TestBitIdentity:
    def test_coalesced_final_bit_identical_to_solo_run(self):
        """Whole-run subscribers on a real app get the same bits a solo
        uncoalesced run publishes."""
        spec = get_app("dwt53")
        image = spec.make_input(16, 3)
        solo = spec.build(image)
        solo_result = solo.run_threaded(timeout_s=60.0)
        assert solo_result.completed
        solo_final = solo_result.output_records(
            solo.terminal_buffer_name)[-1]
        assert solo_final.final
        key = request_key("dwt53", input_digest("dwt53", image))

        # one slot, taken by the blocker: ``a`` queues behind it, so
        # ``b`` joins a run that cannot have ended
        with keyed_server() as server:
            blocker = server.submit(staircase, SLO(deadline_s=30.0),
                                    name="blocker")
            deadline = time.monotonic() + 10.0
            while (blocker.state is not SessionState.RUNNING
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            a = server.submit(lambda: spec.build(image),
                              SLO(deadline_s=30.0), name="a", key=key)
            b = server.submit(lambda: spec.build(image),
                              SLO(deadline_s=30.0), name="b", key=key)
            ra = a.result(timeout_s=60.0)
            rb = b.result(timeout_s=60.0)
            blocker.result(timeout_s=60.0)
        assert ra.state is SessionState.COMPLETED
        assert rb.state is SessionState.COMPLETED
        assert rb.coalesced
        for r in (ra, rb):
            assert r.snapshot.final
            assert r.snapshot.version == solo_final.version
            assert np.array_equal(r.snapshot.value, solo_final.value)

    def test_mid_run_detach_matches_solo_version_ladder(self):
        """A follower's pinned snapshot must sit *on* the solo run's
        version ladder — same value at the same version, bit for bit."""
        spec = get_app("dwt53")
        image = spec.make_input(16, 5)
        solo = spec.build(image)
        solo_result = solo.run_threaded(timeout_s=60.0)
        assert solo_result.completed
        ladder = {r.version: r.value
                  for r in solo_result.output_records(
                      solo.terminal_buffer_name)}
        key = request_key("dwt53", input_digest("dwt53", image))
        metric = spec.metric
        reference = image

        with keyed_server() as server:
            blocker = server.submit(staircase, SLO(deadline_s=30.0),
                                    name="blocker")
            a = server.submit(lambda: spec.build(image),
                              SLO(deadline_s=30.0),
                              metric=lambda v: metric(v, reference),
                              name="a", key=key)
            b = server.submit(lambda: spec.build(image),
                              SLO(deadline_s=30.0, target_db=5.0),
                              metric=lambda v: metric(v, reference),
                              name="b", key=key)
            ra = a.result(timeout_s=60.0)
            rb = b.result(timeout_s=60.0)
            blocker.result(timeout_s=60.0)
        assert rb.state is SessionState.COMPLETED and rb.coalesced
        assert rb.snapshot.version in ladder
        assert np.array_equal(rb.snapshot.value,
                              ladder[rb.snapshot.version])
        assert ra.snapshot.final
        assert np.array_equal(ra.snapshot.value, ladder[max(ladder)])


class TestCancelIsolation:
    def test_follower_cancel_leaves_primary_running(self):
        with keyed_server() as server:
            a = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="a", key="k")
            b = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="b", key="k")
            time.sleep(4 * SLEEP_S)
            b.cancel()
            rb = b.result(timeout_s=60.0)
            ra = a.result(timeout_s=60.0)
        assert rb.state is SessionState.CANCELLED
        assert_valid(rb.snapshot)
        assert ra.state is SessionState.COMPLETED
        assert ra.snapshot.version == LEVELS and ra.snapshot.final

    def test_primary_cancel_promotes_follower(self):
        """Cancelling the session that launched the run must not kill
        the run for its surviving subscriber."""
        with keyed_server() as server:
            a = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="a", key="k")
            b = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="b", key="k")
            time.sleep(4 * SLEEP_S)
            a.cancel()
            ra = a.result(timeout_s=60.0)
            rb = b.result(timeout_s=60.0)
            stats = server.stats()
        assert ra.state is SessionState.CANCELLED
        assert_valid(ra.snapshot)
        assert rb.state is SessionState.COMPLETED
        assert rb.snapshot.version == LEVELS and rb.snapshot.final
        assert stats["promotions"] >= 1

    def test_queued_primary_cancel_hands_queue_slot_to_follower(self):
        with keyed_server() as server:
            blocker = server.submit(staircase, SLO(deadline_s=30.0),
                                    name="blocker")
            a = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="a", key="k")
            b = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="b", key="k")
            a.cancel()
            ra = a.result(timeout_s=60.0)
            rb = b.result(timeout_s=60.0)
            blocker.result(timeout_s=60.0)
        assert ra.state is SessionState.CANCELLED
        assert rb.state is SessionState.COMPLETED
        assert rb.snapshot.version == LEVELS


def wait_until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


class TestSharedRunState:
    """A subscriber shares its run's state, snapshot, ``degraded`` flag
    and errors."""

    def test_subscribers_carry_the_runs_errors(self):
        with keyed_server() as server:   # default faults degrade
            blocker = server.submit(staircase, SLO(deadline_s=30.0),
                                    name="blocker")
            a = server.submit(lambda: staircase(fail_at=5),
                              SLO(deadline_s=30.0), name="a", key="k")
            b = server.submit(lambda: staircase(fail_at=5),
                              SLO(deadline_s=30.0), name="b", key="k")
            ra = a.result(timeout_s=60.0)
            rb = b.result(timeout_s=60.0)
            blocker.result(timeout_s=60.0)
        assert ra.degraded and ra.errors
        assert "injected failure at level 5" in " ".join(ra.errors)
        assert rb.coalesced and rb.degraded
        assert rb.snapshot.version == ra.snapshot.version == 5
        assert rb.errors == ra.errors
        # and so does the fleet `done` frame built from it
        assert _done_message(2, rb)["errors"] == list(ra.errors)

    def test_subscriber_of_a_suspended_run_reads_resumable(
            self, tmp_path, monkeypatch, suspend_only):
        # the starvation guard waits 60 s (6000 quanta of 10 ms): only
        # the scripted policy grants slots
        monkeypatch.setattr("repro.serve.server.STARVATION_QUANTA", 6000)
        with keyed_server(quantum_s=0.01,
                          policy=suspend_only("a", "blocker"),
                          resume_dir=str(tmp_path)) as server:
            a = server.submit(lambda: staircase(sleep_s=0.02),
                              SLO(deadline_s=30.0), name="a", key="k")
            wait_until(lambda: a.snapshot().version >= 1)
            blocker = server.submit(lambda: staircase(sleep_s=0.05),
                                    SLO(deadline_s=30.0), name="blocker")
            wait_until(lambda: a.state is SessionState.RESUMABLE)
            b = server.submit(lambda: staircase(sleep_s=0.02),
                              SLO(deadline_s=30.0), name="b", key="k")
            # the worker's `ack` frame reports exactly this
            assert b.state is SessionState.RESUMABLE
            rb = b.result(timeout_s=60.0)
            a.result(timeout_s=60.0)
            blocker.result(timeout_s=60.0)
        assert rb.coalesced and rb.snapshot.final
        assert rb.snapshot.value == LEVELS


class TestEveryEndPath:
    @pytest.mark.timeout(180)
    def test_every_session_ends_exactly_once(self, tmp_path, monkeypatch,
                                             suspend_only):
        """One server drives every way a request can end: follower
        deadline detach, builder failure with a subscriber, cancel of a
        queued primary with a live subscriber, memo hit, cancel while
        suspended, shed, and shutdown of running, suspended and queued
        runs with their subscribers."""
        ends = {}
        sessions = []

        def submit(name, builder=staircase, deadline_s=30.0, key=None):
            session = server.submit(builder, SLO(deadline_s=deadline_s),
                                    metric=value_metric, name=name,
                                    key=key)
            session.add_done_callback(
                lambda s: ends.__setitem__(s.name,
                                           ends.get(s.name, 0) + 1))
            sessions.append(session)
            return session

        def broken():
            raise ValueError("no automaton for you")

        def slow():
            return staircase(sleep_s=0.02)

        # the starvation guard waits 60 s (6000 quanta of 10 ms): only
        # the scripted policy grants slots
        monkeypatch.setattr("repro.serve.server.STARVATION_QUANTA", 6000)
        with keyed_server(quantum_s=0.01,
                          memo_ttl_s=30.0, resume_dir=str(tmp_path),
                          policy=suspend_only("s", "blocker")) as server:
            submit("d", slow, key="d")
            submit("d2", deadline_s=0.1, key="d")
            submit("f", broken, key="f")
            submit("f2", key="f")
            q = submit("q", key="q")
            submit("q2", key="q")
            q.cancel()
            submit("m", key="m")
            for session in list(sessions):
                session.result(timeout_s=60.0)
            submit("m2", key="m")
            s = submit("s", slow, key="s")
            submit("s2", slow, key="s")
            wait_until(lambda: s.snapshot().version >= 1)
            submit("blocker", lambda: staircase(sleep_s=0.05))
            wait_until(lambda: s.state is SessionState.RESUMABLE)
            s.cancel()
            wait_until(lambda: s.done)
            submit("z", key="z")
            submit("z2", key="z")
            server.drain(timeout_s=0.0)      # stop accepting
            submit("shed")
        stats = server.stats()
        states = {x.name: x.result(timeout_s=0.0).state.value
                  for x in sessions}
        assert states == {
            "d": "completed", "d2": "completed",
            "f": "failed", "f2": "completed",
            "q": "cancelled", "q2": "completed",
            "m": "completed", "m2": "completed",
            "s": "cancelled", "s2": "cancelled", "blocker": "cancelled",
            "z": "cancelled", "z2": "cancelled", "shed": "shed"}
        assert ends == {x.name: 1 for x in sessions}
        assert stats["finished"] == stats["submitted"] == len(sessions)
        assert stats["memo_hits"] == 1 and stats["suspends"] == 1
        # f2, q2 and s2 inherited runs; only d2 and z2 left a run that
        # another session owned
        assert stats["promotions"] == 3
        assert stats["detaches"] == 2
        assert not os.listdir(tmp_path)


class TestMemo:
    def test_recent_final_answer_served_from_memo(self):
        with keyed_server(memo_ttl_s=30.0) as server:
            a = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="a", key="k")
            ra = a.result(timeout_s=60.0)
            b = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="b", key="k")
            rb = b.result(timeout_s=60.0)
            stats = server.stats()
        assert ra.snapshot.final and not ra.memo_hit
        assert rb.memo_hit
        assert rb.state is SessionState.COMPLETED
        assert rb.snapshot.version == ra.snapshot.version
        assert rb.snapshot.value == ra.snapshot.value
        assert stats["memo_hits"] == 1

    def test_expired_memo_entry_reruns(self):
        with keyed_server(memo_ttl_s=0.05) as server:
            a = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="a", key="k")
            a.result(timeout_s=60.0)
            time.sleep(0.2)
            b = server.submit(staircase, SLO(deadline_s=30.0),
                              metric=value_metric, name="b", key="k")
            rb = b.result(timeout_s=60.0)
        assert not rb.memo_hit
        assert rb.state is SessionState.COMPLETED

    def test_memo_disabled_by_default(self):
        with keyed_server() as server:
            a = server.submit(staircase, SLO(deadline_s=30.0),
                              name="a", key="k")
            a.result(timeout_s=60.0)
            b = server.submit(staircase, SLO(deadline_s=30.0),
                              name="b", key="k")
            rb = b.result(timeout_s=60.0)
        assert not rb.memo_hit


class TestCheckerUnderCoalescing:
    def test_coalescing_server_trace_has_zero_violations(self):
        """Acceptance: a Checker attached to a coalescing server sees no
        invariant violations — sharing runs must not bend the model."""
        checker = Checker()
        with keyed_server(trace=checker, memo_ttl_s=30.0) as server:
            sessions = []
            for round_no in range(2):
                for i in range(3):
                    # unique stage/buffer names per key so the checker
                    # tracks each shared run's ladder independently
                    name = f"app{round_no}"
                    sessions.append(server.submit(
                        (lambda n=name: staircase(name=n)),
                        SLO(deadline_s=30.0), metric=value_metric,
                        name=f"{name}-{i}", key=name))
            results = [s.result(timeout_s=60.0) for s in sessions]
            stats = server.stats()
        checker.close()
        report = checker.report()
        assert report.ok, report.violations
        assert all(r.state is SessionState.COMPLETED for r in results)
        assert stats["coalesced"] >= 2


class TestDigest:
    def test_digest_is_content_addressed(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        same = input_digest("2dconv", img.copy(), size=8, seed=0)
        assert input_digest("2dconv", img, size=8, seed=0) == same
        assert input_digest("2dconv", img, size=8, seed=1) != same
        assert input_digest("dwt53", img, size=8, seed=0) != same
        assert input_digest("2dconv", img + 1, size=8, seed=0) != same

    def test_digest_distinguishes_dtype_and_shape(self):
        img = np.zeros(16, dtype=np.uint8)
        assert input_digest("a", img) != \
            input_digest("a", img.astype(np.uint16))
        assert input_digest("a", img.reshape(4, 4)) != \
            input_digest("a", img)

    def test_digest_skips_none_params(self):
        img = np.zeros(4, dtype=np.uint8)
        assert input_digest("a", img, size=4, seed=None) == \
            input_digest("a", img, size=4)

    def test_request_key_prefixes_app(self):
        digest = input_digest("dwt53", np.zeros(4, dtype=np.uint8))
        key = request_key("dwt53", digest)
        assert key.startswith("dwt53:")
        assert key == f"dwt53:{digest[:16]}"
