"""Checkpoint/restore subsystem (``repro.ckpt``).

A checkpoint is a live run's reply log, copied without pausing the run;
restoring replays the log on a freshly built graph and continues on
*any* executor, bit-exactly.  These tests cover the file format's
structured failure modes, same-executor resume, the full cross-executor
migration matrix (via the restore-differential harness), checkpointing
under a batched command lease, a synchronous pipeline checkpointed
mid-stream, a restored run checkpointed and restored again, a log whose
length does not grow with the image, ``repro ckpt inspect``, the
serving layer's suspend-and-resume path (park on queue-full, checkpoint
on preempt, restore on grant), and fleet worker re-spawn with
checkpoint migration after a SIGKILL.
"""

import contextlib
import os
import signal
import struct
import time

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.ckpt import (CheckpointError, FORMAT_VERSION, MAGIC,
                        load_checkpoint, read_header, write_checkpoint)
from repro.core.automaton import AnytimeAutomaton
from repro.core.controller import VersionCountStop


def values_equal(a, b):
    if isinstance(a, dict):
        return (set(a) == set(b)
                and all(values_equal(a[k], b[k]) for k in a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b


def interrupted_checkpoint(record, image, path, src="simulated",
                           automaton=None, **launch_kw):
    """Run ``record``'s app (or ``automaton``) on ``src``, interrupt it
    mid-flight, and write a checkpoint to ``path``."""
    if automaton is None:
        automaton = record.build(image)
    if src == "simulated":
        result = automaton.run_simulated(stop=VersionCountStop(2),
                                         checkpoint_at_stop=str(path))
        assert result.stopped_early
        return
    handle = (automaton.launch_processes(**launch_kw)
              if src == "process"
              else automaton.launch_threaded(**launch_kw))
    terminal = automaton.graph.buffers[automaton.terminal_buffer_name]
    target = terminal.version + 2
    deadline = time.monotonic() + 60.0
    while terminal.version < target and not handle.finished \
            and time.monotonic() < deadline:
        time.sleep(0.002)
    handle.checkpoint(str(path))
    handle.request_stop()
    handle.result()


# -- file format ---------------------------------------------------------

class TestCheckpointFormat:
    @pytest.fixture()
    def ckpt(self, tmp_path):
        record = get_app("2dconv")
        path = tmp_path / "run.rck"
        interrupted_checkpoint(record, record.make_input(16, 0), path)
        return path

    def test_header_readable_without_payload(self, ckpt):
        header = read_header(str(ckpt))
        assert header["format_version"] == FORMAT_VERSION
        assert header["executor"] == "simulated"
        assert len(header["payload_sha256"]) == 64
        assert header["payload_len"] > 0
        assert header["summary"]["live_stages"]

    def test_round_trip_load(self, ckpt):
        header, payload = load_checkpoint(str(ckpt))
        assert header["format_version"] == FORMAT_VERSION
        assert isinstance(payload, dict)

    def test_bad_magic_is_structured_error(self, tmp_path):
        path = tmp_path / "bad.rck"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            read_header(str(path))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_missing_file_is_structured_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_header(str(tmp_path / "absent.rck"))

    def test_truncated_header_is_structured_error(self, ckpt):
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:len(MAGIC) + 2])
        with pytest.raises(CheckpointError):
            read_header(str(ckpt))

    def test_truncated_payload_is_structured_error(self, ckpt):
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:-16])
        # the header itself is intact ...
        read_header(str(ckpt))
        # ... but the payload cannot be trusted
        with pytest.raises(CheckpointError):
            load_checkpoint(str(ckpt))

    def test_corrupted_payload_fails_digest_check(self, ckpt):
        raw = bytearray(ckpt.read_bytes())
        raw[-1] ^= 0xFF
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(str(ckpt))

    def test_unsupported_format_version_rejected(self, tmp_path):
        path = tmp_path / "future.rck"
        header = (b'{"format_version": 99}')
        path.write_bytes(MAGIC + struct.pack("<I", len(header))
                         + header)
        with pytest.raises(CheckpointError, match="format_version"):
            read_header(str(path))

    def test_restore_from_corrupt_file_never_continues(self, ckpt):
        raw = bytearray(ckpt.read_bytes())
        raw[-1] ^= 0xFF
        ckpt.write_bytes(bytes(raw))
        record = get_app("2dconv")
        with pytest.raises(CheckpointError):
            AnytimeAutomaton.restore(
                str(ckpt),
                builder=lambda: record.build(record.make_input(16, 0)))

    def test_write_checkpoint_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "a.rck"
        write_checkpoint(str(path), {"k": 1},
                         header_extra={"name": "x"})
        assert read_header(str(path))["name"] == "x"
        assert [p.name for p in tmp_path.iterdir()] == ["a.rck"]


# -- resume and migration ------------------------------------------------

@pytest.mark.check
class TestSameExecutorResume:
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("executor",
                             ["simulated", "threaded", "process"])
    def test_resume_is_bit_exact(self, executor, tmp_path):
        record = get_app("2dconv")
        image = record.make_input(32, 1)
        tname = record.build(image).terminal_buffer_name
        reference = record.build(image).run_simulated()
        path = tmp_path / f"{executor}.rck"
        interrupted_checkpoint(record, image, path, src=executor)
        resumed = AnytimeAutomaton.restore(
            str(path), builder=lambda: record.build(image))
        runner = {"simulated": resumed.run_simulated,
                  "threaded": lambda: resumed.run_threaded(
                      timeout_s=120.0),
                  "process": lambda: resumed.run_processes(
                      timeout_s=120.0)}[executor]
        result = runner()
        assert result.completed
        assert values_equal(result.final_values[tname],
                            reference.final_values[tname])
        finals = [r for r in result.timeline.for_buffer(tname)
                  if r.final]
        assert len(finals) == 1

    @pytest.mark.timeout(120)
    def test_simulated_resume_ladder_is_exact(self, tmp_path):
        """A sim->sim resume replays the *identical* version ladder the
        uninterrupted run would have published (determinism, not just
        final-value agreement)."""
        record = get_app("dwt53")
        image = record.make_input(32, 2)
        baseline = record.build(image)
        tname = baseline.terminal_buffer_name
        reference = baseline.run_simulated()
        ref_ladder = [r.version
                      for r in reference.timeline.for_buffer(tname)]
        path = tmp_path / "sim.rck"
        interrupted_checkpoint(record, image, path)
        resumed = AnytimeAutomaton.restore(
            str(path), builder=lambda: record.build(image))
        result = resumed.run_simulated()
        ladder = [r.version for r in result.timeline.for_buffer(tname)]
        assert ladder == ref_ladder
        assert values_equal(result.final_values[tname],
                            reference.final_values[tname])


@pytest.mark.check
@pytest.mark.slow
class TestCrossExecutorMigration:
    """All six cross-executor (src, dst) pairs per app, via the
    restore-differential harness (which additionally checks invariants,
    gap-free ladders and source version counts on every leg)."""

    CROSS_PAIRS = [(a, b)
                   for a in ("simulated", "threaded", "process")
                   for b in ("simulated", "threaded", "process")
                   if a != b]

    @pytest.mark.timeout(600)
    @pytest.mark.parametrize("app", ["2dconv", "kmeans", "dwt53"])
    def test_all_cross_pairs_bit_exact(self, app, tmp_path):
        from repro.check import run_restore_differential

        report = run_restore_differential(
            app=app, size=32, seed=0, pairs=self.CROSS_PAIRS,
            workdir=str(tmp_path), timeout_s=120.0)
        assert report.ok, report.mismatches
        assert len(report.legs) == len(self.CROSS_PAIRS)


@pytest.mark.check
class TestCheckpointUnderLease:
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("lease_k", [2, 8])
    def test_leased_commands_drain_before_capture(self, lease_k,
                                                  tmp_path):
        """Checkpointing a process run that batches commands under a
        lease (lease_k > 1) must quiesce the outstanding batch first:
        the continuation is still bit-exact and publishes exactly one
        final version."""
        record = get_app("2dconv")
        image = record.make_input(32, 3)
        tname = record.build(image).terminal_buffer_name
        reference = record.build(image).run_simulated()
        path = tmp_path / "leased.rck"
        interrupted_checkpoint(record, image, path, src="process",
                               lease_k=lease_k)
        resumed = AnytimeAutomaton.restore(
            str(path), builder=lambda: record.build(image))
        result = resumed.run_threaded(timeout_s=120.0)
        assert result.completed
        assert values_equal(result.final_values[tname],
                            reference.final_values[tname])
        finals = [r for r in result.timeline.for_buffer(tname)
                  if r.final]
        assert len(finals) == 1


@pytest.mark.check
class TestReplayLog:
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("executor",
                             ["simulated", "threaded", "process"])
    def test_sync_pipeline_checkpointed_mid_stream_is_bit_exact(
            self, executor, tmp_path):
        """The Figure 10 synchronous organization, checkpointed while
        its child holds a received update it has not folded yet: the
        restored stream neither loses nor repeats an update."""
        from repro.apps.pipeline_demo import build_organization
        from repro.core.faults import FaultInjector

        def build():
            return build_organization("sync", m=32)

        precise = build().precise_output()
        path = tmp_path / "sync.rck"
        automaton = build()
        if executor == "simulated":
            automaton.run_simulated(stop=VersionCountStop(1),
                                    watch={"G"},
                                    checkpoint_at_stop=str(path))
        else:
            # the child stalls on its first fold, so the capture lands
            # between its receive and its publish
            injector = FaultInjector.from_specs(["g:2:delay=0.5"])
            launch = (automaton.launch_processes
                      if executor == "process"
                      else automaton.launch_threaded)
            handle = launch(injector=injector)
            channel = automaton.graph.channels["F"]
            wait_until(lambda: channel.received >= 1)
            handle.checkpoint(str(path))
            handle.request_stop()
            handle.result()
        live = read_header(str(path))["summary"]["live_stages"]
        assert "g" in live
        resumed = AnytimeAutomaton.restore(str(path), builder=build)
        result = {"simulated": resumed.run_simulated,
                  "threaded": lambda: resumed.run_threaded(
                      timeout_s=60.0),
                  "process": lambda: resumed.run_processes(
                      timeout_s=60.0)}[executor]()
        assert result.completed
        assert values_equal(result.final_values["G"], precise)
        ladder = result.timeline.for_buffer("G")
        assert [r.version for r in ladder] == list(
            range(1, len(ladder) + 1))
        assert [r.final for r in ladder].count(True) == 1

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("middle", ["threaded", "process"])
    def test_restored_run_checkpointed_again_is_bit_exact(
            self, middle, tmp_path):
        """Restore, run on, checkpoint again, restore again: the second
        checkpoint's log extends the first, and the logical run is the
        uninterrupted one."""
        record = get_app("histeq")
        image = record.make_input(32, 4)
        tname = record.build(image).terminal_buffer_name
        precise = record.build(image).precise_output()
        first, second = tmp_path / "first.rck", tmp_path / "second.rck"
        interrupted_checkpoint(record, image, first)
        restored = AnytimeAutomaton.restore(
            str(first), builder=lambda: record.build(image))
        interrupted_checkpoint(None, None, second, src=middle,
                               automaton=restored)
        _, once = load_checkpoint(str(first))
        _, twice = load_checkpoint(str(second))
        assert twice["log"][:len(once["log"])] == once["log"]
        again = AnytimeAutomaton.restore(
            str(second), builder=lambda: record.build(image))
        result = again.run_simulated()
        assert result.completed
        assert values_equal(result.final_values[tname], precise)
        ladder = result.timeline.for_buffer(tname)
        assert [r.version for r in ladder] == list(
            range(1, len(ladder) + 1))
        assert [r.final for r in ladder].count(True) == 1

    @pytest.mark.timeout(300)
    def test_checkpoints_taken_under_thread_churn_all_replay(
            self, tmp_path):
        """Each event is logged under the lock that applies its effect,
        so a copy of the log taken at any moment is a consistent cut:
        with more stage threads than cores and a 10 µs switch interval,
        every checkpoint of a live run replays and finishes bit-exact."""
        import sys

        record = get_app("histeq")
        image = record.make_input(96, 5)
        tname = record.build(image).terminal_buffer_name
        precise = record.build(image).precise_output()
        paths = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # one run lasts a few milliseconds, about as long as a
            # checkpoint under this churn, so runs repeat until a dozen
            # checkpoints are taken
            for _ in range(24):
                handle = record.build(image).launch_threaded()
                while not handle.finished and len(paths) < 12:
                    paths.append(tmp_path / f"{len(paths)}.rck")
                    handle.checkpoint(str(paths[-1]))
                    time.sleep(0.002)
                assert handle.wait(timeout_s=60.0)
                if len(paths) >= 12:
                    break
        finally:
            sys.setswitchinterval(interval)
        assert len(paths) >= 2
        for path in paths:
            resumed = AnytimeAutomaton.restore(
                str(path), builder=lambda: record.build(image))
            result = resumed.run_simulated()
            assert result.completed, path
            assert values_equal(result.final_values[tname], precise)

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("app", ["2dconv", "kmeans", "dwt53",
                                     "debayer", "histeq"])
    def test_log_length_does_not_grow_with_the_image(self, app,
                                                     tmp_path):
        """Checkpointed at the same version, a 24² and a 256² run log
        the same number of events: the log counts effects, not
        pixels."""
        record = get_app(app)
        counts = []
        for size in (24, 256):
            path = tmp_path / f"{size}.rck"
            record.build(record.make_input(size, 0)).run_simulated(
                stop=VersionCountStop(8), checkpoint_at_stop=str(path))
            counts.append(len(load_checkpoint(str(path))[1]["log"]))
        assert counts[0] == counts[1]

    def test_version_one_file_is_a_structured_error(self, tmp_path):
        """A pickled format-1 checkpoint is refused at its header,
        before anything reads its payload."""
        path = tmp_path / "v1.rck"
        header = b'{"format_version": 1, "payload_len": 4}'
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header
                         + b"\x80\x04N.")
        with pytest.raises(CheckpointError, match="format_version 1"):
            AnytimeAutomaton.restore(
                str(path), builder=lambda: get_app("dwt53").build(
                    get_app("dwt53").make_input(16, 0)))

    def test_inspect_prints_the_log_summary(self, tmp_path, capsys):
        from repro.cli import main

        record = get_app("histeq")
        path = tmp_path / "run.rck"
        interrupted_checkpoint(record, record.make_input(24, 0), path)
        summary = read_header(str(path))["summary"]
        assert main(["ckpt", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        for stage, count in summary["events"].items():
            assert f"log        {stage}: {count} event(s)" in out
        assert "live       " + ", ".join(summary["live_stages"]) in out
        for buffer, version in summary["buffer_versions"].items():
            assert f"buffer     {buffer} @ v{version}" in out


# -- serving-layer suspend-and-resume ------------------------------------

STAIRS = 12


def staircase(sleep_s=0.02, name="work"):
    """One iterative stage: level i sleeps then writes value i+1, so
    version n holds n and the final is version ``STAIRS``."""
    from repro.core.buffer import VersionedBuffer
    from repro.core.iterative import AccuracyLevel, IterativeStage

    def make_level(i):
        def fn(x):
            time.sleep(sleep_s)
            return i + 1
        return AccuracyLevel(fn, 1.0)

    stage = IterativeStage(name, VersionedBuffer(f"{name}-out"),
                           (VersionedBuffer(f"{name}-in"),),
                           [make_level(i) for i in range(STAIRS)])
    return AnytimeAutomaton([stage], external={f"{name}-in": 0})


def wait_until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


@pytest.mark.serve
@pytest.mark.timeout(180)
class TestServerSuspendResume:
    def test_overload_parks_and_resumes_instead_of_shedding(
            self, tmp_path):
        """With a resume_dir, a 2-slot server under 4x overload sheds
        nothing: queue-full submissions park as RESUMABLE, preemption
        suspends runs to disk, and every request finishes with the
        bit-exact precise answer.  No checkpoint files survive."""
        from repro.serve import SLO, AnytimeServer
        from repro.apps import calibrate_app
        from repro.serve.fleet import value_digest

        calib = calibrate_app(app="2dconv", size=24)
        solo = calib["builder"]().run_threaded(timeout_s=60.0)
        ref_digest = value_digest(
            list(solo.final_values.values())[0])
        with AnytimeServer(slots=2, queue_limit=2, quantum_s=0.01,
                           resume_dir=str(tmp_path)) as server:
            sessions = [server.submit(calib["builder"],
                                      SLO(deadline_s=120.0),
                                      metric=calib["metric"],
                                      name=f"r{i}")
                        for i in range(8)]
            assert server.drain(timeout_s=150.0)
            stats = server.stats()
        for session in sessions:
            result = session.result(timeout_s=0.0)
            assert result.state.value == "completed", (
                session.name, result.state, result.errors)
            assert result.snapshot.final
            assert value_digest(result.snapshot.value) == ref_digest
        assert stats["shed"] == 0
        assert stats["parked"] > 0
        assert stats["requeued"] == stats["parked"]
        assert stats["restores"] == stats["suspends"]
        assert sum(s.result(0.0).restores for s in sessions) \
            == stats["restores"]
        assert not os.listdir(tmp_path)

    def test_keyed_suspend_checkpoint_is_named_by_ckpt_filename(
            self, tmp_path, monkeypatch, suspend_only):
        """A keyed run suspends to ``ckpt_filename(key)``: the one name
        a fleet router looks for when it migrates a dead worker's run."""
        from repro.serve import SLO, AnytimeServer
        from repro.serve.fleet import ckpt_filename

        names = []
        suspend = AnytimeServer._suspend

        def recording(self, session, now):
            suspended = suspend(self, session, now)
            if suspended:
                names.append((session.key,
                              os.path.basename(session._ckpt_path)))
            return suspended

        monkeypatch.setattr(AnytimeServer, "_suspend", recording)
        with AnytimeServer(slots=1, quantum_s=0.01, tick_s=0.002,
                           starvation_s=60.0,
                           policy=suspend_only("r0", "blocker"),
                           resume_dir=str(tmp_path)) as server:
            sessions = [server.submit(staircase, SLO(deadline_s=120.0),
                                      name="r0", key="2dconv:k/0")]
            wait_until(lambda: sessions[0].snapshot().version >= 1)
            sessions.append(server.submit(
                lambda: staircase(name="slow"), SLO(deadline_s=120.0),
                name="blocker", key="2dconv:k/1"))
            assert server.drain(timeout_s=150.0)
        assert all(s.result(0.0).state.value == "completed"
                   for s in sessions)
        assert names, "no keyed run was suspended"
        for key, name in names:
            assert name == ckpt_filename(key)

    def test_without_resume_dir_overload_still_sheds(self):
        """The suspend path is opt-in: the same overload on a server
        without a resume_dir keeps the classic shed behavior."""
        from repro.serve import SLO, AnytimeServer
        from repro.apps import calibrate_app

        calib = calibrate_app(app="2dconv", size=24)
        with AnytimeServer(slots=1, queue_limit=1,
                           quantum_s=0.01) as server:
            sessions = [server.submit(calib["builder"],
                                      SLO(deadline_s=120.0),
                                      metric=calib["metric"],
                                      name=f"r{i}", key=None)
                        for i in range(6)]
            assert server.drain(timeout_s=120.0)
            stats = server.stats()
        assert stats["shed"] > 0
        assert stats["parked"] == 0
        states = {s.result(0.0).state.value for s in sessions}
        assert states <= {"completed", "shed"}

    def test_suspended_primary_hands_its_run_to_a_live_subscriber(
            self, tmp_path, suspend_only):
        """A suspended primary whose own deadline passes leaves with the
        snapshot pinned at suspend time; its subscriber inherits the
        checkpoint and runs it to the final, as it would inherit a
        running run, instead of ending with the primary."""
        from repro.serve import SLO, AnytimeServer, SessionState

        with AnytimeServer(slots=1, quantum_s=0.01, tick_s=0.002,
                           starvation_s=60.0,
                           policy=suspend_only("a", "blocker"),
                           resume_dir=str(tmp_path)) as server:
            a = server.submit(staircase, SLO(deadline_s=0.3), name="a",
                              key="k")
            b = server.submit(staircase, SLO(deadline_s=30.0), name="b",
                              key="k")
            wait_until(lambda: a.snapshot().version >= 2)
            blocker = server.submit(
                lambda: staircase(sleep_s=0.05, name="slow"),
                SLO(deadline_s=30.0), name="blocker")
            ra = a.result(timeout_s=60.0)
            rb = b.result(timeout_s=60.0)
            blocker.result(timeout_s=60.0)
            stats = server.stats()
        assert stats["suspends"] == 1 and stats["promotions"] == 1
        assert ra.state is SessionState.COMPLETED and ra.interrupted
        assert 2 <= ra.snapshot.version < STAIRS
        assert rb.state is SessionState.COMPLETED
        assert rb.snapshot.final and rb.snapshot.value == STAIRS
        assert rb.restores == 1
        assert not os.listdir(tmp_path)


# -- fleet re-spawn and checkpoint migration -----------------------------

@pytest.mark.serve
@pytest.mark.slow
@pytest.mark.timeout(300)
class TestFleetRespawnAndMigration:
    def test_three_worker_fleet_returns_to_three_after_sigkill(
            self, tmp_path):
        from repro.serve.router import FleetRouter, summarize_fleet

        config = {"slots": 1, "queue_limit": 6, "quantum_s": 0.02}
        with FleetRouter(workers=3, worker_config=config,
                         resume_dir=str(tmp_path)) as fleet:
            requests = [fleet.submit("2dconv", size=96, seed=i,
                                     slo={"deadline_s": 300.0})
                        for i in range(9)]
            time.sleep(0.5)
            victim = next((l for l in fleet._links if l.inflight),
                          fleet._links[0])
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while (fleet.alive_workers() < 3
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            alive = fleet.alive_workers()
            assert fleet.drain(timeout_s=240.0)
            summary = summarize_fleet(requests)
            stats = fleet.aggregate_stats()["router"]
        assert alive == 3
        assert stats["worker_deaths"] >= 1
        assert stats["respawns"] >= 1
        assert summary["failed"] == 0
        assert summary["completed"] == 9

    def test_orphans_migrate_from_dead_workers_checkpoints(
            self, tmp_path):
        """Kill a worker that provably holds suspend checkpoints
        (frozen with SIGSTOP first, so none can be consumed between
        the check and the kill): its orphaned requests restore on the
        replacement from the last checkpoint instead of starting over,
        and still finish with a valid answer."""
        from repro.check.fleetdiff import held_reference
        from repro.serve.router import FleetRouter, summarize_fleet

        config = {"slots": 1, "queue_limit": 6, "quantum_s": 0.02}
        # no reference comes in before the SIGKILL: every run waits for
        # its reference, and is suspended, rather than end on it
        released = tmp_path / "reference-released"
        with contextlib.ExitStack() as stack:
            with held_reference("2dconv", str(released)):
                fleet = stack.enter_context(FleetRouter(
                    workers=3, worker_config=config,
                    resume_dir=str(tmp_path)))
            requests = [fleet.submit("2dconv", size=128, seed=i,
                                     slo={"deadline_s": 300.0})
                        for i in range(9)]
            victim = None
            deadline = time.monotonic() + 60.0
            while victim is None and time.monotonic() < deadline:
                candidates = [l for l in fleet._links if l.inflight]
                for link in candidates:
                    os.kill(link.process.pid, signal.SIGSTOP)
                    workdir = tmp_path / f"w{link.index}"
                    # a finished checkpoint, not the atomic write's
                    # `<key>.rck.tmp.<pid>` a freeze can land in
                    if (link.inflight and workdir.is_dir()
                            and any(f.name.endswith(".rck")
                                    for f in workdir.iterdir())):
                        victim = link        # frozen, checkpoints pinned
                        break
                    os.kill(link.process.pid, signal.SIGCONT)
                if victim is None:
                    time.sleep(0.02)
            assert victim is not None, "no worker suspended a run"
            os.kill(victim.process.pid, signal.SIGKILL)
            released.touch()
            assert fleet.drain(timeout_s=240.0)
            summary = summarize_fleet(requests)
            stats = fleet.aggregate_stats()["router"]
            alive = fleet.alive_workers()
        assert alive == 3
        assert stats["respawns"] >= 1
        assert stats["migrated"] >= 1, stats
        assert summary["failed"] == 0
        assert summary["completed"] == 9
