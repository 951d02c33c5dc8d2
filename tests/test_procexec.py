"""Process executor: correctness, zero-copy data plane, faults, shutdown.

The executor under test forks one worker per stage and moves ndarray
versions through shared-memory slab rings; control messages carry
*descriptors* (segment/slot/shape/dtype), never pickled arrays.  These
tests pin:

- end-to-end correctness (final outputs equal the precise reference),
- the descriptor-only wire protocol (via the executor's message tap),
- the fault runtime (in-process restarts, re-fork after hard worker
  death, degradation, strict mode),
- warm workers (sample orders and tree levels derived in the parent,
  never in a forked worker),
- clean shutdown on timeout (no orphaned workers, no leaked
  shared-memory segments).

Everything here asserts *correctness*, never speed: CI boxes may have
a single core, where process parallelism only adds overhead.
"""

import multiprocessing as mp
import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.anytime import permutations
from repro.anytime.permutations import TreePermutation
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.controller import VersionCountStop
from repro.core.faults import FaultInjector, FaultPolicy
from repro.core.mapstage import MapStage
from repro.core.procexec import ProcessExecutor
from repro.core.shmplane import payload_arrays
from repro.core.tracing import InMemorySink

pytestmark = pytest.mark.timeout(120)


def map_automaton(chunks=8, fn=None, permutation=None):
    img = np.arange(64, dtype=np.float64).reshape(8, 8)
    b_in = VersionedBuffer("in")
    b_out = VersionedBuffer("out")
    fn = fn or (lambda idx, im: np.asarray(im).reshape(-1)[idx] * 3)
    stage = MapStage("m", b_out, (b_in,), fn,
                     shape=(8, 8), dtype=np.float64,
                     permutation=permutation or TreePermutation(),
                     chunks=chunks)
    return AnytimeAutomaton([stage], external={"in": img}), img * 3


def _holds_ndarray(obj):
    if isinstance(obj, np.ndarray):
        return True
    if isinstance(obj, (list, tuple)):
        return any(_holds_ndarray(o) for o in obj)
    if isinstance(obj, dict):
        return any(_holds_ndarray(v) for v in obj.values())
    return False


class TestCorrectness:
    def test_map_pipeline_completes_exactly(self):
        auto, ref = map_automaton()
        result = auto.run_processes(timeout_s=60.0)
        assert result.completed and not result.stopped_early
        final = result.timeline.final_record("out")
        assert final.final
        assert np.array_equal(final.value, ref)
        # the executor's copy of the final value survives plane teardown
        assert np.array_equal(result.final_values["out"], ref)
        report = result.stage_reports["m"]
        assert report.completed and report.commands > 0

    def test_intermediate_versions_are_recorded(self):
        auto, _ = map_automaton(chunks=8)
        result = auto.run_processes(timeout_s=60.0)
        records = result.output_records("out")
        assert len(records) == 8
        assert [r.version for r in records] == list(range(1, 9))
        assert all(r.energy > 0 for r in records)
        times = [r.time for r in records]
        assert times == sorted(times)

    def test_stop_condition_fires(self):
        auto, _ = map_automaton(chunks=8)
        result = auto.run_processes(stop=VersionCountStop(3),
                                    timeout_s=60.0)
        assert result.stopped_early and not result.completed
        assert len(result.output_records("out")) == 3

    def test_second_run_is_rejected(self):
        auto, _ = map_automaton()
        auto.run_processes(timeout_s=60.0)
        with pytest.raises(RuntimeError, match="already executed"):
            auto.run_processes(timeout_s=60.0)


class TestZeroCopyPlane:
    def test_control_messages_are_descriptor_only(self):
        """No pickled ndarray ever crosses a worker pipe: writes carry
        slab descriptors, snapshot replies hand out the same."""
        auto, ref = map_automaton()
        executor = ProcessExecutor(auto.graph)
        taps = []
        executor._message_tap = \
            lambda d, s, m: taps.append((d, s, m))
        result = executor.run(timeout_s=60.0)
        assert result.completed

        writes = [m for d, _, m in taps
                  if d == "recv" and m[0] == "write"]
        assert writes, "the worker wrote versions"
        assert all(m[1][0] == "tree" for m in writes), \
            "ndarray payloads must travel as descriptor trees"
        snaps = [m for d, _, m in taps
                 if d == "send" and m[0] == "snaps" and m[1]]
        assert snaps, "the worker was handed input snapshots"
        for _, _, m in taps:
            assert not _holds_ndarray(m), \
                f"raw ndarray leaked onto the control wire: {m[0]}"

    def test_final_value_detached_from_slabs(self):
        """Returned values must be private copies: the slab segments
        are unlinked at run() exit, so a view would dangle."""
        auto, ref = map_automaton()
        result = auto.run_processes(timeout_s=60.0)
        value = result.final_values["out"]
        value.base  # touch: a dangling mmap view would fault on access
        copy = np.array(value)
        assert np.array_equal(copy, ref)


class TestFaults:
    def test_injected_error_restart_recovers(self):
        auto, ref = map_automaton()
        injector = FaultInjector.from_specs(["m:3:error"])
        mem = InMemorySink()
        result = auto.run_processes(
            faults=FaultPolicy(max_retries=2, on_failure="restart"),
            injector=injector, trace=mem, timeout_s=60.0)
        report = result.stage_reports["m"]
        assert result.completed
        assert report.failures == 1
        assert report.attempts == 2
        assert report.retries == 1
        assert len(mem.for_kind("fault.injected")) == 1
        assert len(mem.for_kind("stage.restart")) == 1
        final = result.timeline.final_record("out")
        assert np.array_equal(final.value, ref)

    def test_injected_error_degrades(self):
        auto, _ = map_automaton()
        # command 8 sits mid-run: several versions land first
        injector = FaultInjector.from_specs(["m:8:error"])
        result = auto.run_processes(
            faults=FaultPolicy(on_failure="degrade"),
            injector=injector, timeout_s=60.0)
        report = result.stage_reports["m"]
        assert not result.completed
        assert report.degraded and not report.completed
        records = result.output_records("out")
        assert records, "versions before the fault were kept"
        assert not records[-1].final

    def test_strict_mode_raises(self):
        auto, _ = map_automaton()
        injector = FaultInjector.from_specs(["m:3:error"])
        with pytest.raises(RuntimeError, match="failed during process"):
            auto.run_processes(faults=FaultPolicy(on_failure="fail"),
                               injector=injector, strict=True,
                               timeout_s=60.0)

    def test_hard_worker_death_restarts_from_fresh_fork(self, tmp_path):
        """SIGKILL (no exception, no message — just EOF on the pipe)
        must hit the same fault policy; a restart re-forks the stage
        from the parent's pristine copy and completes exactly."""
        flag = str(tmp_path / "died-once")

        def fn(idx, im, path=flag):
            if not os.path.exists(path):
                open(path, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            return np.asarray(im).reshape(-1)[idx] * 3

        auto, ref = map_automaton(fn=fn)
        result = auto.run_processes(
            faults=FaultPolicy(max_retries=1, on_failure="restart"),
            timeout_s=60.0)
        report = result.stage_reports["m"]
        assert result.completed
        assert report.failures == 1
        assert report.attempts == 2
        final = result.timeline.final_record("out")
        assert np.array_equal(final.value, ref)

    def test_hard_worker_death_degrades_without_retries(self, tmp_path):
        flag = str(tmp_path / "died-once")

        def fn(idx, im, path=flag):
            if not os.path.exists(path):
                open(path, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            return np.asarray(im).reshape(-1)[idx] * 3

        auto, _ = map_automaton(fn=fn)
        result = auto.run_processes(
            faults=FaultPolicy(on_failure="degrade"), timeout_s=60.0)
        report = result.stage_reports["m"]
        assert not result.completed
        assert report.degraded
        assert auto.graph.buffers["out"].sealed


class TestWarmWorkers:
    """Each executor derives a stage's sample order and tree levels
    before its run starts, so a forked worker inherits them and
    derives neither: not on a fresh run, a restored run's first fork,
    or a re-fork after a worker died."""

    ONCE_HERE = {"orders_here": 1, "orders_elsewhere": 0,
                 "levels_here": 1, "levels_elsewhere": 0}

    def test_two_runs_derive_once_in_the_parent(self, derivations):
        Counting, counts = derivations
        for _ in range(2):
            auto, ref = map_automaton(permutation=Counting())
            result = auto.run_processes(timeout_s=60.0)
            assert result.completed
            assert np.array_equal(result.final_values["out"], ref)
        assert counts() == self.ONCE_HERE

    def test_restored_run_derives_nothing_in_workers(self, derivations,
                                                     tmp_path):
        Counting, counts = derivations
        path = str(tmp_path / "m.rck")
        auto, ref = map_automaton(permutation=Counting())
        auto.run_simulated(stop=VersionCountStop(2),
                           checkpoint_at_stop=path)
        permutations._memo.clear()    # the restore starts cold
        resumed = AnytimeAutomaton.restore(
            path, builder=lambda: map_automaton(
                permutation=Counting())[0])
        result = resumed.run_processes(timeout_s=60.0)
        assert result.completed
        assert np.array_equal(result.final_values["out"], ref)
        assert counts() == {"orders_here": 2, "orders_elsewhere": 0,
                            "levels_here": 2, "levels_elsewhere": 0}

    def test_refork_after_kill_derives_nothing(self, derivations,
                                               tmp_path):
        Counting, counts = derivations
        flag = str(tmp_path / "died-once")

        def fn(idx, im, path=flag):
            if not os.path.exists(path):
                open(path, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            return np.asarray(im).reshape(-1)[idx] * 3

        auto, ref = map_automaton(fn=fn, permutation=Counting())
        result = auto.run_processes(
            faults=FaultPolicy(max_retries=1, on_failure="restart"),
            timeout_s=60.0)
        assert result.completed
        assert result.stage_reports["m"].attempts == 2
        assert np.array_equal(result.final_values["out"], ref)
        assert counts() == self.ONCE_HERE


class TestCommandLeases:
    def test_leased_run_is_bit_identical_to_sync(self):
        """The lease safety rule made executable: the version ladder a
        leased worker publishes must equal the one-round-trip-per-command
        protocol's ladder bit for bit."""
        results = {}
        for k in (1, 8):
            auto, _ = map_automaton(chunks=8)
            executor = ProcessExecutor(auto.graph, lease_k=k)
            results[k] = executor.run(timeout_s=60.0)
        sync, leased = results[1], results[8]
        assert sync.completed and leased.completed
        s_recs = sync.output_records("out")
        l_recs = leased.output_records("out")
        assert [r.version for r in s_recs] == [r.version for r in l_recs]
        for s, l in zip(s_recs, l_recs):
            assert s.final == l.final
            assert np.array_equal(s.value, l.value)

    #: worker messages that block for a reply; every other worker
    #: message (energy, segments, epoch, trace, the outcome) is one-way
    REQUESTS = ("write", "wait", "poll", "emit", "recv", "close_channel",
                "failed")

    @pytest.mark.parametrize("lease_k", [1, 8])
    def test_lease_k_one_run_has_no_leased_writes(self, lease_k):
        """A lease widens only the stage's batched compute: at any
        ``lease_k`` every worker request, each write included, gets
        exactly one reply before the worker sends its next request, so
        a ring of ``consumers + 2`` slots always has one free."""
        auto, _ = map_automaton(chunks=8)
        executor = ProcessExecutor(auto.graph, lease_k=lease_k)
        taps = []
        executor._message_tap = lambda d, s, m: taps.append((d, s, m))
        result = executor.run(timeout_s=60.0)
        assert result.completed

        pending = {}
        for direction, stage, m in taps:
            if direction == "send":
                assert pending.pop(stage, None), f"unrequested {m!r}"
            elif m[0] in self.REQUESTS:
                assert stage not in pending, \
                    f"{m[0]!r} sent before {pending[stage]!r} was answered"
                pending[stage] = m[0]
        assert pending == {}

        writes = [m for d, _, m in taps if d == "recv" and m[0] == "write"]
        assert len(writes) == 8
        slots = max(3, len(executor.graph.consumers_of("out")) + 2)
        for m in writes:
            assert [r.slots for r in payload_arrays(m[1])] == [slots]

    def test_lease_k_validated(self):
        auto, _ = map_automaton()
        with pytest.raises(ValueError, match="lease_k"):
            ProcessExecutor(auto.graph, lease_k=0)

    def test_faulty_leased_run_still_recovers(self):
        """A fault raised mid-lease drives the normal restart path to an
        exact result."""
        auto, ref = map_automaton(chunks=32)
        injector = FaultInjector.from_specs(["m:3:error"])
        executor = ProcessExecutor(
            auto.graph, faults=FaultPolicy(max_retries=2,
                                           on_failure="restart"),
            injector=injector, lease_k=8)
        result = executor.run(timeout_s=60.0)
        report = result.stage_reports["m"]
        assert result.completed
        assert report.failures == 1 and report.attempts == 2
        final = result.timeline.final_record("out")
        assert np.array_equal(final.value, ref)


class TestTraceClockSkew:
    def test_worker_events_merge_monotone_with_parent_spans(self):
        """Worker-side trace events are re-based onto the parent clock
        (epoch correction), so a fault injected inside the worker must
        timestamp *inside* its stage's start/finish span, and the merged
        per-stage stream must be monotone."""
        auto, _ = map_automaton(chunks=8)
        injector = FaultInjector.from_specs(["m:3:error"])
        mem = InMemorySink()
        result = auto.run_processes(
            faults=FaultPolicy(max_retries=2, on_failure="restart"),
            injector=injector, trace=mem, timeout_s=60.0)
        assert result.completed

        starts = mem.for_kind("stage.start")
        finishes = mem.for_kind("stage.finish")
        faults = mem.for_kind("fault.injected")
        assert starts and finishes and len(faults) == 1

        run_start = min(e.ts for e in starts)
        run_finish = max(e.ts for e in finishes)
        fault = faults[0]
        assert run_start <= fault.ts <= run_finish, \
            (f"worker fault event at {fault.ts} fell outside the parent "
             f"span [{run_start}, {run_finish}]: clock skew")

        # causality across the process boundary: the parent's restart
        # event reacts to the worker's fault, so the corrected fault
        # timestamp must precede it (raw worker clocks would not)
        restarts = mem.for_kind("stage.restart")
        assert len(restarts) == 1
        assert fault.ts <= restarts[0].ts

        # each emitter's own stream stays monotone after correction
        for kind in ("stage.start", "stage.finish", "fault.injected"):
            ts = [e.ts for e in mem.for_kind(kind)]
            assert ts == sorted(ts)

        # writes carry parent timestamps; versions and time agree
        writes = [e for e in mem.for_kind("buffer.write")
                  if e.target == "out"]
        by_version = sorted(writes, key=lambda e: e.args["version"])
        ts = [e.ts for e in by_version]
        assert ts == sorted(ts)


class TestShutdownHygiene:
    def _slow_automaton(self):
        def fn(idx, im):
            time.sleep(0.05)
            return np.asarray(im).reshape(-1)[idx] * 3

        return map_automaton(chunks=32, fn=fn)

    def _assert_no_orphans(self):
        deadline = time.monotonic() + 5.0
        while mp.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert mp.active_children() == []

    @staticmethod
    def _spy_segment_names(executor):
        """The cleanup ledger clears itself after unlinking; capture the
        names the instant before so the test can probe for leaks."""
        captured: set[str] = set()
        original = executor._cleanup_plane

        def spy():
            captured.update(executor._registry.known)
            original()

        executor._cleanup_plane = spy
        return captured

    def test_timeout_reaps_workers_and_segments(self):
        """The PR's bugfix: ``timeout_s`` expiry must leave no orphaned
        worker processes and no leaked shared-memory segments."""
        auto, _ = self._slow_automaton()
        # lease_k=1 keeps the kernel un-batched so every chunk pays its
        # sleep and the run reliably outlives the timeout
        executor = ProcessExecutor(auto.graph, lease_k=1)
        names = self._spy_segment_names(executor)
        result = executor.run(timeout_s=0.3)
        assert result.stopped_early and not result.completed
        self._assert_no_orphans()
        assert names, "the run created slab segments"
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_completed_run_leaves_no_residue(self):
        auto, _ = map_automaton()
        executor = ProcessExecutor(auto.graph)
        names = self._spy_segment_names(executor)
        result = executor.run(timeout_s=60.0)
        assert result.completed
        self._assert_no_orphans()
        assert names
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
