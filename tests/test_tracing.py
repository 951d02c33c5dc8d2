"""Observability layer: trace sinks, event streams, executor hooks.

Three layers under test: the sinks themselves (contract + file
formats), the events the executors emit (kinds, pairing, ordering,
accuracy samples), and the per-stage counters surfaced on
:class:`StageReport`.  The threaded-vs-simulated comparison pins the
promise that both executors describe the *same* execution shape.
"""

import io
import json
import math
import threading
import time

import numpy as np
import pytest

from repro.anytime.permutations import TreePermutation
from repro.apps.pipeline_demo import build_organization
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.channel import UpdateChannel
from repro.core.executor import ThreadedExecutor, _StageThread
from repro.core.faults import FaultInjector, FaultPolicy, StageReport
from repro.core.graph import AutomatonGraph
from repro.core.iterative import AccuracyLevel, IterativeStage
from repro.core.kernel import drive
from repro.core.mapstage import MapStage
from repro.core.stage import Emit, PreciseStage, Write
from repro.core.tracing import (ChromeTraceSink, InMemorySink, JsonlSink,
                                NullSink, TraceEvent, TraceSink,
                                active_sink, make_sink)
from repro.metrics.snr import snr_db

pytestmark = pytest.mark.timeout(60)


def map_automaton(chunks=8):
    img = np.arange(64, dtype=np.float64).reshape(8, 8)
    b_in = VersionedBuffer("in")
    b_out = VersionedBuffer("out")
    stage = MapStage("m", b_out, (b_in,),
                     lambda idx, im: np.asarray(im).reshape(-1)[idx] * 3,
                     shape=(8, 8), dtype=np.float64,
                     permutation=TreePermutation(), chunks=chunks)
    return AnytimeAutomaton([stage], external={"in": img}), img * 3


def pipeline_automaton():
    """f (iterative, 2 versions) -> g (precise): in -> F -> G."""
    b_in = VersionedBuffer("in")
    b_f = VersionedBuffer("F")
    b_g = VersionedBuffer("G")
    f = IterativeStage("f", b_f, (b_in,),
                       [AccuracyLevel(lambda x: x // 2, 1.0),
                        AccuracyLevel(lambda x: x, 1.0)])
    g = PreciseStage("g", b_g, (b_f,), lambda F: F * 10, cost=1.0)
    return AnytimeAutomaton([f, g], external={"in": 9})


class TestSinkContracts:
    def test_null_sink_is_disabled(self):
        sink = NullSink()
        assert sink.enabled is False
        assert active_sink(sink) is None
        sink.emit(TraceEvent(0.0, "stage.start"))   # harmless
        sink.close()

    def test_active_sink_passthrough(self):
        mem = InMemorySink()
        assert active_sink(mem) is mem
        assert active_sink(None) is None

    def test_all_sinks_satisfy_protocol(self, tmp_path):
        sinks = [NullSink(), InMemorySink(),
                 JsonlSink(io.StringIO()),
                 ChromeTraceSink(io.StringIO())]
        for sink in sinks:
            assert isinstance(sink, TraceSink)

    def test_event_to_dict_drops_empty_fields(self):
        e = TraceEvent(1.5, "buffer.write")
        assert e.to_dict() == {"ts": 1.5, "kind": "buffer.write"}
        e = TraceEvent(2.0, "buffer.write", stage="s", target="b",
                       args={"version": 3})
        assert e.to_dict() == {"ts": 2.0, "kind": "buffer.write",
                               "stage": "s", "target": "b",
                               "args": {"version": 3}}

    def test_in_memory_queries(self):
        mem = InMemorySink()
        mem.emit(TraceEvent(0.0, "stage.start", stage="a"))
        mem.emit(TraceEvent(1.0, "accuracy.sample", stage="a",
                            target="out", args={"accuracy": 12.5}))
        mem.emit(TraceEvent(2.0, "stage.finish", stage="a"))
        assert len(mem.for_stage("a")) == 3
        assert [e.kind for e in mem.for_kind("stage.start")] \
            == ["stage.start"]
        assert mem.counts() == {"stage.start": 1, "accuracy.sample": 1,
                                "stage.finish": 1}
        assert mem.accuracy_stream("out") == [(1.0, 12.5)]
        assert mem.accuracy_stream("other") == []

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path)
        sink.emit(TraceEvent(0.0, "stage.start", stage="a"))
        sink.emit(TraceEvent(1.0, "accuracy.sample", target="out",
                             args={"accuracy": math.inf}))
        sink.close()
        lines = open(path).read().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["kind"] for e in events] \
            == ["stage.start", "accuracy.sample"]
        # non-finite floats must not leak into strict JSON
        assert isinstance(events[1]["args"]["accuracy"], str)

    def test_jsonl_borrowed_file_left_open(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit(TraceEvent(0.0, "stage.start"))
        sink.close()
        assert not buf.closed
        assert json.loads(buf.getvalue())["kind"] == "stage.start"

    def test_make_sink_dispatch(self, tmp_path):
        assert isinstance(make_sink(str(tmp_path / "a.jsonl"), "jsonl"),
                          JsonlSink)
        assert isinstance(make_sink(str(tmp_path / "a.json"), "chrome"),
                          ChromeTraceSink)
        with pytest.raises(ValueError, match="csv"):
            make_sink(str(tmp_path / "a.csv"), "csv")

    def test_chrome_sink_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            ChromeTraceSink(io.StringIO(), time_scale=0.0)


class TestSimulatedTrace:
    def test_event_kinds_and_monotone_ts(self):
        auto, ref = map_automaton()
        mem = InMemorySink()
        auto.run_simulated(total_cores=4.0, trace=mem,
                           trace_metric=snr_db, trace_reference=ref)
        counts = mem.counts()
        assert counts["stage.start"] == 1
        assert counts["stage.finish"] == 1
        assert counts["buffer.write"] >= 1
        ts = [e.ts for e in mem.events]
        assert ts == sorted(ts)

    def test_accuracy_stream_monotone_to_inf(self):
        auto, ref = map_automaton()
        mem = InMemorySink()
        auto.run_simulated(total_cores=4.0, trace=mem,
                           trace_metric=snr_db, trace_reference=ref)
        stream = mem.accuracy_stream("out")
        assert len(stream) >= 2
        accs = [a for _, a in stream]
        assert accs == sorted(accs)
        assert accs[-1] == math.inf

    def test_wait_spans_for_downstream_stage(self):
        auto = pipeline_automaton()
        mem = InMemorySink()
        result = auto.run_simulated(total_cores=2.0, trace=mem)
        waits = [e for e in mem.for_kind("stage.wait")
                 if e.stage == "g"]
        assert waits, "g blocks on F at least once"
        assert all(e.args["dur"] >= 0 for e in waits)
        report = result.stage_reports["g"]
        assert report.waits == len(waits)
        assert report.wait_time == pytest.approx(
            sum(e.args["dur"] for e in waits))

    def test_null_sink_run_emits_nothing_and_completes(self):
        auto, ref = map_automaton()
        result = auto.run_simulated(total_cores=4.0, trace=NullSink())
        assert result.completed
        final = result.timeline.final_record("out")
        assert np.array_equal(final.value, ref)


class TestChromeExport:
    def _trace(self, tmp_path):
        auto = build_organization("sync", m=16)
        path = str(tmp_path / "trace.json")
        sink = ChromeTraceSink(path)
        auto.run_simulated(total_cores=2.0, trace=sink,
                           trace_metric=snr_db,
                           trace_reference=auto.precise_output())
        sink.close()
        return json.load(open(path))

    def test_loadable_sorted_and_paired(self, tmp_path):
        doc = self._trace(tmp_path)
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        # strictly valid JSON was implied by json.load; also check ts
        # ordering (metadata records carry no ts)
        ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert ts == sorted(ts)
        # every B has a matching E on the same track
        opens = {}
        for e in events:
            if e["ph"] == "B":
                opens[e["tid"]] = opens.get(e["tid"], 0) + 1
            elif e["ph"] == "E":
                assert opens.get(e["tid"], 0) > 0, \
                    "E without a preceding B"
                opens[e["tid"]] -= 1
        assert all(v == 0 for v in opens.values())

    def test_thread_names_and_counters(self, tmp_path):
        doc = self._trace(tmp_path)
        events = doc["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"f", "g"} <= names
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "accuracy samples become counter tracks"
        for e in counters:
            acc = e["args"]["accuracy"]
            assert isinstance(acc, (int, float)) and math.isfinite(acc)

    def test_wait_spans_are_complete_events(self, tmp_path):
        doc = self._trace(tmp_path)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for e in spans:
            assert e["dur"] >= 0
            assert e["name"].startswith("wait:")


class TestStageReportCounters:
    def test_commands_counted_both_executors(self):
        for run in ("run_simulated", "run_threaded"):
            auto, _ = map_automaton()
            kwargs = ({"total_cores": 4.0} if run == "run_simulated"
                      else {"timeout_s": 30.0})
            result = getattr(auto, run)(**kwargs)
            report = result.stage_reports["m"]
            assert report.commands > 0
            assert report.retries == 0
            assert "commands=" in report.summary()

    def test_retries_and_fault_events_under_injection(self):
        auto, ref = map_automaton()
        injector = FaultInjector.from_specs(["m:3:error"])
        mem = InMemorySink()
        result = auto.run_simulated(
            total_cores=4.0,
            faults=FaultPolicy(max_retries=2, on_failure="restart"),
            injector=injector, trace=mem)
        report = result.stage_reports["m"]
        assert report.failures == 1
        assert report.attempts == 2
        assert report.retries == 1
        assert len(mem.for_kind("fault.injected")) == 1
        assert len(mem.for_kind("stage.restart")) == 1
        # a restart opens a fresh start/finish pair
        assert len(mem.for_kind("stage.start")) == 2
        statuses = [e.args["status"]
                    for e in mem.for_kind("stage.finish")]
        assert statuses[0] == "error"
        assert statuses[-1] == "completed"
        final = result.timeline.final_record("out")
        assert np.array_equal(final.value, ref)

    def test_report_wait_counter_fields(self):
        report = StageReport(stage="s")
        assert (report.waits, report.wait_time) == (0, 0.0)
        report.record_wait(0.25)
        report.record_wait(0.75)
        assert report.waits == 2
        assert report.wait_time == pytest.approx(1.0)
        assert "waits=2" in report.summary()


class TestExecutorParity:
    """Both executors must describe the same execution shape."""

    def _shape(self, counts):
        # wait spans are timing-dependent (the threaded executor only
        # records a wait when it actually blocked) and shm.* events
        # are process-backend data-plane bookkeeping; everything else
        # is determined by the dataflow
        return {k: v for k, v in counts.items()
                if k != "stage.wait" and not k.startswith("shm.")}

    def test_pipeline_demo_trace_shapes_match(self):
        """All three executors — simulated, threaded, process — must
        emit the same event-shape for a deterministic sync pipeline."""
        ref_counts = None
        for run in ("run_simulated", "run_threaded", "run_processes"):
            auto = build_organization("sync", m=16)
            mem = InMemorySink()
            kwargs = ({"total_cores": 2.0} if run == "run_simulated"
                      else {"timeout_s": 30.0})
            kwargs.update(trace=mem, trace_metric=snr_db,
                          trace_reference=auto.precise_output())
            getattr(auto, run)(**kwargs)
            shape = self._shape(mem.counts())
            if ref_counts is None:
                ref_counts = shape
            else:
                assert shape == ref_counts, f"{run} diverged"

    @pytest.mark.parametrize("app", ["conv2d", "kmeans"])
    def test_three_way_final_output_equality(self, app):
        """The executors are different machines running the same
        automaton: their final outputs must be bit-identical."""
        from repro.apps.conv2d import build_conv2d_automaton
        from repro.apps.kmeans import build_kmeans_automaton
        from repro.data.images import clustered_image, scene_image

        if app == "conv2d":
            image = scene_image(24, seed=0)
            build = lambda: build_conv2d_automaton(image)
        else:
            image = clustered_image(16, seed=4, clusters=3)
            build = lambda: build_kmeans_automaton(image, k=3)

        def equal(a, b):
            if isinstance(a, dict):
                return (isinstance(b, dict) and a.keys() == b.keys()
                        and all(equal(a[k], b[k]) for k in a))
            return np.array_equal(a, b)

        reference = build().precise_output()
        finals = {}
        for run in ("run_simulated", "run_threaded", "run_processes"):
            auto = build()
            kwargs = ({"total_cores": 4.0} if run == "run_simulated"
                      else {"timeout_s": 60.0})
            result = getattr(auto, run)(**kwargs)
            assert result.completed, f"{run} did not complete"
            rec = result.timeline.final_record(
                auto.terminal_buffer_name)
            finals[run] = rec.value
        for run, value in finals.items():
            assert equal(value, reference), \
                f"{run} final output != precise reference"

    def test_threaded_energy_matches_simulated(self):
        """Regression: the threaded timeline recorded 0.0 energy for
        every write, so its energy column disagreed with the simulated
        one even in shape."""
        sim_auto, _ = map_automaton()
        sim = sim_auto.run_simulated(total_cores=4.0)
        thr_auto, _ = map_automaton()
        thr = thr_auto.run_threaded(timeout_s=30.0)
        sim_energy = [r.energy for r in sim.output_records("out")]
        thr_energy = [r.energy for r in thr.output_records("out")]
        assert thr_energy, "threaded run produced no writes"
        assert all(e > 0 for e in thr_energy)
        assert thr_energy == sorted(thr_energy)
        # both complete, so the cumulative totals agree exactly
        assert thr_energy[-1] == sim_energy[-1]


class TestEmitHaltRegression:
    def test_halted_emit_stops_interpretation(self):
        """Regression: a halt during a blocked emit must stop the
        generator at the emit — not drop the update and keep pumping."""
        b_f = VersionedBuffer("F")
        b_g = VersionedBuffer("G")
        ch = UpdateChannel("F", capacity=1)

        from repro.core.diffusive import DiffusiveStage
        from repro.anytime.permutations import SequentialPermutation

        class Producer(DiffusiveStage):
            def __init__(self):
                super().__init__("f", b_f, (), shape=4,
                                 permutation=SequentialPermutation(),
                                 chunks=4, cost_per_element=1.0,
                                 emit_to=ch)

            def init_state(self, values):
                return {"total": 0}

            def process_chunk(self, state, indices, values):
                state["total"] += 1
                return 1

            def materialize(self, state, count, values):
                return state["total"]

            def precise(self, input_values):
                return 4

        producer = Producer()
        consumer = SynchronousStageStub("g", b_g, ch)
        graph = AutomatonGraph([producer, consumer])
        executor = ThreadedExecutor(graph)
        executor._t0 = time.perf_counter()

        assert ch.try_emit("fill")         # channel now at capacity
        progressed = []

        def gen():
            yield Emit("blocked-update")
            progressed.append(True)        # must never run
            yield Write(0, final=True)

        timer = threading.Timer(0.05, executor._halt_stages)
        timer.start()
        try:
            outcome = drive(gen(), None, _StageThread(executor, producer))
        finally:
            timer.cancel()
        assert outcome == "halted"
        assert progressed == []
        # the blocked update was not silently enqueued either
        assert ch.try_recv() == (True, "fill")
        assert ch.try_recv() == (False, None)


def SynchronousStageStub(name, output, channel):
    from repro.core.syncstage import SynchronousStage
    return SynchronousStage(name, output, channel,
                            initial_fn=lambda: 0,
                            update_fn=lambda acc, x: acc,
                            update_cost=lambda x: 1.0,
                            precise_fn=lambda fv: 0,
                            precise_cost=1.0)
