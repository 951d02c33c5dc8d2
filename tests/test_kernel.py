"""The command kernel: one interpreter of the seven-command protocol.

A scripted stage generator runs against a fake backend that records
every effect, so each rule of :func:`repro.core.kernel.drive` is pinned
without an executor: dispatch, command counting, suspend and resume,
and how a pump ends.  The executor tests then run real apps on all
three executors: each run must be freed by reference counting, and
single-stage apps must report the same per-stage counters from each
executor.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.core.automaton import AnytimeAutomaton
from repro.core.backends import EXECUTORS, executor_class, executor_names
from repro.core.buffer import VersionedBuffer
from repro.core.executor import ThreadedExecutor
from repro.core.faults import FaultPolicy, StageReport
from repro.core.graph import AutomatonGraph
from repro.core.kernel import (DONE, EXHAUSTED, HALTED, SUSPENDED, Kernel,
                               drive)
from repro.core.procexec import ProcessExecutor
from repro.core.simexec import SimulatedExecutor
from repro.core.stage import (CloseChannel, Compute, Emit, PollInputs,
                              PreciseStage, Recv, Stage, WaitInputs,
                              Write)

pytestmark = pytest.mark.timeout(120)


class FakeStage:
    name = "s"


class FakeBackend:
    """Logs each effect as ``(effect, argument)`` and answers from
    ``replies`` (default None, like a write or a compute)."""

    def __init__(self, replies=None, live=True):
        self.stage = FakeStage()
        self.report = StageReport(stage="s")
        self.replies = dict(replies or {})
        self.calls = []
        self._live = live

    def live(self):
        return self._live

    def _effect(self, name, arg=None):
        self.calls.append((name, arg))
        return self.replies.get(name)

    def compute(self, cmd):
        return self._effect("compute", cmd.cost)

    def write(self, cmd):
        return self._effect("write", cmd.value)

    def wait_inputs(self, seen):
        return self._effect("wait_inputs", seen)

    def poll_inputs(self, seen):
        return self._effect("poll_inputs", seen)

    def emit(self, update):
        return self._effect("emit", update)

    def close_channel(self):
        return self._effect("close_channel")

    def recv(self):
        return self._effect("recv")


def scripted(commands, received):
    """A stage generator: yields ``commands`` in order and logs every
    reply the kernel sends back."""
    for cmd in commands:
        received.append((yield cmd))


class TestDispatch:
    def test_each_command_reaches_its_effect(self):
        backend = FakeBackend(replies={"wait_inputs": {"in": "snap"},
                                       "poll_inputs": True,
                                       "recv": "update"})
        received = []
        commands = [WaitInputs({"in": 0}), PollInputs({"in": 1}),
                    Compute(2.0), Write("v1"), Emit("x"), CloseChannel(),
                    Recv()]
        outcome = drive(scripted(commands, received), None, backend)
        assert outcome == DONE
        assert backend.calls == [
            ("wait_inputs", {"in": 0}), ("poll_inputs", {"in": 1}),
            ("compute", 2.0), ("write", "v1"), ("emit", "x"),
            ("close_channel", None), ("recv", None)]
        assert received == [{"in": "snap"}, True, None, None, None, None,
                            "update"]
        assert backend.report.commands == len(commands)

    def test_unknown_command_raises_type_error_naming_the_stage(self):
        backend = FakeBackend()
        gen = scripted(["not a command"], [])
        with pytest.raises(TypeError, match="stage 's'.*unknown command"):
            drive(gen, None, backend)
        assert gen.gi_frame is None, "a failed attempt is closed"

    def test_effect_error_closes_the_generator_and_propagates(self):
        class Frozen(FakeBackend):
            def write(self, cmd):
                raise ValueError("buffer 'out' is final")

        backend = Frozen()
        gen = scripted([Write(1), Write(2)], [])
        with pytest.raises(ValueError, match="final"):
            drive(gen, None, backend)
        assert gen.gi_frame is None
        assert backend.report.commands == 1


class TestSuspendAndResume:
    def test_suspended_stage_resumes_with_the_delivered_value(self):
        backend = FakeBackend(replies={"wait_inputs": SUSPENDED})
        received = []
        gen = scripted([WaitInputs({}), Write("after")], received)
        assert drive(gen, None, backend) == SUSPENDED
        assert gen.gi_frame is not None, "a suspended stage stays open"
        assert received == []
        assert drive(gen, {"in": "delivered"}, backend) == DONE
        assert received == [{"in": "delivered"}, None]
        assert backend.report.commands == 2

    def test_resuming_with_exhausted_ends_the_attempt(self):
        backend = FakeBackend(replies={"wait_inputs": SUSPENDED})
        received = []
        gen = scripted([WaitInputs({}), Write("never")], received)
        assert drive(gen, None, backend) == SUSPENDED
        assert drive(gen, EXHAUSTED, backend) == EXHAUSTED
        assert received == [] and gen.gi_frame is None
        assert backend.calls == [("wait_inputs", {})]

    def test_an_effect_may_end_the_pump(self):
        backend = FakeBackend(replies={"emit": HALTED})
        received = []
        gen = scripted([Emit("blocked"), Write("never")], received)
        assert drive(gen, None, backend) == HALTED
        assert received == [] and gen.gi_frame is None


class TestEnds:
    def test_stop_iteration_is_done(self):
        backend = FakeBackend()
        assert drive(scripted([], []), None, backend) == DONE
        assert backend.report.commands == 0

    def test_a_halted_run_pumps_nothing(self):
        backend = FakeBackend(live=False)
        gen = scripted([Write(1)], [])
        assert drive(gen, None, backend) == HALTED
        assert backend.calls == [] and gen.gi_frame is None


class _Idle(Kernel):
    EXECUTOR = "test"

    def request_stop(self):
        self.stop_requested = True


def test_a_halting_run_degrades_instead_of_restarting():
    out = VersionedBuffer("out")
    stage = PreciseStage("s", out, (), lambda: 1, cost=1.0)
    kernel = _Idle(AutomatonGraph([stage]), stop=None, watch=None,
                   faults=FaultPolicy(on_failure="restart", max_retries=3),
                   injector=None, strict=False, trace=None,
                   trace_metric=None, trace_reference=None, resume=None)
    assert kernel.on_failure(stage, RuntimeError("a"))[0] == "restart"
    action, _ = kernel.on_failure(stage, RuntimeError("b"), halting=True)
    assert action == "degrade"
    assert kernel.reports["s"].degraded and out.sealed


def test_negative_energy_is_rejected_at_the_command():
    with pytest.raises(ValueError, match="energy"):
        Compute(1.0, energy=-1.0)


@pytest.mark.parametrize("executor", [SimulatedExecutor, ThreadedExecutor,
                                      ProcessExecutor])
def test_a_finished_run_is_freed_by_reference_counting(executor):
    """Backends point back at their executor, never the other way: a
    cycle would keep every finished run (graph, buffer versions,
    timeline values) alive until the cyclic collector ran, and a
    serving worker's memory would grow with its request rate."""
    spec = get_app("histeq")
    auto = spec.build(spec.make_input(24, 1))
    gc.collect()
    gc.disable()
    try:
        ex = executor(auto.graph)
        ref = weakref.ref(ex)
        result = ex.run() if executor is SimulatedExecutor \
            else ex.run(timeout_s=60.0)
        assert result.completed
        del ex, result
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("app", ["2dconv", "debayer", "dwt53"])
def test_single_stage_counters_agree_across_executors(app):
    """Every executor counts the same commands: the process backend
    counts them worker-side and must still report them."""
    spec = get_app(app)
    data = spec.make_input(32, 3)
    counters = {}
    for run, kwargs in (("run_simulated", {}),
                        ("run_threaded", {"timeout_s": 60.0}),
                        ("run_processes", {"timeout_s": 60.0})):
        result = getattr(spec.build(data), run)(**kwargs)
        assert result.completed, run
        counters[run] = {n: (r.commands, r.attempts, r.completed)
                         for n, r in result.stage_reports.items()}
    assert counters["run_threaded"] == counters["run_simulated"]
    assert counters["run_processes"] == counters["run_simulated"]


class _ChangesAfterWriting(Stage):
    """Writes one array with a plain ``Write``, then changes it in place
    and writes it again: a plain write promises nothing about the
    array afterwards."""

    def __init__(self, out):
        super().__init__("m", out, ())

    def run_once(self, snaps, inputs_final):
        value = np.zeros(4)
        yield Compute(1.0)
        yield Write(value)
        value += 1
        yield Compute(1.0)
        yield Write(value, final=True)

    def precise(self, input_values):
        return np.ones(4)

    @property
    def precise_cost(self):
        return 2.0


@pytest.mark.parametrize("run", ["run_simulated", "run_threaded",
                                 "run_processes"])
def test_timeline_records_hold_the_published_value(run):
    """A record holds the version its buffer stored, not the writer's
    array, which the writer may change after a plain write."""
    out = VersionedBuffer("out")
    auto = AnytimeAutomaton([_ChangesAfterWriting(out)])
    kwargs = {} if run == "run_simulated" else {"timeout_s": 60.0}
    result = getattr(auto, run)(watch={"out"}, **kwargs)
    assert result.completed
    records = result.output_records("out")
    assert [r.version for r in records] == [1, 2]
    assert np.array_equal(records[0].value, np.zeros(4))
    assert np.array_equal(records[1].value, np.ones(4))


@pytest.mark.parametrize("name", list(EXECUTORS))
def test_every_table_entry_runs_to_the_precise_output(name):
    """Each executor in the table reaches the precise output bit for
    bit through ``run(name)``, and each wall-clock one through
    ``launch(name)`` as well; the class it names carries that name."""
    spec = get_app("2dconv")
    image = spec.make_input(24, 0)
    backend = executor_class(name)
    assert backend.EXECUTOR == name
    auto = spec.build(image)
    result = auto.run(name, **({"timeout_s": 60.0}
                               if backend.WALL_CLOCK else {}))
    assert result.completed
    terminal = auto.terminal_buffer_name
    assert np.array_equal(result.final_values[terminal],
                          auto.precise_output())
    if backend.WALL_CLOCK:
        auto = spec.build(image)
        result = auto.launch(name).result(timeout_s=60.0)
        assert result.completed
        assert np.array_equal(result.final_values[terminal],
                              auto.precise_output())


@pytest.mark.parametrize("call", [
    lambda auto: auto.launch("simulated"),
    lambda auto: auto.run("bogus"),
], ids=["launch-virtual-time", "run-unknown"])
def test_a_name_outside_the_table_or_its_clock_names_the_table(call):
    spec = get_app("2dconv")
    auto = spec.build(spec.make_input(24, 0))
    with pytest.raises(ValueError) as err:
        call(auto)
    for name in EXECUTORS:
        assert name in str(err.value)


def test_only_the_simulator_runs_in_virtual_time_and_only_the_process_backend_holds_descriptors():
    assert executor_names(WALL_CLOCK=False) == ("simulated",)
    assert executor_names(HOLDS_VALUES=False) == ("process",)
