"""The user-facing Anytime Automaton.

Composes a stage graph with executors, the baseline reference, stop
conditions and profile generation — the one object an application builder
hands to a user.  Typical flow::

    automaton = build_conv2d_automaton(image)      # an AnytimeAutomaton
    result = automaton.run_simulated(total_cores=32)
    profile = automaton.profile(result)            # Figure-11-style curve

or interactively::

    stop = ManualStop()
    result = automaton.run("threaded", stop=stop)  # stop.stop() any time

``run(executor, **options)`` and ``launch(executor, **options)`` pick a
backend by its name in :data:`~repro.core.backends.EXECUTORS`; the
``run_*``/``launch_*`` methods are the same calls with the name spelled
in.
"""

from __future__ import annotations

from typing import Any, Callable

from ..metrics.profiles import RuntimeAccuracyProfile
from ..metrics.snr import snr_db
from .backends import executor_class, executor_names
from .executor import RunHandle, ThreadedResult
from .graph import AutomatonGraph
from .simexec import SimResult
from .stage import Stage

__all__ = ["AnytimeAutomaton"]


class AnytimeAutomaton:
    """An approximate application organized as an anytime pipeline.

    Parameters
    ----------
    stages:
        The computation stages (each owning its output buffer).
    name:
        Application name, used in reports.
    external:
        Values for buffers no stage produces (the application input
        data); they are written to those buffers as final version 1.

    An automaton instance is **single-use**: buffers carry versions and
    stages carry generator state, so each execution needs a freshly built
    automaton (application modules expose ``build_*`` functions for
    exactly this reason).  Attempting a second run raises.
    """

    def __init__(self, stages: list[Stage], name: str = "automaton",
                 external: dict[str, Any] | None = None) -> None:
        self.name = name
        self.graph = AutomatonGraph(stages)
        self.external = dict(external or {})
        for bname, value in self.external.items():
            buffer = self.graph.buffers.get(bname)
            if buffer is None:
                raise ValueError(
                    f"external value for unknown buffer {bname!r}")
            if self.graph.producer_of(bname) is not None:
                raise ValueError(
                    f"buffer {bname!r} is produced by a stage; it cannot "
                    f"be external input")
            if buffer.version == 0:
                buffer.write(value, final=True)
        for bname, buffer in self.graph.buffers.items():
            if self.graph.producer_of(bname) is None \
                    and buffer.version == 0:
                raise ValueError(
                    f"buffer {bname!r} has no producer and no external "
                    f"value")
        self._precise_cache: dict[str, Any] | None = None
        self._ran = False
        #: optional ``{"app": ..., "size": ..., "seed": ...}`` record
        #: stamped into checkpoint headers so :meth:`restore` can
        #: rebuild the graph via the app registry without a builder
        self.app_spec: dict[str, Any] | None = None
        self._resume_info: Any = None

    # -- checkpoint / restore (repro.ckpt) -------------------------------

    @classmethod
    def restore(cls, checkpoint: str | dict[str, Any],
                builder: Callable[[], "AnytimeAutomaton"] | None = None,
                ) -> "AnytimeAutomaton":
        """Rebuild an automaton from a checkpoint.

        ``checkpoint`` is a checkpoint file's path, or a payload already
        loaded from one (a fleet router ships it inline).  The graph is
        rebuilt — by ``builder`` when given, else via the app registry
        from the ``app_spec`` stamped into the checkpoint header — and
        the checkpoint's reply log is replayed on it
        (:func:`repro.ckpt.replay`): the stage generators re-run up to
        the capture, so buffers, channels, energy, reports and
        stop-condition progress stand where they stood.  The returned
        automaton is ready to :meth:`run` or :meth:`launch` on **any**
        backend, regardless of which executor took the checkpoint; the
        continuation's published versions are bit-exact with the
        uninterrupted run.
        """
        from ..ckpt.format import CheckpointError, load_checkpoint
        from ..ckpt.state import replay

        if isinstance(checkpoint, dict):
            header, payload = {}, checkpoint
        else:
            header, payload = load_checkpoint(checkpoint)
        if builder is not None:
            automaton = builder()
        else:
            spec_info = header.get("app_spec")
            if not spec_info:
                raise CheckpointError(
                    "checkpoint carries no app spec; pass builder= to "
                    "rebuild its graph")
            from ..apps.registry import get_app

            app = get_app(str(spec_info["app"]))
            data = app.make_input(int(spec_info.get("size", 64)),
                                  int(spec_info.get("seed", 0)))
            automaton = app.build(data)
            automaton.app_spec = dict(spec_info)
        automaton._resume_info = replay(automaton.graph, payload)
        automaton.name = str(payload.get("name", automaton.name))
        return automaton

    @property
    def resumed(self) -> bool:
        """True when this automaton was built by :meth:`restore`."""
        return self._resume_info is not None

    # -- references ------------------------------------------------------

    @property
    def terminal_buffer_name(self) -> str:
        return self.graph.terminal_buffer().name

    def precise_values(self) -> dict[str, Any]:
        """Precise value of every buffer (cached; the baseline result)."""
        if self._precise_cache is None:
            self._precise_cache = self.graph.run_precise(self.external)
        return self._precise_cache

    def precise_output(self) -> Any:
        """The application's precise output (the figures' reference)."""
        return self.precise_values()[self.terminal_buffer_name]

    def baseline_cost(self) -> float:
        """Work units of the baseline precise execution.

        The baseline runs the stages back to back (dependences serialize
        them), each using all cores, so its virtual duration at C cores
        is ``baseline_cost() / C``.
        """
        return self.graph.baseline_cost()

    def baseline_duration(self, total_cores: float = 32.0) -> float:
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        return self.baseline_cost() / total_cores

    # -- execution ---------------------------------------------------------

    def run(self, executor: str, **options: Any) -> Any:
        """Run on the executor called ``executor`` until completion, a
        stop condition or ``timeout_s``; returns its result.

        ``executor`` names an entry of
        :data:`~repro.core.backends.EXECUTORS`; ``options`` are that
        class's keywords (``stop``, ``watch``, ``faults``, ``injector``,
        ``strict``, ``trace``, ``trace_metric``, ``trace_reference``;
        ``total_cores``, ``schedule``, ``dynamic_shares`` and
        ``checkpoint_at_stop`` on the simulator), plus ``timeout_s`` on
        a wall-clock executor.  ``faults``/``injector``/``strict``
        configure the fault-tolerance runtime (see
        :mod:`repro.core.faults`); ``trace``/``trace_metric``/
        ``trace_reference`` the observability layer (see
        :mod:`repro.core.tracing`).
        """
        cls = executor_class(executor)
        timeout = ({"timeout_s": options.pop("timeout_s")}
                   if cls.WALL_CLOCK and "timeout_s" in options else {})
        return self._start(cls, options).run(**timeout)

    def launch(self, executor: str, **options: Any) -> RunHandle:
        """Start a wall-clock run without blocking; returns a
        :class:`~repro.core.executor.RunHandle`.

        The preemptible form of :meth:`run`: the caller (e.g. the
        :mod:`repro.serve` scheduler) owns the run loop — it can pause,
        resume, stop, checkpoint and collect the run at any moment, and
        the output buffer always holds a valid approximation.
        """
        cls = executor_class(executor)
        if not cls.WALL_CLOCK:
            raise ValueError(
                f"executor {executor!r} runs in virtual time and cannot "
                f"be launched; launch one of "
                f"{', '.join(executor_names(WALL_CLOCK=True))}")
        return self._start(cls, options).launch()

    def _start(self, cls: Any, options: dict[str, Any]) -> Any:
        """Build this single-use automaton's executor and claim it; an
        option the executor rejects leaves the automaton unclaimed."""
        if self._ran:
            raise RuntimeError(
                f"automaton {self.name!r} was already executed; build a "
                f"fresh one per run")
        executor = cls(self.graph, resume=self._resume_info, **options)
        self._ran = True
        # checkpoint identity, stamped into checkpoint headers
        executor.run_name = self.name
        executor.app_spec = self.app_spec
        return executor

    def run_simulated(self, **options: Any) -> SimResult:
        """Deterministic virtual-time execution (the evaluation path).

        ``dynamic_shares=True`` turns the policy's shares into weights
        for generalized processor sharing: idle stages donate their
        cores (paper IV-C2's dynamic thread reassignment).
        """
        return self.run("simulated", **options)

    def run_threaded(self, **options: Any) -> ThreadedResult:
        """Wall-clock execution on real threads (the interactive path)."""
        return self.run("threaded", **options)

    def run_processes(self, **options: Any) -> ThreadedResult:
        """Wall-clock execution on one process per stage (true
        parallelism): stages run in forked workers that exchange ndarray
        payloads through shared-memory slabs (see
        :mod:`repro.core.procexec`).  Requires the ``fork`` start
        method (POSIX)."""
        return self.run("process", **options)

    def launch_threaded(self, **options: Any) -> RunHandle:
        """:meth:`launch` on real threads."""
        return self.launch("threaded", **options)

    def launch_processes(self, **options: Any) -> RunHandle:
        """:meth:`launch` on one process per stage."""
        return self.launch("process", **options)

    # -- analysis -----------------------------------------------------------

    def profile(self, result: SimResult,
                total_cores: float = 32.0,
                metric: Callable[[Any, Any], float] | None = None,
                reference: Any = None,
                label: str | None = None) -> RuntimeAccuracyProfile:
        """Runtime-accuracy profile of a simulated run.

        Runtime is normalized to the baseline precise duration at the
        same core count; accuracy defaults to SNR dB against the precise
        output.
        """
        reference = (self.precise_output() if reference is None
                     else reference)
        metric = metric or snr_db
        return result.timeline.profile(
            self.terminal_buffer_name, reference,
            baseline_cost=self.baseline_duration(total_cores),
            label=label if label is not None else self.name,
            metric=metric)
