"""Structured execution tracing for anytime automata.

The automaton's whole value proposition is the *shape* of its
accuracy-vs-time curve (paper Figures 11-20), yet a timeline of terminal
buffer writes alone cannot explain that shape: why a stage sat idle, when
a fault policy restarted it, how far the synchronous channel ran ahead.
This module makes the execution itself observable.  Both executors emit
:class:`TraceEvent` records into a pluggable :class:`TraceSink`; with no
sink attached (the default) every hook short-circuits on a single
``is None`` check, so tracing is zero-overhead when off.

Event vocabulary (the ``kind`` field):

``stage.start`` / ``stage.finish``
    One pair per stage *attempt* (restarts open a new pair).  ``finish``
    carries ``status``: ``completed``, ``degraded``, ``failed``,
    ``error`` (attempt raised), ``halted`` or ``stopped``.
``stage.restart``
    Instant marker: the fault policy restarted the stage
    (``failures``, ``delay``).
``stage.wait``
    One *span* per blocking wait, emitted at wake-up with the wait's
    start timestamp and ``dur`` — ``wait`` names what blocked:
    ``inputs``, ``recv`` or ``emit``.
``buffer.write`` / ``buffer.seal``
    Buffer publications with ``version`` and ``final``; seals mark
    graceful degradation.
``channel.emit`` / ``channel.recv`` / ``channel.close`` / ``channel.abort``
    Synchronous-pipeline stream operations (``queued`` = depth after).
``shm.pin`` / ``shm.unpin``
    Shared-memory data-plane slot lifecycle under the process executor
    (``segment``, ``slot``; ``stage`` = the consuming stage, ``target``
    = the buffer): a slot stays pinned while a consumer may still read
    its payload.  :mod:`repro.check` audits that unpins never outnumber
    pins.
``fault.injected``
    A :class:`~repro.core.faults.FaultInjector` spec fired
    (``at`` = command count, ``fault`` = kind).
``accuracy.sample``
    Accuracy of a watched buffer write against a reference, when the
    executor was given ``trace_metric``/``trace_reference`` — the raw
    material of a live accuracy-vs-time stream.
``server.*``
    Serving-layer request lifecycle (emitted by
    :class:`~repro.serve.AnytimeServer`, ``stage`` = request name; a
    run's events carry the name of its lead, the subscriber whose
    builder launched it):
    ``server.enqueue``, ``server.admit``, ``server.preempt``,
    ``server.resume``, ``server.suspend``, ``server.restore_ckpt``,
    ``server.park``, ``server.requeue``, ``server.coalesce`` (a request
    subscribed to a same-key run) and ``server.promote`` (the run's
    lead left, and the next subscriber leads it now) along the way;
    exactly one of ``server.complete``, ``server.cancel``,
    ``server.shed``, ``server.memo_hit`` or ``server.detach`` (a
    subscriber leaving a run it does not lead) when a request ends.
    Unknown kinds
    render as instants in the Chrome sink, so server events compose
    with per-run events in one trace file.

Sinks:

:class:`NullSink`       discard everything (``enabled=False``: executors
                        skip event construction entirely).
:class:`InMemorySink`   keep events in a list (tests, live dashboards).
:class:`JsonlSink`      one JSON object per line (stream processing).
:class:`ChromeTraceSink` chrome://tracing / Perfetto "Trace Event
                        Format" JSON: stages become tracks, attempts
                        become B/E duration pairs, waits become complete
                        ("X") spans, accuracy samples become counter
                        tracks.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Any, IO, Mapping, Protocol, runtime_checkable

__all__ = [
    "TraceEvent", "TraceSink", "NullSink", "InMemorySink", "JsonlSink",
    "ChromeTraceSink", "active_sink",
]


@dataclass(frozen=True)
class TraceEvent:
    """One structured execution event.

    ``ts`` is virtual work units under the simulator and wall seconds
    under the threaded executor — comparable in *shape*, not magnitude.
    ``target`` names the buffer or channel the event concerns, if any.
    """

    ts: float
    kind: str
    stage: str | None = None
    target: str | None = None
    args: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"ts": self.ts, "kind": self.kind}
        if self.stage is not None:
            out["stage"] = self.stage
        if self.target is not None:
            out["target"] = self.target
        if self.args:
            out["args"] = dict(self.args)
        return out


@runtime_checkable
class TraceSink(Protocol):
    """Where trace events go.

    Implementations must tolerate concurrent :meth:`emit` calls (the
    threaded executor emits from every stage thread).  ``enabled`` is an
    optional attribute: a sink exposing ``enabled = False`` tells the
    executor not to construct events at all (see :func:`active_sink`).
    """

    def emit(self, event: TraceEvent) -> None: ...

    def close(self) -> None: ...


def active_sink(sink: TraceSink | None) -> TraceSink | None:
    """Normalize a sink parameter: disabled sinks become None.

    Executors call this once at construction so that every per-event
    hook reduces to a single ``if sink is None`` check — the
    zero-overhead-when-off guarantee.
    """
    if sink is None or not getattr(sink, "enabled", True):
        return None
    return sink


class NullSink:
    """Discards every event; ``enabled=False`` skips construction too."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        pass

    def close(self) -> None:
        pass


class InMemorySink:
    """Collects events in order; the test and dashboard sink."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: list[TraceEvent] = []
        self.closed = False

    def emit(self, event: TraceEvent) -> None:
        with self._lock:
            self.events.append(event)

    def close(self) -> None:
        self.closed = True

    # -- query helpers ---------------------------------------------------

    def for_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_stage(self, stage: str) -> list[TraceEvent]:
        return [e for e in self.events if e.stage == stage]

    def counts(self) -> dict[str, int]:
        """``{kind: occurrences}`` over everything seen so far."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def accuracy_stream(self, target: str | None = None,
                        ) -> list[tuple[float, float]]:
        """The accuracy-vs-time event stream: ``[(ts, accuracy), ...]``."""
        return [(e.ts, e.args["accuracy"])
                for e in self.events
                if e.kind == "accuracy.sample"
                and (target is None or e.target == target)]


def _json_safe(obj: Any) -> Any:
    """Strict-JSON-serializable view: non-finite floats become strings.

    ``json.dumps`` would happily write ``Infinity``, which strict
    parsers (including chrome://tracing's) reject — and accuracy metrics
    like SNR legitimately produce ``inf`` at the precise output.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, Mapping):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


class JsonlSink:
    """Writes one JSON object per event line (stream-processable).

    Accepts a path (opened and owned; closed by :meth:`close`) or any
    writable text file object (borrowed; flushed but left open).
    """

    enabled = True

    def __init__(self, path_or_file: str | IO[str]) -> None:
        self._lock = threading.Lock()
        if isinstance(path_or_file, str):
            self._file: IO[str] = open(path_or_file, "w",
                                       encoding="utf-8")
            self._owns = True
        else:
            self._file = path_or_file
            self._owns = False
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        line = json.dumps(_json_safe(event.to_dict()), default=str)
        with self._lock:
            self._file.write(line + "\n")
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            self._file.flush()
            if self._owns and not self._file.closed:
                self._file.close()


#: instant-event scope: thread-scoped markers render as small arrows
_INSTANT_SCOPE = "t"

#: clamp for non-finite accuracy counter values (chrome counters must
#: be finite numbers; an SNR of inf means "precise output reached")
ACCURACY_COUNTER_CAP = 1e9


class ChromeTraceSink:
    """Exports the run as Trace Event Format JSON for chrome://tracing.

    Each stage gets its own ``tid`` track; attempts are B/E duration
    pairs named after the stage, waits are complete ("X") spans,
    buffer/channel/fault events are instants, and accuracy samples
    become counter ("C") tracks plottable directly in the viewer.

    ``time_scale`` converts event timestamps to the format's
    microseconds: the default ``1e6`` treats them as seconds (right for
    the threaded executor); for simulated runs any positive scale works
    because the viewer only shows relative time.

    Events are buffered and written sorted by ``ts`` on :meth:`close`
    (threaded emission order is not monotonic across threads).
    """

    enabled = True

    def __init__(self, path_or_file: str | IO[str],
                 time_scale: float = 1e6) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale}")
        self._lock = threading.Lock()
        self._path_or_file = path_or_file
        self.time_scale = float(time_scale)
        self._raw: list[TraceEvent] = []
        self._tids: dict[str, int] = {}
        self.closed = False

    def emit(self, event: TraceEvent) -> None:
        with self._lock:
            self._raw.append(event)

    def _tid(self, stage: str | None) -> int:
        if stage is None:
            return 0
        if stage not in self._tids:
            self._tids[stage] = len(self._tids) + 1
        return self._tids[stage]

    def _convert(self, e: TraceEvent) -> dict[str, Any]:
        base: dict[str, Any] = {
            "pid": 1, "tid": self._tid(e.stage),
            "ts": e.ts * self.time_scale,
            "args": dict(e.args),
        }
        if e.target is not None:
            base["args"]["target"] = e.target
        if e.kind == "stage.start":
            base.update(ph="B", name=e.stage, cat="stage")
        elif e.kind == "stage.finish":
            base.update(ph="E", name=e.stage, cat="stage")
        elif e.kind == "stage.wait":
            dur = float(e.args.get("dur", 0.0))
            base.update(ph="X", cat="wait",
                        name=f"wait:{e.args.get('wait', '?')}",
                        dur=dur * self.time_scale)
        elif e.kind == "accuracy.sample":
            base.update(ph="C", cat="accuracy",
                        name=f"accuracy:{e.target}")
            # counter tracks must stay numeric: clamp the legitimate
            # infinities (e.g. SNR of the precise output) to a cap
            acc = float(e.args.get("accuracy", 0.0))
            if not math.isfinite(acc):
                acc = math.copysign(ACCURACY_COUNTER_CAP, acc)
            base["args"] = {"accuracy": acc}
        else:
            base.update(ph="i", s=_INSTANT_SCOPE, cat="event",
                        name=e.kind)
        return base

    def trace_events(self) -> list[dict[str, Any]]:
        """The converted, ts-sorted Trace Event Format records."""
        with self._lock:
            raw = sorted(self._raw, key=lambda e: e.ts)
            # stable track numbering: assign tids in stage-start order
            for e in raw:
                if e.stage is not None:
                    self._tid(e.stage)
            converted = [self._convert(e) for e in raw]
            names = [
                {"ph": "M", "pid": 1, "tid": tid,
                 "name": "thread_name", "args": {"name": stage}}
                for stage, tid in self._tids.items()
            ]
            return names + converted

    def close(self) -> None:
        if self.closed:
            return
        payload = _json_safe({"traceEvents": self.trace_events(),
                              "displayTimeUnit": "ms"})
        if isinstance(self._path_or_file, str):
            with open(self._path_or_file, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, default=str)
        else:
            json.dump(payload, self._path_or_file, default=str)
        self.closed = True


def make_sink(path: str, fmt: str = "chrome") -> TraceSink:
    """Build a file sink from a CLI-style (path, format) pair."""
    if fmt == "jsonl":
        return JsonlSink(path)
    if fmt == "chrome":
        return ChromeTraceSink(path)
    raise ValueError(
        f"unknown trace format {fmt!r}; expected 'jsonl' or 'chrome'")


__all__.append("make_sink")
