"""A checkpoint is the run's reply log; restore replays it (repro.ckpt).

A stage is pure (paper Property 1), so its command stream is a function
of the replies it receives.  The only things a run decides by timing
are which input version each wait or poll returned, whether a channel
had an update or room, and what the fault policy did.  The kernel logs
exactly those (:attr:`repro.core.kernel.Kernel.log`), one event per
effect, each appended under the lock that applies the effect::

    (stage, "w", version, final, time, energy)   a publish
    (stage, "r", [versions] | None)              a wait reply (None: EXHAUSTED)
    (stage, "p", newer)                          a poll reply
    (stage, "e", enqueued)                       an emit
    (stage, "v", got)                            a recv (0: the stream's end)
    (stage, "c")                                 a channel close
    (stage, "d", outcome)                        a finish (done, exhausted)
    (stage, "f", action)                         a fault-policy action

A checkpoint is a copy of that log plus reports, energy, stop progress
and duration.  :func:`replay` re-drives fresh stage generators through
:func:`~repro.core.kernel.drive` in log order with a silent, sequential
backend — no sink, no energy charge, no counts — and raises
:class:`CheckpointError` the moment a replayed publish or reply
disagrees with the log.  What it leaves behind is the graph's buffers
and channels as they were at the capture, and each live stage's
generator with the reply it is owed; an executor continues those.

What a checkpoint deliberately does **not** carry:

* Executor identity — a checkpoint captured on the process executor
  restores onto the simulated, threaded, or process backend.
* Fault-injector counters — an injector is a test harness bound to one
  run; the resumed run takes a fresh one (or none).
* Compute since a stage's last logged effect — the continuation redoes
  it, so energy for those few commands is charged twice.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any

from ..core.channel import ChannelClosed
from ..core.controller import (AccuracyTarget, AnyOf, FailureBudget,
                               StopCondition, VersionCountStop)
from ..core.faults import StageReport
from ..core.graph import AutomatonGraph
from ..core.kernel import (DONE, EXHAUSTED, SUSPENDED, drive, final_lands,
                           inputs_newer, inputs_ready, seal_stage)
from ..core.recording import Timeline, WriteRecord
from ..core.stage import CHANNEL_END, Stage
from .format import CheckpointError, write_checkpoint

__all__ = ["ResumeInfo", "capture_stop", "restore_stop", "check_payload",
           "summarize", "save_checkpoint", "replay"]


# ---------------------------------------------------------------------------
# Stop-condition progress


def capture_stop(stop: StopCondition | None) -> dict[str, Any] | None:
    """Progress counters of a stop condition, type-dispatched.

    Stateless conditions (deadline, energy budget, manual) need nothing:
    energy carries over via the checkpoint's energy field and deadlines
    are per-segment wall budgets.  Stateful ones record their counters
    so e.g. a ``VersionCountStop(12)`` interrupted after 7 versions
    fires after 5 more on the resumed run, not 12.
    """
    if stop is None:
        return None
    if isinstance(stop, AnyOf):
        return {"kind": "any_of",
                "parts": [capture_stop(c) for c in stop.conditions]}
    if isinstance(stop, VersionCountStop):
        return {"kind": "version_count", "seen": stop._seen}
    if isinstance(stop, AccuracyTarget):
        return {"kind": "accuracy", "last_score": stop.last_score}
    if isinstance(stop, FailureBudget):
        return {"kind": "failure_budget", "seen": stop.failures}
    return {"kind": "stateless"}


def restore_stop(stop: StopCondition | None,
                 data: dict[str, Any] | None) -> None:
    """Re-apply captured progress onto a freshly built stop condition.

    Tolerant of shape mismatch — the resuming caller may supply a
    different (or no) stop condition; only matching kinds are seeded.
    """
    if stop is None or data is None:
        return
    kind = data.get("kind")
    if isinstance(stop, AnyOf) and kind == "any_of":
        for cond, part in zip(stop.conditions, data.get("parts") or ()):
            restore_stop(cond, part)
    elif isinstance(stop, VersionCountStop) and kind == "version_count":
        stop._seen = int(data.get("seen", 0))
    elif isinstance(stop, AccuracyTarget) and kind == "accuracy":
        stop.last_score = data.get("last_score")
    elif isinstance(stop, FailureBudget) and kind == "failure_budget":
        with stop._lock:
            stop._seen = int(data.get("seen", 0))


# ---------------------------------------------------------------------------
# Payload (kernel -> checkpoint)

#: the payload fields and the JSON types they must have
_FIELDS = {"stages": dict, "log": list, "reports": dict,
           "energy": (int, float), "duration": (int, float),
           "stop": (dict, type(None))}


def check_payload(payload: Any) -> None:
    """Raise ``TypeError`` unless ``payload`` has the payload's shape:
    an object whose stage map, log, reports, energy, duration and stop
    progress have their JSON types (events themselves are checked by
    :func:`replay`).
    """
    if not isinstance(payload, dict):
        raise TypeError(f"checkpoint payload is a "
                        f"{type(payload).__name__}, not an object")
    for key, kind in _FIELDS.items():
        if not isinstance(payload.get(key), kind) \
                or isinstance(payload.get(key), bool):
            raise TypeError(f"checkpoint field {key!r} is missing or "
                            f"of the wrong type")


def _ended(log: list) -> set[str]:
    """Stages the log shows terminal: finished, or failed for good."""
    return {event[0] for event in log if event[1] == "d"
            or (event[1] == "f" and event[2] != "restart")}


def summarize(payload: dict[str, Any]) -> dict[str, Any]:
    """The header summary: energy, duration, event count per stage,
    the stages still live and each stage output's last logged version."""
    stages: dict[str, str] = payload["stages"]
    log = payload["log"]
    events = {name: 0 for name in stages}
    versions: dict[str, int] = {}
    for event in log:
        events[event[0]] = events.get(event[0], 0) + 1
        if event[1] == "w":
            versions[stages[event[0]]] = event[2]
    ended = _ended(log)
    return {
        "energy": payload["energy"],
        "duration": payload["duration"],
        "events": events,
        "live_stages": sorted(n for n in stages if n not in ended),
        "buffer_versions": versions,
    }


def save_checkpoint(path: str, payload: dict[str, Any],
                    app_spec: dict[str, Any] | None = None) -> str:
    """Write a payload with a summary header; returns the digest."""
    header = {
        "name": payload.get("name"),
        "executor": payload.get("executor"),
        "app_spec": app_spec,
        "wall_time": time.time(),
        "summary": summarize(payload),
    }
    return write_checkpoint(path, payload, header)


# ---------------------------------------------------------------------------
# Restore (checkpoint -> replayed graph)


@dataclass
class ResumeInfo:
    """What an executor needs beyond the replayed graph to continue.

    ``replayed`` maps each live stage to its ``(generator, pending
    reply)`` pair, which the stage's first attempt continues
    (:func:`~repro.core.kernel.open_body`).  ``finished`` names the
    stages the log shows terminal: they are not relaunched.  ``log`` is
    the replayed log, which the resumed run extends, and ``prefix`` its
    publishes as a timeline, which the resumed result's ladder starts
    with.
    """

    log: list = field(default_factory=list)
    replayed: dict[str, tuple] = field(default_factory=dict)
    finished: set[str] = field(default_factory=set)
    energy: float = 0.0
    duration: float = 0.0
    reports: dict[str, StageReport] = field(default_factory=dict)
    stop: dict[str, Any] | None = None
    prefix: Timeline = field(default_factory=Timeline)

    def seed_reports(self, names: list[str]) -> dict[str, StageReport]:
        """Reports for a resumed run: checkpointed counters where
        available, fresh ones elsewhere."""
        out = {}
        for n in names:
            prior = self.reports.get(n)
            out[n] = (StageReport(**{**asdict(prior)})
                      if prior is not None else StageReport(stage=n))
        return out


class _Replay:
    """One stage's generator re-driven by :func:`drive`: the silent
    backend.  Compute charges nothing; every logged command suspends
    the pump with the command kept, for :func:`replay` to match against
    the next event of this stage."""

    def __init__(self, stage: Stage) -> None:
        self.stage = stage
        self.report = StageReport(stage=stage.name)   # drive counts here
        self.gen = stage.body()
        self.reply: Any = None       # owed to the generator, not yet sent
        self.kind = ""               # the logged command it stands at
        self.arg: Any = None
        self.ended = False

    def live(self) -> bool:
        return True

    def _park(self, kind: str, arg: Any = None) -> Any:
        self.kind, self.arg = kind, arg
        return SUSPENDED

    def compute(self, cmd: Any) -> None:
        return None

    def write(self, cmd: Any) -> Any:
        return self._park("w", cmd)

    def wait_inputs(self, seen: dict[str, int]) -> Any:
        return self._park("r", seen)

    def poll_inputs(self, seen: dict[str, int]) -> Any:
        return self._park("p", seen)

    def emit(self, update: Any) -> Any:
        return self._park("e", update)

    def close_channel(self) -> Any:
        return self._park("c")

    def recv(self) -> Any:
        return self._park("v")

    def advance(self) -> str:
        """Send the owed reply and pump to the next logged command (or
        the generator's end); returns :func:`drive`'s outcome."""
        reply, self.reply = self.reply, None
        self.kind = ""
        return drive(self.gen, reply, self)

    def end(self) -> None:
        self.gen.close()
        self.ended = True
        seal_stage(self.stage)


def _mismatch(event: Any, detail: str) -> CheckpointError:
    return CheckpointError(f"replay disagrees with the log at event "
                           f"{event!r}: {detail}")


def _step(rs: _Replay, event: Any, prefix: Timeline) -> None:
    """Replay one event of ``rs``'s stage; raise on disagreement."""
    stage, kind = rs.stage, event[1]
    if rs.ended:
        raise _mismatch(event, f"stage {stage.name!r} already ended")
    if kind == "f":
        if event[2] == "restart":
            rs.gen.close()
            rs.gen, rs.reply = stage.body(), None
        else:
            rs.end()
        return
    outcome = rs.advance()
    if kind == "d":
        if outcome not in (DONE, EXHAUSTED) or outcome != event[2]:
            raise _mismatch(event, f"stage {stage.name!r} is at "
                            f"{rs.kind or outcome!r}")
        rs.end()
        return
    if outcome != SUSPENDED or rs.kind != kind:
        raise _mismatch(event, f"stage {stage.name!r} is at "
                        f"{rs.kind or outcome!r}")
    if kind == "w":
        cmd = rs.arg
        final = final_lands(stage, cmd.final)
        version = stage.output.write(cmd.value, final, writer=stage.name,
                                     transfer=cmd.transfer)
        if [version, int(final)] != list(event[2:4]):
            raise _mismatch(event, f"published version {version}, "
                            f"final={final}")
        prefix.add(WriteRecord(float(event[4]), stage.output.name,
                               version, final, float(event[5])))
    elif kind == "r":
        reply = inputs_ready(stage, rs.arg)
        got = (None if reply is EXHAUSTED else "nothing" if reply is None
               else [s.version for s in reply.values()])
        if got != event[2]:
            raise _mismatch(event, f"the inputs answer {got!r}")
        rs.reply = reply
    elif kind == "p":
        rs.reply = inputs_newer(stage, rs.arg)
        if int(rs.reply) != event[2]:
            raise _mismatch(event, f"the poll answers {rs.reply}")
    elif kind == "e":
        channel = stage.emit_to
        sent = (channel.try_emit(rs.arg) if event[2]
                else channel.closed)
        if not sent:
            raise _mismatch(event, f"channel {channel.name!r} cannot "
                            f"take the update")
    elif kind == "v":
        try:
            got, rs.reply = stage.channel.try_recv()
        except ChannelClosed:
            got, rs.reply = True, CHANNEL_END
        if not got or int(rs.reply is not CHANNEL_END) != event[2]:
            raise _mismatch(event, "the channel answers otherwise")
    else:   # "c"
        stage.emit_to.close()


def replay(graph: AutomatonGraph, payload: Any) -> ResumeInfo:
    """Re-drive a freshly built graph through a checkpoint's log.

    The graph must have the captured one's stages and outputs; any
    disagreement — a stage the graph lacks, a publish at another
    version, a reply the replayed inputs would not give — raises
    :class:`CheckpointError`, and the graph is then unusable.
    """
    try:
        check_payload(payload)
    except TypeError as exc:
        raise CheckpointError(str(exc)) from exc
    stages = {s.name: s for s in graph.stages}
    if payload["stages"] != {n: s.output.name for n, s in stages.items()}:
        raise CheckpointError(
            f"checkpoint stages {sorted(payload['stages'])} do not match "
            f"the graph's {sorted(stages)}")
    replays = {n: _Replay(s) for n, s in stages.items()}
    prefix = Timeline()
    log = payload["log"]
    try:
        for event in log:
            if not isinstance(event, (list, tuple)) or len(event) < 2:
                raise _mismatch(event, "not an event")
            rs = replays.get(event[0])
            if rs is None:
                raise _mismatch(event, "no such stage in the graph")
            _step(rs, event, prefix)
        reports = {n: StageReport(**rep)
                   for n, rep in payload["reports"].items()}
        log = list(log)
        for name, rs in replays.items():
            if not rs.ended and rs.reply is EXHAUSTED:
                # captured between an EXHAUSTED reply and the finish
                # that follows it: finish the stage here, as the
                # kernel would have
                event = (name, "d", str(EXHAUSTED))
                _step(rs, event, prefix)
                log.append(event)
                reports.setdefault(name, StageReport(stage=name))
                reports[name].degraded = True
    except CheckpointError:
        raise
    except Exception as exc:   # a malformed event, or a stage raising
        raise CheckpointError(f"replay failed: {exc!r}") from exc
    return ResumeInfo(
        log=log,
        replayed={n: (rs.gen, rs.reply) for n, rs in replays.items()
                  if not rs.ended},
        finished={n for n, rs in replays.items() if rs.ended},
        energy=float(payload["energy"]),
        duration=float(payload["duration"]),
        reports=reports, stop=payload.get("stop"), prefix=prefix)
