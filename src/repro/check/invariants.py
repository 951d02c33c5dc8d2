"""The runtime invariant checker: a trace sink that proves a run honest.

:class:`Checker` implements the :class:`~repro.core.tracing.TraceSink`
protocol, so it attaches to *any* executor — simulated, threaded,
process, or a serving-layer run — through the same ``trace=`` parameter
the observability layer already plumbs everywhere.  Every event the
executor (and the buffer/channel tracer hooks) emits is validated
against the anytime guarantees; violations are collected as structured
:class:`Violation` records, not raised mid-run (pass ``fail_fast=True``
to turn the first violation into an immediate :class:`CheckFailure`).

Checked invariants (the ``invariant`` field of each violation):

``version-order``
    Buffer versions must advance by exactly one per write — a skipped
    or regressed version means a lost or reordered publication.
``write-after-final``
    The precise output is frozen; no write may carry a version newer
    than the final one.
``write-after-seal``
    A sealed buffer (producer degraded) must never grow a new version.
``seal-once``
    Sealing is a one-shot transition; duplicate seal events mean the
    runtime misreported the buffer lifecycle.
``foreign-writer``
    Property 2: every write to a stage-owned buffer must be attributed
    to that stage (requires an ownership map — see :meth:`for_graph`).
``channel-causality``
    A consumer can never have received more updates than its producer
    emitted.
``channel-state``
    (strict order only) The queue depth reported by an emit/recv event
    must match the running emitted-received balance.
``emit-after-close``
    (strict order only) No update may be enqueued on a closed stream.
``channel-close-once``
    A channel close is a one-shot transition.
``pin-balance``
    Shared-memory slot pins and unpins must balance: an unpin of an
    unpinned slot means a consumer's snapshot could have been reused
    under it.
``accuracy-regression``
    ``accuracy.sample`` values for a buffer must be non-decreasing up
    to the buffer's tolerance (dB) — the anytime refinement contract.
    Disabled per buffer when its tolerance is None (non-monotone by
    design).
``accuracy-nan``
    The accuracy metric produced NaN — the comparison itself broke.
``span-balance``
    Every ``stage.start`` needs its ``stage.finish`` and vice versa
    (checked per event and again at :meth:`close`).
``value-mutated``
    A buffer's content changed *after* it was published — post-seal
    mutation of a supposedly immutable approximation.  Requires buffer
    references (see :meth:`for_graph` / ``hash_buffers``); detected by
    digesting values at write time and re-digesting at close with
    :func:`~repro.serve.digest.value_digest`, which reads every byte of
    every array, inside dicts and lists too.

Ordering caveat: the threaded and process executors emit events from
several threads, so cross-object event order is not causal.  The
checker therefore keys its per-buffer checks on *version numbers*
(assigned under the buffer lock — race-free) and defers channel-total
checks to :meth:`close`.  ``strict_order=True`` (right for simulated
traces, recorded single-threaded streams and tampered replays)
additionally enforces stream-order causality on channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..core.tracing import TraceEvent, TraceSink
from ..serve.digest import value_digest

__all__ = ["Violation", "CheckReport", "CheckFailure", "Checker",
           "check_events", "INVARIANTS"]

#: every invariant the checker can flag (the vocabulary of
#: ``Violation.invariant``)
INVARIANTS = (
    "version-order", "write-after-final", "write-after-seal",
    "seal-once", "foreign-writer", "channel-causality", "channel-state",
    "emit-after-close", "channel-close-once", "pin-balance",
    "accuracy-regression", "accuracy-nan", "span-balance",
    "value-mutated",
)


class CheckFailure(AssertionError):
    """Raised by ``fail_fast`` checkers and :meth:`Checker.raise_if_violations`."""

    def __init__(self, violations: list["Violation"]) -> None:
        self.violations = list(violations)
        lines = "\n".join(f"  - {v.describe()}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} anytime-invariant violation(s):\n"
            f"{lines}")


@dataclass(frozen=True)
class Violation:
    """One broken invariant, anchored to the event that revealed it."""

    invariant: str
    ts: float
    detail: str
    target: str | None = None
    stage: str | None = None
    index: int | None = None       # ordinal of the offending event

    def describe(self) -> str:
        where = f" [{self.target}]" if self.target else ""
        who = f" ({self.stage})" if self.stage else ""
        return (f"{self.invariant}{where}{who} at ts={self.ts:.6g}: "
                f"{self.detail}")

    def to_dict(self) -> dict[str, Any]:
        return {"invariant": self.invariant, "ts": self.ts,
                "detail": self.detail, "target": self.target,
                "stage": self.stage, "index": self.index}


@dataclass
class CheckReport:
    """Machine-readable outcome of one checked run."""

    ok: bool
    violations: list[Violation]
    events: int
    kind_counts: dict[str, int]
    stats: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"ok": self.ok, "events": self.events,
                "kind_counts": dict(self.kind_counts),
                "violations": [v.to_dict() for v in self.violations],
                "stats": dict(self.stats)}


@dataclass
class _BufState:
    last_version: int | None = None
    final_version: int | None = None
    seal_version: int | None = None
    seal_events: int = 0
    writes: int = 0


@dataclass
class _ChanState:
    emitted: int = 0
    received: int = 0
    closed: bool = False
    close_events: int = 0


class Checker:
    """A validating trace sink (see module docstring for the contract).

    Parameters
    ----------
    owners:
        ``{buffer_name: stage_name}`` for Property-2 attribution; writes
        to unknown buffers are only version-checked.
    tolerance_db:
        Default accuracy-regression tolerance in dB applied to every
        ``accuracy.sample`` target.  ``None`` (default) disables the
        accuracy check unless a per-buffer tolerance is given.
    tolerances:
        Per-buffer overrides; an explicit ``None`` entry exempts a
        non-monotone-by-design buffer.
    strict_order:
        Enable stream-order channel causality checks (deterministic /
        single-threaded traces only; see module docstring).
    hash_buffers:
        ``{buffer_name: VersionedBuffer}`` — snapshot and digest these
        buffers' values at every write event and re-verify the digest at
        :meth:`close`, catching post-publication mutation.
    forward:
        Optional downstream :class:`TraceSink` receiving every event
        unchanged (tee), so checking composes with recording.
    fail_fast:
        Raise :class:`CheckFailure` at the first violation instead of
        collecting.
    """

    enabled = True

    def __init__(self, owners: Mapping[str, str] | None = None,
                 tolerance_db: float | None = None,
                 tolerances: Mapping[str, float | None] | None = None,
                 strict_order: bool = False,
                 hash_buffers: Mapping[str, Any] | None = None,
                 forward: TraceSink | None = None,
                 fail_fast: bool = False) -> None:
        self.owners = dict(owners or {})
        self.tolerance_db = tolerance_db
        self.tolerances = dict(tolerances or {})
        self.strict_order = bool(strict_order)
        self.hash_buffers = dict(hash_buffers or {})
        self.forward = forward
        self.fail_fast = bool(fail_fast)
        self.violations: list[Violation] = []
        self._events = 0
        self._kinds: dict[str, int] = {}
        self._buffers: dict[str, _BufState] = {}
        self._channels: dict[str, _ChanState] = {}
        self._pins: dict[tuple[str, int], int] = {}
        self._accuracy_best: dict[str, float] = {}
        self._span_depth: dict[str, int] = {}
        self._digests: dict[str, tuple[int, str]] = {}
        self._closed = False

    @classmethod
    def for_graph(cls, graph: Any, hash_values: bool = False,
                  **kwargs: Any) -> "Checker":
        """A checker pre-wired to an automaton graph's structure.

        Derives the Property-2 ownership map from the graph's
        producers; ``hash_values=True`` additionally registers every
        stage-owned buffer for the post-publication mutation check.
        """
        owners = {s.output.name: s.name for s in graph.stages}
        hash_buffers = ({s.output.name: s.output for s in graph.stages}
                        if hash_values else None)
        return cls(owners=owners, hash_buffers=hash_buffers, **kwargs)

    def seed_resumed(self, graph: Any) -> None:
        """Prime the checker with a restored run's starting state.

        A run resumed from a checkpoint (:mod:`repro.ckpt`) starts its
        trace mid-stream: buffers already hold versions and channels may
        carry a queued backlog whose emits happened before the
        interruption.  Without seeding, the first continuation write
        would evade the +1 version-order check (first-observation is
        accepted at any version) and draining the restored backlog
        would trip ``channel-causality`` at close.  Call this after
        :meth:`~repro.core.automaton.AnytimeAutomaton.restore` and
        before launching the continuation.
        """
        for name, buffer in graph.buffers.items():
            snap = buffer.snapshot()
            if snap.version == 0:
                continue
            buf = self._buffers.setdefault(name, _BufState())
            buf.last_version = snap.version
            if snap.final and buf.final_version is None:
                buf.final_version = snap.version
            if snap.sealed and buf.seal_version is None:
                buf.seal_version = snap.version
                buf.seal_events = 1
        for name, channel in graph.channels.items():
            chan = self._channels.setdefault(name, _ChanState())
            chan.emitted = channel.emitted
            chan.received = channel.received
            chan.closed = channel.closed

    # -- TraceSink protocol ----------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        index = self._events
        self._events += 1
        self._kinds[event.kind] = self._kinds.get(event.kind, 0) + 1
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event, index)
        if self.forward is not None:
            self.forward.emit(event)

    def close(self) -> None:
        """Run the end-of-stream checks; idempotent."""
        if self._closed:
            return
        self._closed = True
        for name, chan in self._channels.items():
            if chan.received > chan.emitted:
                self._flag("channel-causality", 0.0, name, None, None,
                           f"{chan.received} update(s) received but only "
                           f"{chan.emitted} emitted")
        for stage, depth in self._span_depth.items():
            if depth != 0:
                self._flag("span-balance", 0.0, None, stage, None,
                           f"{depth} stage.start event(s) without a "
                           f"matching stage.finish at end of trace")
        for name, (version, digest) in self._digests.items():
            buffer = self.hash_buffers.get(name)
            if buffer is None:
                continue
            snap = buffer.snapshot()
            if snap.version == version and value_digest(snap.value) != digest:
                self._flag("value-mutated", 0.0, name,
                           self.owners.get(name), None,
                           f"version {version} changed content after "
                           f"publication (post-seal mutation)")
        if self.forward is not None:
            self.forward.close()

    # -- results ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> CheckReport:
        outstanding = {f"{seg}:{slot}": n
                       for (seg, slot), n in self._pins.items() if n}
        return CheckReport(
            ok=self.ok, violations=list(self.violations),
            events=self._events, kind_counts=dict(self._kinds),
            stats={
                "buffers": len(self._buffers),
                "channels": len(self._channels),
                "outstanding_pins": outstanding,
                "strict_order": self.strict_order,
            })

    def raise_if_violations(self) -> None:
        if self.violations:
            raise CheckFailure(self.violations)

    # -- internals -------------------------------------------------------

    def _flag(self, invariant: str, ts: float, target: str | None,
              stage: str | None, index: int | None, detail: str) -> None:
        violation = Violation(invariant=invariant, ts=ts, detail=detail,
                              target=target, stage=stage, index=index)
        self.violations.append(violation)
        if self.fail_fast:
            raise CheckFailure([violation])

    def _on_write(self, e: TraceEvent, i: int) -> None:
        name = e.target or "?"
        version = int(e.args.get("version", 0))
        final = bool(e.args.get("final", False))
        buf = self._buffers.setdefault(name, _BufState())
        buf.writes += 1
        if buf.last_version is not None \
                and version != buf.last_version + 1:
            self._flag("version-order", e.ts, name, e.stage, i,
                       f"version {version} after {buf.last_version} "
                       f"(must advance by exactly one)")
        buf.last_version = max(version, buf.last_version or 0)
        if buf.final_version is not None \
                and version > buf.final_version:
            self._flag("write-after-final", e.ts, name, e.stage, i,
                       f"version {version} written after final version "
                       f"{buf.final_version}")
        if buf.seal_version is not None and version > buf.seal_version:
            self._flag("write-after-seal", e.ts, name, e.stage, i,
                       f"version {version} written after seal at "
                       f"version {buf.seal_version}")
        if final:
            if buf.final_version is not None:
                self._flag("write-after-final", e.ts, name, e.stage, i,
                           f"second final write (version {version}; "
                           f"final was {buf.final_version})")
            else:
                buf.final_version = version
        owner = self.owners.get(name)
        if owner is not None and e.stage != owner:
            self._flag("foreign-writer", e.ts, name, e.stage, i,
                       f"write attributed to {e.stage!r} on a buffer "
                       f"owned by {owner!r} (Property 2)")
        buffer = self.hash_buffers.get(name)
        if buffer is not None:
            snap = buffer.snapshot()
            # keyed by the snapshot's own version: racing a newer write
            # simply records the newer version's digest
            self._digests[name] = (snap.version,
                                   value_digest(snap.value))

    def _on_seal(self, e: TraceEvent, i: int) -> None:
        name = e.target or "?"
        buf = self._buffers.setdefault(name, _BufState())
        buf.seal_events += 1
        if buf.seal_events > 1:
            self._flag("seal-once", e.ts, name, e.stage, i,
                       f"seal event #{buf.seal_events} (sealing is a "
                       f"one-shot transition)")
        version = int(e.args.get("version", buf.last_version or 0))
        if buf.seal_version is None:
            buf.seal_version = version

    def _on_emit(self, e: TraceEvent, i: int) -> None:
        name = e.target or "?"
        chan = self._channels.setdefault(name, _ChanState())
        chan.emitted += 1
        if self.strict_order:
            if chan.closed:
                self._flag("emit-after-close", e.ts, name, e.stage, i,
                           "update enqueued on a closed stream")
            queued = e.args.get("queued")
            expected = chan.emitted - chan.received
            if queued is not None and int(queued) != expected:
                self._flag("channel-state", e.ts, name, e.stage, i,
                           f"emit reports queue depth {queued}, "
                           f"running balance says {expected}")

    def _on_recv(self, e: TraceEvent, i: int) -> None:
        name = e.target or "?"
        chan = self._channels.setdefault(name, _ChanState())
        chan.received += 1
        if self.strict_order:
            if chan.received > chan.emitted:
                self._flag("channel-causality", e.ts, name, e.stage, i,
                           f"received update #{chan.received} with only "
                           f"{chan.emitted} emitted")
            queued = e.args.get("queued")
            expected = chan.emitted - chan.received
            if queued is not None and int(queued) != expected:
                self._flag("channel-state", e.ts, name, e.stage, i,
                           f"recv reports queue depth {queued}, "
                           f"running balance says {expected}")

    def _on_close(self, e: TraceEvent, i: int) -> None:
        name = e.target or "?"
        chan = self._channels.setdefault(name, _ChanState())
        if e.kind == "channel.close":
            chan.close_events += 1
            if chan.close_events > 1:
                self._flag("channel-close-once", e.ts, name, e.stage, i,
                           f"close event #{chan.close_events}")
        chan.closed = True

    def _on_pin(self, e: TraceEvent, i: int) -> None:
        key = (str(e.args.get("segment", e.target)),
               int(e.args.get("slot", -1)))
        self._pins[key] = self._pins.get(key, 0) + 1

    def _on_unpin(self, e: TraceEvent, i: int) -> None:
        key = (str(e.args.get("segment", e.target)),
               int(e.args.get("slot", -1)))
        balance = self._pins.get(key, 0)
        if balance <= 0:
            self._flag("pin-balance", e.ts, e.target, e.stage, i,
                       f"unpin of unpinned slot {key[1]} in segment "
                       f"{key[0]}")
        self._pins[key] = balance - 1

    def _on_accuracy(self, e: TraceEvent, i: int) -> None:
        name = e.target or "?"
        tol = self.tolerances.get(name, self.tolerance_db)
        if tol is None:
            return
        acc = float(e.args.get("accuracy", 0.0))
        if math.isnan(acc):
            self._flag("accuracy-nan", e.ts, name, e.stage, i,
                       "accuracy metric returned NaN")
            return
        best = self._accuracy_best.get(name)
        if best is not None and acc < best - tol:
            self._flag("accuracy-regression", e.ts, name, e.stage, i,
                       f"accuracy fell to {acc:.4g} dB from a best of "
                       f"{best:.4g} dB (tolerance {tol:g} dB)")
        if best is None or acc > best:
            self._accuracy_best[name] = acc

    def _on_start(self, e: TraceEvent, i: int) -> None:
        stage = e.stage or "?"
        self._span_depth[stage] = self._span_depth.get(stage, 0) + 1
        if self._span_depth[stage] > 1:
            self._flag("span-balance", e.ts, None, stage, i,
                       f"stage.start while {self._span_depth[stage] - 1} "
                       f"span(s) already open")

    def _on_finish(self, e: TraceEvent, i: int) -> None:
        stage = e.stage or "?"
        depth = self._span_depth.get(stage, 0)
        if depth <= 0:
            self._flag("span-balance", e.ts, None, stage, i,
                       "stage.finish without a matching stage.start")
        self._span_depth[stage] = depth - 1 if depth > 0 else 0

    _HANDLERS = {
        "buffer.write": _on_write,
        "buffer.seal": _on_seal,
        "channel.emit": _on_emit,
        "channel.recv": _on_recv,
        "channel.close": _on_close,
        "channel.abort": _on_close,
        "shm.pin": _on_pin,
        "shm.unpin": _on_unpin,
        "accuracy.sample": _on_accuracy,
        "stage.start": _on_start,
        "stage.finish": _on_finish,
    }


def check_events(events: Iterable[TraceEvent],
                 **kwargs: Any) -> CheckReport:
    """Feed a recorded event stream through a fresh strict checker.

    Recorded streams are single sequences, so ``strict_order`` defaults
    to True here (override via ``kwargs``).
    """
    kwargs.setdefault("strict_order", True)
    checker = Checker(**kwargs)
    for event in events:
        checker.emit(event)
    checker.close()
    return checker.report()
