"""Fleet data plane: the wire protocol and the worker process.

A serving fleet is a front-end :class:`~repro.serve.router.FleetRouter`
plus N workers.  Each worker runs one
:class:`~repro.serve.server.AnytimeServer` behind a TCP socket — forked
by the router or launched elsewhere (:mod:`repro.serve.transport`) —
and serves it from one asyncio loop, speaking a length-prefixed JSON
protocol (4-byte big-endian length + UTF-8 JSON object).  Requests are
*declarative* — ``(app, size, seed, SLO)`` — never closures, so the
router can re-dispatch one verbatim to a different worker when its home
worker dies: building the automaton from the spec is idempotent and the
anytime model makes any re-run's sealed versions equally valid answers.

Worker-bound ops: ``submit`` ``stats`` ``shutdown``.  A ``submit``
that migrates a suspended run carries the run's checkpoint payload
inline as its ``resume`` object — a reply log of names and numbers
(:mod:`repro.ckpt`), so migration never assumes a shared filesystem and
the worker decodes nothing executable.
Router-bound ops: ``ack`` (admission outcome + queue depth, the
backpressure signal), ``done`` (terminal result, handed to the worker's
loop by the session's done callback), ``stats`` (reply), ``error``
(structured protocol violation report), ``bye``.

A worker makes a new spec's input, admits the run and acks it, then
computes the run's precise value on its calibrate thread.  That value
races the run: when it comes in before the run finished by itself, it
is the answer (:meth:`~repro.serve.server.AnytimeServer.submit`
documents the protocol), and a request with no deadline launches no
run at all.  :func:`spec_key` bounds ``size`` by :data:`MAX_SPEC_SIZE`,
so no frame holds the reader making an outsized input.

A worker holds only what is in flight.  Its table of live specs keeps
a spec's input and precise value from the spec's first submit until
the ``done`` of the last of its requests is sent; the requests that
arrive meanwhile share them, so duplicates make one input and run one
precise pass.  A repeat that comes later is the router's memo's to
answer (:class:`~repro.serve.router.FleetRouter`): a worker's own memo
is off by default (:data:`WORKER_DEFAULTS`), so the router's memo,
which keeps digests only, is the fleet's one memo.

Results cross the wire as metrics plus a :func:`value_digest` of the
sealed output — not the output array itself — so conformance tests can
assert bit-identity between coalesced and solo answers without shipping
megabytes of JSON.  Frames larger than :data:`MAX_FRAME` are rejected
with :class:`FrameError` before any allocation, so a corrupt or hostile
4-byte header can never balloon memory.

Every endpoint — the worker, the router's links, the front end and its
client — reads frames through one :class:`FrameProtocol`, which checks
each frame's fields once, at decode, against :data:`FIELDS`, fills in
the defaults and hands the reader a dict it indexes directly::

    op        field         holds                                 default
    --------  ------------  ------------------------------------  --------
    (any)     op            string                                required
    submit    rid           int (a JSON ``true`` is no int)       required
              app           string                                required
              size          whatever ``spec_key`` takes           32
              seed          whatever ``spec_key`` takes           0
              slo           object or null; its ``deadline_s``    all unset
                            and ``target_db`` finite numbers or
                            null, its ``priority`` one number
                            (``SLO`` checks them; it has no
                            other fields)
              wait_s        finite number                         0.0
              check         bool                                  false
              resume        checkpoint payload (by                null
                            ``check_payload``) or null
    ack       rid           int                                   required
              state         string                                required
              queue_depth   int                                   0
    done      rid           int                                   required
              state         string                                "failed"
              final         bool                                  false
              value_digest  string or null                        null
    stats     rid           int or null                           null
              stats         object or null                        null
    error     error         string                                "protocol"
    bye       (no fields)
    shutdown  (no fields)

A frame that breaks the table is a :class:`FrameError`, like bytes that
are no JSON object: the reader counts it, answers with an ``error``
frame where it can reply, and closes.  Unknown ops and unknown fields
pass through, so a newer peer may speak a superset of this protocol.
A field a spec or an SLO bounds by value (``size`` 1 to
:data:`MAX_SPEC_SIZE`, a positive ``deadline_s``) is checked where the
request is made, and fails only that request.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import math
import operator
import socket
import struct
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from typing import Any, Callable

from .digest import ckpt_filename, input_digest, request_key, value_digest
from .slo import SLO

__all__ = ["pack_msg", "send_msg", "recv_msg", "check_frame",
           "FrameProtocol", "FIELDS", "spec_key", "value_digest",
           "ckpt_filename", "worker_main", "WORKER_DEFAULTS", "MAX_FRAME",
           "MAX_SPEC_SIZE", "FrameError"]

_LEN = struct.Struct(">I")

#: upper bound on one frame's JSON payload, small enough that a corrupt
#: length prefix cannot trigger an unbounded allocation.  The largest
#: frame the fleet sends is a ``submit`` whose ``resume`` carries a
#: run's whole reply log.  The longest in the test suite, a 256² histeq
#: run simulated to its final, is 264 events in 12 KiB — a log grows
#: with versions, not pixels — so 256 KiB leaves twenty-fold headroom
MAX_FRAME = 256 * 1024


class FrameError(RuntimeError):
    """A peer violated the wire protocol: an oversized or non-JSON
    frame, or one whose fields break :data:`FIELDS`.

    Distinct from a clean EOF (``recv_msg`` → None): the connection is
    unusable and must be closed, but the violation is reportable."""


WORKER_DEFAULTS: dict[str, Any] = {
    "slots": 2,
    "queue_limit": 8,
    "executor": "threaded",
    "quantum_s": 0.02,
    # paces deadlines and quanta only: submissions, precise values, new
    # versions and ended runs wake the scheduler at once
    "tick_s": 0.005,
    "coalesce": True,
    # the router's memo answers repeats; a worker keeps no answer
    "memo_ttl_s": 0.0,
    # checkpoint directory for suspend-and-resume serving; the router
    # gives each worker its own subdirectory when migration is enabled
    "resume_dir": None,
    # attach a per-run invariant Checker (repro.check) to every
    # submission and report its violation count in `done` messages
    "check": False,
}


# -- wire protocol -------------------------------------------------------

def pack_msg(obj: dict[str, Any]) -> bytes:
    """One length-prefixed JSON frame."""
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return _LEN.pack(len(payload)) + payload


def send_msg(sock: socket.socket, obj: dict[str, Any]) -> None:
    """Send one length-prefixed JSON message."""
    sock.sendall(pack_msg(obj))


def _frame_length(header: bytes, max_frame: int) -> int:
    (length,) = _LEN.unpack(header)
    if length > max_frame:
        raise FrameError(f"declared frame length {length} exceeds "
                         f"max_frame {max_frame}")
    return length


def _decode(payload: bytes) -> dict[str, Any]:
    try:
        msg = json.loads(payload.decode())
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(msg, dict):
        raise FrameError(f"frame payload is not a JSON object: "
                         f"{type(msg).__name__}")
    return msg


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def recv_msg(sock: socket.socket,
             max_frame: int = MAX_FRAME) -> dict[str, Any] | None:
    """Receive one message; None on a clean or torn-down connection.

    Raises :class:`FrameError` on a protocol violation: a declared
    length above ``max_frame`` (rejected *before* allocating) or a
    payload that is not a JSON object.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    payload = _recv_exact(sock, _frame_length(header, max_frame))
    return None if payload is None else _decode(payload)


# -- what each op's fields hold -------------------------------------------

_NULL = type(None)
_INT, _STR, _NUMBER = (int,), (str,), (int, float)


def _check(kinds: tuple[type, ...], value: Any) -> Any:
    """``value`` if its type is exactly one of ``kinds`` (so a JSON
    ``true`` is no int) and a float is finite (Python's JSON reads
    ``NaN``)."""
    if type(value) not in kinds \
            or type(value) is float and not math.isfinite(value):
        names = "/".join(kind.__name__ for kind in kinds)
        raise TypeError(f"must be {names}, not {value!r:.40}")
    return value


def _slo(value: Any) -> dict[str, Any]:
    given = _check((dict, _NULL), value) or {}
    slo = {field.name: given.get(field.name, field.default)
           for field in dataclasses.fields(SLO)}
    # the SLO's own check names a mistyped field; a bound (a deadline
    # <= 0) fails only the request, where it is made
    with contextlib.suppress(ValueError):
        SLO(**slo)
    return slo


def _resume(value: Any) -> Any:
    if value is not None:
        from ..ckpt import check_payload
        check_payload(value)
    return value


#: a field no frame of its op may lack
REQUIRED = object()

#: each op's fields: name → (check, default), tabulated in the module
#: docstring.  A check is the types the value may have, a function that
#: returns the value the reader gets (or raises TypeError), or None; a
#: missing field takes its default, unless that is REQUIRED.
FIELDS: dict[str, dict[str, tuple[Any, Any]]] = {
    "submit": {"rid": (_INT, REQUIRED), "app": (_STR, REQUIRED),
               # spec_key bounds these: a bad one fails only its request
               "size": (None, 32), "seed": (None, 0),
               "slo": (_slo, None), "wait_s": (_NUMBER, 0.0),
               "check": ((bool,), False), "resume": (_resume, None)},
    "ack": {"rid": (_INT, REQUIRED), "state": (_STR, REQUIRED),
            "queue_depth": (_INT, 0)},
    "done": {"rid": (_INT, REQUIRED), "state": (_STR, "failed"),
             "final": ((bool,), False),
             "value_digest": ((str, _NULL), None)},
    "stats": {"rid": ((int, _NULL), None), "stats": ((dict, _NULL), None)},
    "error": {"error": (_STR, "protocol")},
    "bye": {},
    "shutdown": {},
}


def check_frame(msg: dict[str, Any]) -> dict[str, Any]:
    """``msg`` checked against :data:`FIELDS`, defaults filled in, or a
    :class:`FrameError` naming the field.  An unknown op, and a field
    its op does not name, passes unchecked."""
    op = msg.get("op")
    if type(op) is not str:
        raise FrameError(f"frame has no op: {op!r:.40}")
    for name, (check, default) in FIELDS.get(op, {}).items():
        value = msg.get(name, default)
        if value is REQUIRED:
            raise FrameError(f"{op} frame lacks {name!r}")
        try:
            msg[name] = (check(value) if callable(check)
                         else _check(check, value) if check else value)
        except TypeError as exc:
            raise FrameError(f"{op} field {name!r} {exc}") from None
    return msg


class FrameProtocol(asyncio.Protocol):
    """One connection's frames, cut, decoded and checked in
    ``data_received`` — the one reader every fleet endpoint uses.

    Frames are cut one at a time, whatever the chunking; a declared
    length over :data:`MAX_FRAME` fails as soon as its header is in,
    before any of its payload is kept.  Each frame goes through
    :func:`check_frame` to the subclass's ``frame_received(msg)``; a
    violation goes to :meth:`frame_error`, after the frames before it
    were handled.  A truncated tail at EOF is a clean close.

    No frame is cut while the connection is *held*: while the transport
    asks to pause writing, so a peer that never reads cannot grow the
    write buffer of an end that answers it without bound, and for any
    reason a subclass names with :meth:`hold` until it calls
    :meth:`release`.  A held connection pauses the transport's reading
    too, so TCP pushes back on the peer.  An end whose writes do not
    answer what it reads (the router's worker links, the client) reads
    on while writing is paused: two such ends that both stopped reading
    would wait on each other for good.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._holds: set[str] = set()

    def frame_error(self, exc: FrameError) -> None:
        """Report a violation in-band, then close: never hang."""
        self.send({"op": "error", "error": f"FrameError: {exc}"})
        self.transport.close()

    def send(self, msg: dict[str, Any]) -> None:
        """Write one frame unless the connection is closing."""
        if not self.transport.is_closing():
            self.transport.write(pack_msg(msg))

    def hold(self, reason: str) -> None:
        self._holds.add(reason)
        self.transport.pause_reading()

    def release(self, reason: str) -> None:
        """Drop a hold; the last one going cuts what is buffered and
        reads on."""
        self._holds.discard(reason)
        if not self._holds:
            self._cut()

    # asyncio.Protocol ----------------------------------------------------
    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._cut()

    def pause_writing(self) -> None:
        self.hold("writing")

    def resume_writing(self) -> None:
        self.release("writing")

    def _cut(self) -> None:
        # a frame leaves the buffer before it is handled, so a handler
        # that releases a hold (and cuts again) finds the buffer whole
        buffer, body = self._buffer, _LEN.size
        try:
            while (not self._holds and not self.transport.is_closing()
                   and len(buffer) >= body):
                end = body + _frame_length(buffer[:body], MAX_FRAME)
                if len(buffer) < end:
                    break
                msg = check_frame(_decode(buffer[body:end]))
                del buffer[:end]
                self.frame_received(msg)
        except FrameError as exc:
            self.frame_error(exc)
        if not self._holds:
            self.transport.resume_reading()


# -- request/result identity --------------------------------------------

#: largest ``size`` a spec may ask for: four times the largest size any
#: figure, test or benchmark uses.  Making the input of a larger one
#: would hold a worker's reader, and every frame behind it, for seconds.
MAX_SPEC_SIZE = 2048


def _spec_int(field: str, value: Any, low: int,
              high: int | None = None) -> int:
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be an integer, "
                         f"got {value!r}") from None
    if number < low:
        raise ValueError(f"{field} must be >= {low}, got {number}")
    if high is not None and number > high:
        raise ValueError(f"{field} must be <= {high}, got {number}")
    return number


def spec_key(app: str, size: int, seed: int = 0) -> str:
    """Canonical coalescing/placement key of a declarative request.

    Spec-addressed: the input is a pure function of ``(app, size,
    seed)``, so the key hashes those fields and never makes the input.
    Rejects a bad spec cheaply: an unknown app with ``get_app``'s
    KeyError; a non-integer, a ``size`` outside 1 to
    :data:`MAX_SPEC_SIZE` or a ``seed`` < 0 with a ValueError naming
    the field.
    """
    from ..apps.registry import get_app

    get_app(app)
    return request_key(app, input_digest(
        app, None, size=_spec_int("size", size, 1, MAX_SPEC_SIZE),
        seed=_spec_int("seed", seed, 0)))


# -- the worker process --------------------------------------------------

def _resuming_builder(resume: dict[str, Any], builder: Any) -> Any:
    """A builder whose first automaton continues a migrated run from
    its checkpoint payload; later ones, and one whose payload does not
    replay, are fresh builds (a fresh run's sealed versions are equally
    valid answers).  The payload is consumed once: a past is never
    resumed twice."""
    pending = [resume]

    def build() -> Any:
        from ..ckpt import CheckpointError
        from ..core.automaton import AnytimeAutomaton
        if pending:
            try:
                return AnytimeAutomaton.restore(pending.pop(),
                                                builder=builder)
            except CheckpointError:
                pass
        return builder()
    return build


class _CheckedRun:
    """Trace sink + checker registry for one checked submission.

    Each (re)build of the session's automaton — fresh, migrated, or
    restored from a suspend checkpoint — gets its own
    :class:`~repro.check.invariants.Checker` wired to the new graph;
    events route to the newest one.  Only the last checker is closed
    (earlier segments end mid-stream by design, so their end-of-trace
    checks would be vacuously noisy), but live violations from every
    segment count.
    """

    def __init__(self) -> None:
        self.checkers: list[Any] = []

    # TraceSink protocol -------------------------------------------------
    def emit(self, event: Any) -> None:
        if self.checkers:
            self.checkers[-1].emit(event)

    def close(self) -> None:
        pass

    def violation_count(self) -> int | None:
        """Total violations across segments; None if nothing ever ran
        (coalesced follower / memo answer — no run of its own)."""
        if not self.checkers:
            return None
        try:
            self.checkers[-1].close()
        except Exception:
            pass
        return sum(len(c.violations) for c in self.checkers)


def _checked_builder(builder: Any, executor: str) -> tuple[Any, _CheckedRun]:
    """Wrap ``builder`` so every automaton it yields gets a fresh
    per-run Checker (seeded when the graph was restored mid-stream)
    that hashes published values where ``executor``'s buffers hold
    them."""
    cell = _CheckedRun()

    def build() -> Any:
        from ..check import Checker
        from ..core.backends import executor_class

        automaton = builder()
        checker = Checker.for_graph(
            automaton.graph,
            hash_values=executor_class(executor).HOLDS_VALUES)
        if any(buf.snapshot().version > 0
               for buf in automaton.graph.buffers.values()):
            checker.seed_resumed(automaton.graph)
        cell.checkers.append(checker)
        return automaton

    return build, cell


class _ScoreLater:
    """An app's quality metric over its reference, plus the run's
    precise terminal value, computed after the request was admitted,
    on ``calibrator``.

    ``ready`` / ``error`` / ``on_ready`` / ``precise`` are the
    deferred-metric protocol of :meth:`AnytimeServer.submit`: the
    scheduler does not score with it until the reference is in, and
    races the precise value, once it is in, against the ladder.  Where
    the reference is the precise value (``reference_kind ==
    "precise"``) one pass computes both.  Where it is the input
    (dwt53), the metric is ready at once, so a ladder can be scored
    from its first version, and the precise pass is the automaton's
    own, ``build(image).precise_output()``.  A call made before the
    reference is in (a deadline, a cancel, a shutdown) blocks until it
    is computed.
    """

    def __init__(self, record: Any, image: Any,
                 calibrator: Executor) -> None:
        self._record = record
        if record.reference_kind == "input":
            self._reference: Future = Future()
            self._reference.set_result(image)
            self._precise = calibrator.submit(
                lambda: record.build(image).precise_output())
        else:
            self._reference = self._precise = calibrator.submit(
                record.reference, image)

    @property
    def ready(self) -> bool:
        return self._reference.done()

    @property
    def error(self) -> str | None:
        """Why the precise pass failed; None while it runs or once it
        is in."""
        if not self._precise.done():
            return None
        exc = self._precise.exception()
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    @property
    def precise(self) -> Any:
        """The run's precise terminal value once it is in without
        error; None before."""
        precise = self._precise
        if (not precise.done() or precise.cancelled()
                or precise.exception() is not None):
            return None
        return precise.result()

    def on_ready(self, fn: Any) -> None:
        """Call ``fn()`` once the precise pass ended (now if it has);
        the reference is in by then."""
        self._precise.add_done_callback(lambda _: fn())

    def __call__(self, value: Any) -> float:
        return self._record.metric(value, self._reference.result())


class _LiveSpec:
    """A spec with requests in flight on a worker: the input made at
    its first submit, in its ``builder`` and its ``metric`` (a
    :class:`_ScoreLater`, so also its precise value), and how many of
    its requests have not had their ``done`` sent.  The worker drops
    the entry when that count falls to 0.

    Requests of one spec that end together answer with one value: its
    precise value, or the version a run's subscribers settle on.  So
    :meth:`digest` keeps the last value it hashed with its digest, and
    hashes that value once; the entry holds it no longer than itself.
    """

    def __init__(self, record: Any, size: int, seed: int,
                 calibrator: Executor) -> None:
        image = record.make_input(size, seed)
        self.builder = lambda: record.build(image)
        self.metric = _ScoreLater(record, image, calibrator)
        self.requests = 0
        self._hashed: tuple[Any, str] | None = None

    def digest(self, value: Any) -> str:
        if self._hashed is None or self._hashed[0] is not value:
            self._hashed = (value, value_digest(value))
        return self._hashed[1]


def _done_message(rid: int, result: Any, violations: int | None = None,
                  digest: Callable[[Any], str] = value_digest
                  ) -> dict[str, Any]:
    snr = result.snr_db
    return {
        "op": "done", "rid": rid,
        "state": result.state.value,
        "latency_s": result.latency_s,
        "queue_s": result.queue_s,
        "snr_db": (snr if snr is not None and math.isfinite(snr)
                   else None),
        "precise_snr": bool(snr is not None and math.isinf(snr)
                            and snr > 0),
        "slo_met": bool(result.slo_met),
        "interrupted": bool(result.interrupted),
        "coalesced": bool(result.coalesced),
        "memo_hit": bool(result.memo_hit),
        "version": result.snapshot.version,
        "final": bool(result.snapshot.final),
        "preemptions": result.preemptions,
        "value_digest": (digest(result.snapshot.value)
                         if result.snapshot.value is not None else None),
        "errors": list(result.errors),
        # per-run invariant violations when the worker runs with
        # check=True; None when no run was attached (memo/follower)
        "violations": violations,
    }


def _checked_violations(cell: _CheckedRun, snapshot: Any, metric: Any,
                        digest: Callable[[Any], str]) -> int | None:
    """A checked request's violations, plus one when its sealed final
    is not bit for bit the precise reference it raced: that equality
    is what makes answering with the reference sound."""
    violations = cell.violation_count()
    precise = metric.precise
    if (snapshot.final and precise is not None
            and snapshot.value is not precise
            and digest(snapshot.value) != digest(precise)):
        violations = (violations or 0) + 1
    return violations


def worker_main(sock: socket.socket,
                config: dict[str, Any] | None = None) -> None:
    """Run one fleet worker until its socket closes.

    One asyncio loop on the calling thread reads every frame and writes
    every reply.  It admits first and computes later: a request is
    keyed by :func:`spec_key`, its spec's input made unless the spec is
    live, and submitted and acked — and only then does the one-thread
    calibrate executor compute the spec's precise value (FIFO, one spec
    at a time).  A request with no deadline, no stream and no check is
    held until that value answers it at version 1, on every app; one
    that can take a ladder version launches its run at once, and the
    value races it.  In ``check`` mode a ladder's own final must equal
    the value bit for bit.  Each ``Session`` done callback, on whichever
    thread turned the session terminal, hands its ``done`` to the loop
    (``call_soon_threadsafe``), so neither a slow run nor a slow
    precise pass blocks admission of the next request.

    The worker keeps a spec's input and precise value in its table of
    live specs (:class:`_LiveSpec`, counted as ``live_specs`` in its
    ``stats``) from the spec's first submit until the ``done`` of the
    last of the spec's requests in flight is sent — shed, failed and
    cancelled ones too — and nothing after that.  The process's
    allocator policy (:func:`~repro.core.memory.keep_freed_pages`) is
    set before the first input is made.
    """
    from ..apps.registry import get_app
    from ..core.memory import keep_freed_pages
    from .server import AnytimeServer

    keep_freed_pages()
    cfg = {**WORKER_DEFAULTS, **(config or {})}
    server = AnytimeServer(
        slots=int(cfg["slots"]), queue_limit=int(cfg["queue_limit"]),
        executor=cfg["executor"], quantum_s=float(cfg["quantum_s"]),
        tick_s=float(cfg["tick_s"]), coalesce=bool(cfg["coalesce"]),
        memo_ttl_s=float(cfg["memo_ttl_s"]),
        resume_dir=cfg.get("resume_dir")).start()
    calibrator = ThreadPoolExecutor(1, thread_name_prefix="fleet-calibrate")
    # the specs with requests in flight, by spec key (loop thread only)
    live: dict[str, _LiveSpec] = {}

    def release(key: str) -> None:
        """One of ``key``'s requests is done; the last drops its spec."""
        spec = live[key]
        spec.requests -= 1
        if not spec.requests:
            del live[key]

    async def serve_link() -> None:
        loop = asyncio.get_running_loop()
        closed = loop.create_future()

        class RouterLink(FrameProtocol):
            """This worker's end of its router link."""

            def frame_received(self, msg: dict[str, Any]) -> None:
                serve(self, msg)

            def connection_lost(self, exc: Exception | None) -> None:
                closed.set_result(None)

        def send_done(link: FrameProtocol, rid: int, session: Any,
                      cell: _CheckedRun | None, key: str) -> None:
            spec = live[key]
            try:
                result = session.result(timeout_s=0.0)
                violations = (_checked_violations(cell, result.snapshot,
                                                  spec.metric, spec.digest)
                              if cell is not None else None)
                link.send(_done_message(rid, result, violations=violations,
                                        digest=spec.digest))
            finally:
                release(key)

        def on_done(*args: Any) -> None:
            # on any thread; once the router is gone the loop is closed
            # and nobody is left to tell
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(send_done, *args)

        def serve(link: FrameProtocol, msg: dict[str, Any]) -> None:
            """Act on one frame."""
            op = msg["op"]
            if op == "submit":
                rid = msg["rid"]
                cell = spec = None
                try:
                    # the key is the frame's spec's, never the router's
                    # word for it
                    key = spec_key(msg["app"], msg["size"], msg["seed"])
                    spec = live.get(key)
                    if spec is None:
                        spec = live[key] = _LiveSpec(
                            get_app(msg["app"]), int(msg["size"]),
                            int(msg["seed"]), calibrator)
                    spec.requests += 1
                    builder = spec.builder
                    if msg["resume"] is not None:
                        builder = _resuming_builder(msg["resume"], builder)
                    if msg["check"] or cfg["check"]:
                        builder, cell = _checked_builder(
                            builder, cfg["executor"])
                    session = server.submit(
                        builder, SLO(**msg["slo"]), metric=spec.metric,
                        name=f"r{rid}", wait_s=msg["wait_s"],
                        key=key if cfg["coalesce"] else None, trace=cell)
                except Exception as exc:
                    if spec is not None:
                        release(key)
                    link.send({"op": "done", "rid": rid, "state": "failed",
                               "latency_s": 0.0, "queue_s": 0.0,
                               "errors": [f"{type(exc).__name__}: {exc}"]})
                    return
                stats = server.stats()
                link.send({"op": "ack", "rid": rid,
                           "state": session.state.value,
                           "queue_depth": stats["queued"],
                           "running": stats["running"],
                           "subscribers": stats["subscribers"]})
                # the done goes through the loop's queue, so a request
                # that is terminal already (shed, memo hit) still reads
                # ack-then-done on the wire
                session.add_done_callback(
                    lambda session: on_done(link, rid, session, cell, key))
            elif op == "stats":
                link.send({"op": "stats", "rid": msg["rid"],
                           "stats": {**server.stats(),
                                     "live_specs": len(live)}})
            elif op == "shutdown":
                link.send({"op": "bye"})
                link.transport.close()
            # other ops are ignored: a newer router may speak a superset
            # of this protocol

        # the link's end — EOF, a reset, a violation answered in-band,
        # or a shutdown — is flushed before the socket closes
        await loop.connect_accepted_socket(RouterLink, sock=sock)
        await closed

    try:
        asyncio.run(serve_link())
    finally:
        # cancels what is left, which may score against references
        # still queued: the calibrator goes last
        server.shutdown()
        calibrator.shutdown(cancel_futures=True)
        sock.close()
