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

Results cross the wire as metrics plus a :func:`value_digest` of the
sealed output — not the output array itself — so conformance tests can
assert bit-identity between coalesced and solo answers without shipping
megabytes of JSON.  Frames larger than :data:`MAX_FRAME` are rejected
with :class:`FrameError` before any allocation, so a corrupt or hostile
4-byte header can never balloon memory.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import math
import operator
import socket
import struct
from collections import OrderedDict
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from .digest import ckpt_filename, input_digest, request_key

__all__ = ["pack_msg", "send_msg", "recv_msg", "read_msg", "spec_key",
           "value_digest", "ckpt_filename", "worker_main", "WORKER_DEFAULTS",
           "MAX_FRAME", "MAX_SPEC_SIZE", "FrameError", "FIELD_ERRORS"]

_LEN = struct.Struct(">I")

#: upper bound on one frame's JSON payload, small enough that a corrupt
#: length prefix cannot trigger an unbounded allocation.  The largest
#: frame the fleet sends is a ``submit`` whose ``resume`` carries a
#: run's whole reply log.  The longest in the test suite, a 256² histeq
#: run simulated to its final, is 264 events in 12 KiB — a log grows
#: with versions, not pixels — so 256 KiB leaves twenty-fold headroom
MAX_FRAME = 256 * 1024


class FrameError(RuntimeError):
    """A peer violated the wire protocol (oversized or non-JSON frame).

    Distinct from a clean EOF (``recv_msg`` → None): the connection is
    unusable and must be closed, but the violation is reportable."""


#: what acting on a well-formed frame raises when one of its fields is
#: missing or of the wrong type; every reader (worker, router, front
#: end) treats these like a :class:`FrameError`
FIELD_ERRORS = (KeyError, ValueError, TypeError)

WORKER_DEFAULTS: dict[str, Any] = {
    "slots": 2,
    "queue_limit": 8,
    "executor": "threaded",
    "quantum_s": 0.02,
    # paces deadlines and quanta only: submissions, precise values, new
    # versions and ended runs wake the scheduler at once
    "tick_s": 0.005,
    "coalesce": True,
    "memo_ttl_s": 5.0,
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
    except (ValueError, UnicodeDecodeError) as exc:
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


async def read_msg(reader: asyncio.StreamReader,
                   max_frame: int = MAX_FRAME) -> dict[str, Any] | None:
    """:func:`recv_msg` on an asyncio stream: the same bound, decode,
    None on EOF or truncation, and :class:`FrameError`."""
    try:
        header = await reader.readexactly(_LEN.size)
        length = _frame_length(header, max_frame)
        return _decode(await reader.readexactly(length))
    except asyncio.IncompleteReadError:
        return None


# -- request/result identity --------------------------------------------

class _Lru:
    """A mapping that forgets its least recently used entry beyond
    ``cap`` (not thread-safe: callers bring their own lock)."""

    def __init__(self, cap: int) -> None:
        self._cap = cap
        self._items: OrderedDict[Any, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: Any) -> Any:
        if key not in self._items:
            return None
        self._items.move_to_end(key)
        return self._items[key]

    def put(self, key: Any, value: Any) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self._cap:
            self._items.popitem(last=False)


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


def value_digest(value: Any) -> str:
    """Stable hash of an output value (arrays, dicts of arrays, scalars)
    so bit-identity can be asserted across the wire."""
    h = hashlib.sha256()

    def feed(v: Any) -> None:
        if isinstance(v, dict):
            for k in sorted(v, key=str):
                h.update(f"|k={k}".encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            for item in v:
                h.update(b"|i")
                feed(item)
        else:
            try:
                arr = np.ascontiguousarray(np.asarray(v))
                h.update(f"|{arr.dtype.str}{arr.shape}".encode())
                h.update(arr.tobytes())
            except Exception:
                h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


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


#: calibrations (input image, builder, metric with its reference) a
#: worker keeps, by spec key, for repeat submissions of a spec
_CALIBRATIONS_MAX = 32

#: answered values whose digest a worker keeps: the subscribers of one
#: run settle on one value at once, so their replies come close together
_DIGESTS_MAX = 4


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
    every reply.  It admits first and computes later: a new spec's
    input is made once, the request keyed by :func:`spec_key`,
    submitted and acked — and only then does the one-thread calibrate
    executor compute the run's precise value (FIFO, one spec at a
    time).  A request with no deadline, no stream and no check is held
    until that value answers it at version 1, on every app; one that
    can take a ladder version launches its run at once, and the value
    races it.  In ``check`` mode a ladder's own final must equal the
    value bit for bit.  Each ``Session`` done callback, on whichever
    thread turned the session terminal, hands its ``done`` to the loop
    (``call_soon_threadsafe``), so neither a slow run nor a slow
    precise pass blocks admission of the next request.  The process's
    allocator policy (:func:`~repro.core.memory.keep_freed_pages`) is
    set before the first input is made.
    """
    from ..apps.registry import get_app
    from ..ckpt import check_payload
    from ..core.memory import keep_freed_pages
    from .server import AnytimeServer
    from .slo import SLO

    keep_freed_pages()
    cfg = {**WORKER_DEFAULTS, **(config or {})}
    server = AnytimeServer(
        slots=int(cfg["slots"]), queue_limit=int(cfg["queue_limit"]),
        executor=cfg["executor"], quantum_s=float(cfg["quantum_s"]),
        tick_s=float(cfg["tick_s"]), coalesce=bool(cfg["coalesce"]),
        memo_ttl_s=float(cfg["memo_ttl_s"]),
        resume_dir=cfg.get("resume_dir")).start()
    calibrator = ThreadPoolExecutor(1, thread_name_prefix="fleet-calibrate")
    calibrations = _Lru(_CALIBRATIONS_MAX)
    # answered values by id, with their digests (loop thread only)
    digests = _Lru(_DIGESTS_MAX)

    def calibration(app: str, size: Any, seed: Any) -> tuple:
        # the key is the frame's spec's, never the router's word for it
        key = spec_key(app, size, seed)
        entry = calibrations.get(key)
        if entry is None:
            record = get_app(app)
            image = record.make_input(int(size), int(seed))
            metric = _ScoreLater(record, image, calibrator)

            def builder(record=record, image=image):
                return record.build(image)

            entry = (builder, metric)
            calibrations.put(key, entry)
        return (*entry, key)

    async def serve_link() -> None:
        loop = asyncio.get_running_loop()
        reader, writer = await asyncio.open_connection(sock=sock)

        def send(msg: dict[str, Any]) -> None:
            if not writer.is_closing():
                writer.write(pack_msg(msg))

        def digest(value: Any) -> str:
            # coalesced subscribers and memo hits answer with one value
            # object: it is hashed once.  The entry holds the value, so
            # no other object can take its id while it is kept.
            entry = digests.get(id(value))
            if entry is None:
                entry = (value, value_digest(value))
                digests.put(id(value), entry)
            return entry[1]

        def send_done(rid: int, session: Any, cell: _CheckedRun | None,
                      metric: _ScoreLater) -> None:
            result = session.result(timeout_s=0.0)
            violations = (_checked_violations(cell, result.snapshot,
                                              metric, digest)
                          if cell is not None else None)
            send(_done_message(rid, result, violations=violations,
                               digest=digest))

        def on_done(*args: Any) -> None:
            # on any thread; once the router is gone the loop is closed
            # and nobody is left to tell
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(send_done, *args)

        def serve(msg: dict[str, Any]) -> bool:
            """Act on one frame; False once the router said goodbye."""
            op = msg.get("op")
            if op == "submit":
                rid = int(msg["rid"])
                resume = msg.get("resume")
                if resume is not None:
                    check_payload(resume)
                cell = None
                try:
                    builder, metric, key = calibration(
                        msg["app"], msg.get("size", 32), msg.get("seed", 0))
                    if resume is not None:
                        builder = _resuming_builder(resume, builder)
                    if msg.get("check", cfg.get("check")):
                        builder, cell = _checked_builder(
                            builder, cfg["executor"])
                    slo_spec = msg.get("slo") or {}
                    slo = SLO(
                        deadline_s=slo_spec.get("deadline_s"),
                        target_db=slo_spec.get("target_db"),
                        priority=float(slo_spec.get("priority", 1.0)))
                    session = server.submit(
                        builder, slo, metric=metric, name=f"r{rid}",
                        wait_s=float(msg.get("wait_s", 0.0)),
                        key=key if cfg["coalesce"] else None, trace=cell)
                except Exception as exc:
                    send({"op": "done", "rid": rid, "state": "failed",
                          "latency_s": 0.0, "queue_s": 0.0,
                          "errors": [f"{type(exc).__name__}: {exc}"]})
                    return True
                stats = server.stats()
                send({"op": "ack", "rid": rid,
                      "state": session.state.value,
                      "queue_depth": stats["queued"],
                      "running": stats["running"],
                      "subscribers": stats["subscribers"]})
                # the done goes through the loop's queue, so a request
                # that is terminal already (shed, memo hit) still reads
                # ack-then-done on the wire
                session.add_done_callback(
                    lambda session, rid=rid, cell=cell, metric=metric:
                    on_done(rid, session, cell, metric))
            elif op == "stats":
                send({"op": "stats", "rid": msg.get("rid"),
                      "stats": server.stats()})
            elif op == "shutdown":
                send({"op": "bye"})
                return False
            # unknown ops are ignored: a newer router may speak a superset
            # of this protocol
            return True

        try:
            while True:
                try:
                    msg = await read_msg(reader)
                    # None: the router went away
                    if msg is None or not serve(msg):
                        return
                except (FrameError, *FIELD_ERRORS) as exc:
                    # protocol violation (a corrupt frame, or a field it
                    # lacks or mistypes): report it in-band, then close —
                    # never hang, never allocate for a corrupt header
                    send({"op": "error",
                          "error": f"{type(exc).__name__}: {exc}"})
                    return
        except OSError:
            return
        finally:
            # flushes what is written before the socket closes
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    try:
        asyncio.run(serve_link())
    finally:
        # cancels what is left, which may score against references
        # still queued: the calibrator goes last
        server.shutdown()
        calibrator.shutdown(cancel_futures=True)
        sock.close()
