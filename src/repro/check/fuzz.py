"""Property-based fuzzing of random automata (``repro.check.fuzz``).

Extends the hypothesis strategies of ``tests/test_random_automata.py``
into a library-level fuzzer: instead of drawing live stage objects, the
strategy draws a **plain-JSON spec** — primitives only — describing a
random stage graph (precise / iterative / diffusive stages, every
sampling permutation, optional synchronous map→fold pairs), a
seed-deterministic fault-injection schedule, and a random interrupt
point.  :func:`build_automaton` turns a spec into a runnable
:class:`~repro.core.automaton.AnytimeAutomaton`, and :func:`run_spec`
executes it on the simulated executor with a strict
:class:`~repro.check.invariants.Checker` attached and judges the run
with :func:`~repro.check.differential.judge_run`, the verdict the
differential and restore legs use too:

* every run, faulted or interrupted ones included, keeps its version
  ladders and records in order with zero invariant violations
  (version order, seal-once, channel causality, span balance,
  post-publication immutability);
* a run that should have converged (no faults and no interrupt, or
  ones that never fired) completes, publishes every stage's buffer
  with exactly one final, ends **bit-exactly** on the precise
  evaluation, and publishes as many source versions as an
  uninterrupted run.

Because specs are JSON, a shrunk falsifying example is *replayable*:
:func:`fuzz` writes it (plus the error) to a seed file, and
:func:`replay` re-executes it — ``repro check --replay seed.json``.

hypothesis is imported lazily inside the functions that need it, so the
rest of ``repro.check`` works without the dev dependencies installed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..anytime.fill import ConstantFill
from ..anytime.permutations import (LfsrPermutation, Permutation,
                                    ReversedPermutation,
                                    SequentialPermutation,
                                    StridedPermutation, TreePermutation)
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.channel import UpdateChannel
from ..core.controller import VersionCountStop
from ..core.faults import FaultInjector, FaultPolicy
from ..core.iterative import AccuracyLevel, IterativeStage
from ..core.mapstage import MapStage
from ..core.scheduling import proportional_shares
from ..core.stage import PreciseStage
from ..core.syncstage import SynchronousStage
from .differential import _checked_run, _uninterrupted, judge_run

__all__ = ["VEC", "SPEC_FORMAT", "FuzzFailure", "spec_strategy",
           "build_automaton", "run_spec", "fuzz", "replay",
           "save_spec", "load_spec"]

VEC = 16             #: every buffer carries an int64 vector of this length
SPEC_FORMAT = 1      #: seed-file format version

_PERMUTATIONS = ("tree", "sequential", "reversed", "strided", "lfsr")


def _unary_op(kind: int):
    """The four elementwise int64 ops random stages compose."""
    return [lambda v: v + 3,
            lambda v: v * 2,
            lambda v: np.maximum(v - 5, 0),
            lambda v: v // 2][kind % 4]


def _coarse(v: np.ndarray) -> np.ndarray:
    return (np.asarray(v, np.int64) >> 3) << 3


def _permutation(name: str) -> Permutation:
    if name == "tree":
        return TreePermutation()
    if name == "sequential":
        return SequentialPermutation()
    if name == "reversed":
        return ReversedPermutation()
    if name == "strided":
        return StridedPermutation(stride=4)
    if name == "lfsr":
        return LfsrPermutation(seed=1)
    raise ValueError(f"unknown permutation {name!r}")


@dataclass
class FuzzFailure:
    """A shrunk falsifying example, ready to replay."""

    spec: dict[str, Any]
    error: str
    seed_file: str | None = None

    def __str__(self) -> str:
        where = (f" (saved to {self.seed_file})" if self.seed_file
                 else "")
        return (f"fuzzing found a falsifying automaton{where}:\n"
                f"{self.error}\nspec: {json.dumps(self.spec)}")


# -- spec generation ------------------------------------------------------

def spec_strategy():
    """A hypothesis strategy drawing plain-JSON automaton specs.

    Primitives only — ints, strings, bools, lists, dicts — so every
    drawn (and shrunk) example serializes losslessly to a seed file.
    """
    from hypothesis import strategies as st

    stage = st.fixed_dictionaries({
        "kind": st.integers(min_value=0, max_value=2),
        "op": st.integers(min_value=0, max_value=3),
        "cost": st.integers(min_value=1, max_value=50),
        "inputs": st.lists(st.integers(min_value=0, max_value=7),
                           min_size=1, max_size=2),
        "chunks": st.integers(min_value=1, max_value=4),
        "perm": st.sampled_from(_PERMUTATIONS),
        "sync": st.booleans(),
    })
    faults = st.one_of(
        st.none(),
        st.fixed_dictionaries({
            "seed": st.integers(min_value=0, max_value=2**16),
            "n": st.integers(min_value=1, max_value=3),
            "max_at": st.integers(min_value=1, max_value=24),
            "policy": st.sampled_from(["degrade", "restart"]),
        }))
    return st.fixed_dictionaries({
        "format": st.just(SPEC_FORMAT),
        "stages": st.lists(stage, min_size=1, max_size=6),
        "data": st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=VEC, max_size=VEC),
        "cores": st.integers(min_value=1, max_value=32),
        "faults": faults,
        "stop_after": st.one_of(st.none(),
                                st.integers(min_value=1, max_value=8)),
    })


# -- spec -> automaton ----------------------------------------------------

def build_automaton(spec: dict[str, Any]) -> AnytimeAutomaton:
    """Deterministically construct the automaton a spec describes.

    Mirrors the strategy in ``tests/test_random_automata.py``: a
    linear-ish DAG where each stage consumes 1-2 earlier buffers, with
    three extensions — every sampling permutation (non-tree ones get an
    explicit :class:`ConstantFill`), optional synchronous map→fold
    pairs streaming updates over an :class:`UpdateChannel`, and any
    dangling buffers folded into a single terminal sink.
    """
    if spec.get("format") != SPEC_FORMAT:
        raise ValueError(
            f"unsupported spec format {spec.get('format')!r} "
            f"(expected {SPEC_FORMAT})")
    b_in = VersionedBuffer("in")
    buffers = [b_in]
    stages: list[Any] = []
    for i, s in enumerate(spec["stages"]):
        kind = int(s["kind"])
        op = _unary_op(int(s["op"]))
        cost = float(s["cost"])
        out = VersionedBuffer(f"b{i}")
        picks = [int(p) % len(buffers) for p in s["inputs"]]
        # dedup while preserving order (two picks may collide mod len)
        picks = list(dict.fromkeys(picks))
        inputs = tuple(buffers[p] for p in picks)

        if kind == 2 and bool(s.get("sync")):
            # A synchronous pair: a source map stage streaming updates
            # into a channel named after its own output buffer (the
            # precise() contract), plus a distributive fold child.
            # Only source stages may emit — a restarted pass on a
            # non-final input would never close the channel.
            channel = UpdateChannel(out.name)
            stages.append(_map_stage(
                f"s{i}", out, (b_in,), op, s, emit_to=channel))
            child_out = VersionedBuffer(f"b{i}g")
            stages.append(_sync_child(f"s{i}g", child_out, channel,
                                      int(s["op"])))
            buffers.append(out)
            buffers.append(child_out)
            continue

        if kind == 0 or len(inputs) >= 2:
            def fn(*vals, op=op):
                acc = vals[0]
                for v in vals[1:]:
                    acc = acc + v
                return op(acc)

            stages.append(PreciseStage(f"s{i}", out, inputs, fn,
                                       cost=cost))
        elif kind == 1:
            levels = [
                AccuracyLevel(lambda v, op=op: _coarse(op(v)),
                              cost=cost),
                AccuracyLevel(lambda v, op=op: op(v), cost=cost * 2),
            ]
            stages.append(IterativeStage(f"s{i}", out, inputs, levels))
        else:
            stages.append(_map_stage(f"s{i}", out, inputs, op, s))
        buffers.append(out)

    # guarantee a single terminal: chain any dangling buffers into a sum
    consumed = {b.name for st_ in stages for b in st_.inputs}
    consumed |= {st_.channel.name for st_ in stages
                 if isinstance(st_, SynchronousStage)}
    dangling = [b for b in buffers[:-1]
                if b.name not in consumed and b.name != "in"]
    if dangling:
        out = VersionedBuffer("sink")
        stages.append(PreciseStage(
            "sink", out, tuple(dangling) + (buffers[-1],),
            lambda *vs: sum(vs[1:], vs[0]), cost=1.0))
    data = np.asarray(spec["data"], dtype=np.int64)
    if data.shape != (VEC,):
        raise ValueError(f"spec data must be a {VEC}-vector")
    return AnytimeAutomaton(stages, name="fuzz",
                            external={"in": data})


def _map_stage(name: str, out: VersionedBuffer,
               inputs: tuple[VersionedBuffer, ...], op, s: dict[str, Any],
               emit_to: UpdateChannel | None = None) -> MapStage:
    perm_name = str(s.get("perm", "tree"))
    fill = None if perm_name == "tree" else ConstantFill(0)

    def elem(idx, *vals, op=op):
        acc = np.asarray(vals[0], np.int64)
        for v in vals[1:]:
            acc = acc + np.asarray(v, np.int64)
        return op(acc)[idx]

    return MapStage(name, out, inputs, elem, shape=VEC, dtype=np.int64,
                    permutation=_permutation(perm_name), fill=fill,
                    chunks=int(s["chunks"]),
                    cost_per_element=float(s["cost"]) / VEC,
                    emit_to=emit_to)


def _sync_child(name: str, out: VersionedBuffer, channel: UpdateChannel,
                op_kind: int) -> SynchronousStage:
    """A fold child distributive over elementwise map updates.

    The parent computes ``op(in)`` per element and streams
    ``(indices, values)`` updates; the child applies a second
    elementwise op ``g`` to each update and assigns — assignment is
    trivially distributive, so the accumulated output equals
    ``g(parent_precise)``.
    """
    g = _unary_op(op_kind + 1)

    def initial() -> np.ndarray:
        return np.zeros(VEC, dtype=np.int64)

    def update(acc, upd, g=g):
        indices, values = upd
        acc = np.array(acc, dtype=np.int64, copy=True)
        acc[indices] = g(np.asarray(values, np.int64))
        return acc

    return SynchronousStage(
        name, out, channel, initial_fn=initial, update_fn=update,
        update_cost=lambda upd: float(len(upd[0])),
        precise_fn=lambda parent: g(np.asarray(parent, np.int64)),
        precise_cost=float(VEC))


# -- execution + properties ----------------------------------------------

def run_spec(spec: dict[str, Any]) -> dict[str, Any]:
    """Execute a spec on the simulated executor under a strict checker
    and judge it; returns a small summary dict on success.

    Every run is held to :func:`~repro.check.differential.judge_run`'s
    ordering and checker rules.  A run that should have converged — no
    faults and no interrupt, or faults and an interrupt that never
    fired — is also judged against the precise evaluation and an
    uninterrupted run.  Raises :class:`AssertionError` naming each
    broken rule: the property hypothesis shrinks against.
    """
    automaton = build_automaton(spec)
    faults_cfg = spec.get("faults")
    options: dict[str, Any] = {"total_cores": float(spec["cores"])}
    if faults_cfg is not None:
        options["injector"] = FaultInjector.random_schedule(
            int(faults_cfg["seed"]),
            [s.name for s in automaton.graph.stages],
            n_faults=int(faults_cfg["n"]),
            max_at=int(faults_cfg["max_at"]))
        options["faults"] = FaultPolicy(
            on_failure=str(faults_cfg["policy"]), max_retries=1)
    if spec.get("stop_after") is not None:
        options["stop"] = VersionCountStop(int(spec["stop_after"]))

    result, checker = _checked_run(automaton, "simulated",
                                   proportional_shares, 0.0, None,
                                   **options)
    pristine = faults_cfg is None and "stop" not in options
    converges = pristine or (result.completed and not result.errors
                             and not result.stopped_early)
    expected = (_uninterrupted(lambda: build_automaton(spec))
                if converges else None)
    problems = judge_run(automaton, result, checker, expected)
    assert not problems, "; ".join(
        f"{p['kind']}: {p['detail']}" for p in problems)
    return {
        "completed": bool(result.completed),
        "stopped_early": bool(result.stopped_early),
        "errors": len(result.errors),
        "terminal_versions": len(
            result.output_records(automaton.terminal_buffer_name)),
        "events": checker.report().events,
    }


# -- seed files -----------------------------------------------------------

def save_spec(spec: dict[str, Any], path: str,
              error: str | None = None) -> None:
    payload = {"format": SPEC_FORMAT, "spec": spec, "error": error}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    spec = payload.get("spec", payload)   # accept bare specs too
    if spec.get("format") != SPEC_FORMAT:
        raise ValueError(
            f"{path}: unsupported seed-file format "
            f"{spec.get('format')!r}")
    return spec


def replay(path: str) -> dict[str, Any]:
    """Re-run a saved falsifying spec; raises if it still fails."""
    return run_spec(load_spec(path))


# -- the fuzz loop --------------------------------------------------------

def fuzz(max_examples: int = 100, seed_file: str | None = None,
         derandomize: bool = False) -> FuzzFailure | None:
    """Fuzz random automata; returns the shrunk failure or None.

    hypothesis drives generation and shrinking
    (``report_multiple_bugs=False`` so the single minimal example is
    the one we capture); the last spec the property saw when the run
    aborts *is* the shrunk falsifying example, which we serialize to
    ``seed_file`` for ``replay``.
    """
    from hypothesis import HealthCheck, given, settings

    last: dict[str, Any] = {}

    @settings(max_examples=max_examples, deadline=None, database=None,
              derandomize=derandomize, report_multiple_bugs=False,
              suppress_health_check=list(HealthCheck))
    @given(spec_strategy())
    def property_(spec: dict[str, Any]) -> None:
        last["spec"] = spec
        run_spec(spec)

    try:
        property_()
    except Exception as exc:
        spec = last.get("spec")
        if spec is None:          # generation itself broke; re-raise
            raise
        error = f"{type(exc).__name__}: {exc}"
        if seed_file is not None:
            save_spec(spec, seed_file, error=error)
        return FuzzFailure(spec=spec, error=error, seed_file=seed_file)
    return None
