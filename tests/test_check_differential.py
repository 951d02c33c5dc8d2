"""Differential conformance harness tests (repro.check.differential)."""

import itertools
import json
import time
import types

import numpy as np
import pytest

from repro.apps.registry import APP_REGISTRY, AppSpec
from repro.check import run_differential
from repro.check import differential as diff_mod
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.scheduling import proportional_shares
from repro.core.stage import Compute, Stage
from repro.metrics.snr import snr_db

pytestmark = pytest.mark.check


class TestCrossExecutor:
    @pytest.mark.timeout(120)
    def test_two_executor_pass_is_clean(self):
        report = run_differential(app="dwt53", size=16, serve=False,
                                  executors=("simulated", "threaded"))
        assert report.ok, report.mismatches
        assert [o.executor for o in report.observations] == \
            ["simulated", "threaded"]
        for obs in report.observations:
            assert obs.completed
            assert obs.final_matches_precise
            assert obs.check.ok

    @pytest.mark.slow
    @pytest.mark.timeout(300)
    def test_three_executor_pass_is_clean(self):
        pytest.importorskip("multiprocessing.shared_memory")
        report = run_differential(app="2dconv", size=24, serve=False)
        assert report.ok, report.mismatches
        assert len(report.observations) == 3

    @pytest.mark.timeout(120)
    def test_report_is_json_serializable(self):
        report = run_differential(app="dwt53", size=16, serve=False,
                                  executors=("simulated",))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["report"] == "differential-conformance"
        assert payload["ok"] is True
        assert payload["observations"][0]["version_counts"]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_differential(app="dwt53", size=16, serve=False,
                             executors=("gpu",))


class TestLeaseEquivalence:
    """The batch safety rule, enforced by the harness: fusing chunks or
    levels into one kernel call may only share work, never change what
    gets published."""

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("width", [1, 8])
    def test_differential_clean_at_any_lease(self, width, batch):
        batch(width)
        report = run_differential(app="2dconv", size=16, serve=False,
                                  executors=("simulated", "threaded"))
        assert report.ok, report.mismatches
        for obs in report.observations:
            assert obs.completed and obs.final_matches_precise

    @pytest.mark.slow
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("app", ["2dconv", "dwt53"])
    @pytest.mark.parametrize("executor",
                             ["simulated", "threaded", "process"])
    def test_version_ladder_bit_identical_across_lease_sizes(
            self, executor, app, batch):
        """Every published version — not just the final — must be bit
        for bit the same whether stages fuse 1 or 8 chunks or levels
        per kernel call.  Covers both batching families: diffusive chunk
        fusion (2dconv) and iterative level fusion (dwt53)."""
        from repro.apps.registry import get_app

        spec = get_app(app)
        image = spec.make_input(16, 0)
        ladders = {}
        for width in (1, 8):
            batch(width)
            automaton = spec.build(image)
            if executor == "simulated":
                result = automaton.run_simulated()
            elif executor == "threaded":
                result = automaton.run_threaded(timeout_s=120.0)
            else:
                result = automaton.run_processes(timeout_s=120.0)
            assert result.completed
            ladders[width] = result.output_records(
                automaton.terminal_buffer_name)
        single, fused = ladders[1], ladders[8]
        assert [r.version for r in single] == \
            [r.version for r in fused]
        for s, f in zip(single, fused):
            assert s.final == f.final
            assert np.array_equal(s.value, f.value), \
                f"version {s.version} diverged when fused"


class TestMismatchDetection:
    @pytest.mark.timeout(120)
    def test_forged_final_is_reported(self, monkeypatch):
        # force the bit-exact comparison to fail (no two digests
        # agree): the harness must report a final-mismatch for every
        # executor, not pass silently
        forged = itertools.count()
        monkeypatch.setattr(diff_mod, "value_digest",
                            lambda value: str(next(forged)))
        report = run_differential(app="dwt53", size=16, serve=False,
                                  executors=("simulated",))
        assert not report.ok
        assert any(m["kind"] == "final-mismatch"
                   for m in report.mismatches)


class _Mute(Stage):
    """Completes without ever publishing a version."""

    def run_once(self, snaps, inputs_final):
        yield Compute(1.0, label=f"{self.name}:compute")

    def precise(self, input_values):
        return np.asarray(input_values[self.inputs[0].name])

    @property
    def precise_cost(self) -> float:
        return 1.0


class TestUnpublishedBuffer:
    @pytest.mark.timeout(120)
    def test_buffer_that_never_publishes_is_reported(self, monkeypatch):
        def build(image):
            return AnytimeAutomaton(
                [_Mute("mute", VersionedBuffer("quiet"),
                       (VersionedBuffer("in"),))],
                external={"in": image})

        monkeypatch.setitem(APP_REGISTRY, "mute", AppSpec(
            name="mute", description="a stage that never writes",
            make_input=lambda size, seed: np.ones(size), build=build,
            reference=lambda image: image, metric=snr_db,
            reference_kind="precise", schedule=proportional_shares))
        report = run_differential(app="mute", size=4, serve=False,
                                  executors=("simulated",))
        assert any(m["kind"] == "missing-versions"
                   and "'quiet'" in m["detail"]
                   for m in report.mismatches), report.mismatches


class ColdFirstRun:
    """An app stub whose first run at each size takes ``COLD_S``, as a
    cold start does, and whose later runs take ``PER_POINT_S`` a
    point."""

    COLD_S = 0.08
    PER_POINT_S = 0.001

    def __init__(self):
        self.sizes_run = []

    def make_input(self, size, seed):
        return np.zeros(size)

    def build(self, image):
        def run_threaded(timeout_s):
            size = len(image)
            cold = size not in self.sizes_run
            self.sizes_run.append(size)
            time.sleep(self.COLD_S if cold else self.PER_POINT_S * size)

        return types.SimpleNamespace(run_threaded=run_threaded)


def test_the_serve_leg_sizes_its_input_from_a_warm_run():
    """A cold first run spans 16 quanta at every size; a warm one only
    from 64 points on, which is what the leg needs to preempt."""
    app = ColdFirstRun()
    image, size = diff_mod._serve_input(app, 8, 0, quantum_s=0.005,
                                        timeout_s=10.0)
    assert size == 64 and len(image) == 64
    assert app.PER_POINT_S * size >= 12 * 0.005


@pytest.mark.serve
@pytest.mark.slow
class TestServeLeg:
    @pytest.mark.timeout(180)
    def test_preempt_resume_stays_conformant(self):
        report = run_differential(app="2dconv", size=24, serve=True,
                                  executors=("simulated",))
        assert report.serve is not None
        assert report.serve["ok"], report.serve["problems"]
        assert report.serve["preemptions"] >= 1
        assert all(state == "completed"
                   for state in report.serve["states"].values())
