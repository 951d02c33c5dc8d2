"""Smoke tests for the benchmark harness (small sizes)."""

import math
import os
from unittest import mock

import pytest

from repro.bench.experiments import (ablation_locality,
                                     ablation_scheduling,
                                     ablation_threads,
                                     fig02_pipeline_schedule,
                                     fig10_organizations, fig11_conv2d,
                                     fig16_conv2d_output,
                                     fig19_precision, fig20_sram)
from repro.bench.harness import (FigureData, bench_cores, bench_size,
                                 format_rows)


class TestHarness:
    def test_bench_size_default_and_override(self):
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop("REPRO_BENCH_SIZE", None)
            assert bench_size(128) == 128
        with mock.patch.dict(os.environ, {"REPRO_BENCH_SIZE": "64"}):
            assert bench_size() == 64

    def test_bench_size_rejects_tiny(self):
        with mock.patch.dict(os.environ, {"REPRO_BENCH_SIZE": "4"}):
            with pytest.raises(ValueError):
                bench_size()

    def test_bench_cores_override(self):
        with mock.patch.dict(os.environ, {"REPRO_BENCH_CORES": "8"}):
            assert bench_cores() == 8.0

    @pytest.mark.parametrize("raw", ["abc", "12.5.1", ""])
    def test_bench_size_rejects_non_numeric(self, raw):
        with mock.patch.dict(os.environ, {"REPRO_BENCH_SIZE": raw}):
            with pytest.raises(ValueError,
                               match="REPRO_BENCH_SIZE"):
                bench_size()

    @pytest.mark.parametrize("raw", ["0", "-32"])
    def test_bench_size_rejects_non_positive(self, raw):
        with mock.patch.dict(os.environ, {"REPRO_BENCH_SIZE": raw}):
            with pytest.raises(ValueError,
                               match="REPRO_BENCH_SIZE"):
                bench_size()

    @pytest.mark.parametrize("raw", ["many", "", "0", "-4", "inf",
                                     "nan"])
    def test_bench_cores_rejects_bad_values(self, raw):
        with mock.patch.dict(os.environ, {"REPRO_BENCH_CORES": raw}):
            with pytest.raises(ValueError,
                               match="REPRO_BENCH_CORES"):
                bench_cores()

    def test_trace_dir_captures_run_profile(self, tmp_path):
        import json

        import numpy as np

        from repro.anytime.permutations import TreePermutation
        from repro.bench.harness import run_profile
        from repro.core.automaton import AnytimeAutomaton
        from repro.core.buffer import VersionedBuffer
        from repro.core.mapstage import MapStage

        def build():
            img = np.arange(64, dtype=np.float64).reshape(8, 8)
            b_in = VersionedBuffer("in")
            b_out = VersionedBuffer("out")
            stage = MapStage(
                "m", b_out, (b_in,),
                lambda idx, im: np.asarray(im).reshape(-1)[idx] * 2,
                shape=(8, 8), dtype=np.float64,
                permutation=TreePermutation(), chunks=4)
            return AnytimeAutomaton([stage], external={"in": img})

        with mock.patch.dict(os.environ, {"REPRO_BENCH_TRACE_DIR":
                                          str(tmp_path)}):
            run_profile(build, cores=4.0)
        files = [f for f in os.listdir(tmp_path)
                 if f.endswith(".json")]
        assert len(files) == 1
        doc = json.load(open(tmp_path / files[0]))
        assert doc["traceEvents"]

    def test_figure_data_rejects_ragged_rows(self):
        fig = FigureData("F", "t", headers=("a", "b"))
        with pytest.raises(ValueError):
            fig.add(1)

    def test_render_includes_notes_and_rows(self):
        fig = FigureData("Figure X", "demo", headers=("k", "v"))
        fig.add("x", 1.5)
        fig.note("hello")
        text = fig.render()
        assert "Figure X" in text and "hello" in text
        assert "1.500" in text

    def test_format_rows_inf(self):
        text = format_rows(("v",), [(math.inf,), (-math.inf,)])
        assert "inf" in text and "-inf" in text

    def test_format_rows_empty(self):
        assert format_rows(("a", "b"), []) == "a  b"


class TestExperimentsSmoke:
    """Each experiment runs end to end at a reduced size and produces a
    well-formed figure."""

    def test_fig02(self):
        fig = fig02_pipeline_schedule()
        assert fig.rows and len(fig.headers) == 3

    def test_fig10(self):
        fig = fig10_organizations(m=16)
        assert len(fig.rows) == 5

    def test_fig11_small(self):
        fig = fig11_conv2d(size=32)
        assert math.isinf(fig.rows[-1][1])

    def test_fig16_small(self):
        fig = fig16_conv2d_output(size=32)
        assert len(fig.rows) == 3

    def test_fig19_small(self):
        fig = fig19_precision(size=32)
        bits_seen = {row[0] for row in fig.rows}
        assert bits_seen == {8, 6, 4, 2}

    def test_fig20_small(self):
        fig = fig20_sram(size=32)
        labels = {row[0] for row in fig.rows}
        assert labels == {"0%", "0.00001%", "0.001%"}

    def test_ablation_threads_small(self):
        fig = ablation_threads(size=256)
        assert all(isinstance(row[-1], bool) for row in fig.rows)

    def test_ablation_scheduling(self):
        fig = ablation_scheduling(cost=10.0)
        assert len(fig.rows) == 8   # 4 policies x 2 shapes

    def test_ablation_locality_small(self):
        fig = ablation_locality(elements=2048)
        assert {row[0] for row in fig.rows} == \
            {"sequential", "tree", "lfsr"}

