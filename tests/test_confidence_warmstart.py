"""Tests for warm-start streaming."""

import numpy as np
import pytest


class TestWarmStart:
    def make_frames(self):
        from repro.data.images import bayer_mosaic

        f0 = bayer_mosaic(64, seed=3)
        rng = np.random.default_rng(1)
        f1 = np.clip(f0.astype(np.int64)
                     + rng.integers(-4, 5, f0.shape),
                     0, 255).astype(np.uint8)
        return f0, f1

    def test_warm_start_boosts_first_version(self):
        from repro.apps.debayer import (build_debayer_automaton,
                                        debayer_precise)
        from repro.metrics.snr import snr_db

        f0, f1 = self.make_frames()
        prev = debayer_precise(f0)
        ref1 = debayer_precise(f1)
        firsts = {}
        for warm in (None, prev):
            auto = build_debayer_automaton(f1, chunks=32,
                                           warm_start=warm)
            res = auto.run_simulated(total_cores=8.0)
            firsts[warm is not None] = snr_db(
                res.output_records("rgb")[0].value, ref1)
        assert firsts[True] > firsts[False] + 10.0

    def test_warm_start_final_still_exact(self):
        from repro.apps.debayer import (build_debayer_automaton,
                                        debayer_precise)

        f0, f1 = self.make_frames()
        auto = build_debayer_automaton(f1, chunks=8,
                                       warm_start=debayer_precise(f0))
        res = auto.run_simulated(total_cores=8.0)
        final = res.timeline.final_record("rgb")
        assert np.array_equal(final.value, debayer_precise(f1))

    def test_warm_start_shape_validated(self):
        from repro.apps.conv2d import build_conv2d_automaton
        from repro.data.images import scene_image

        img = scene_image(32, seed=0)
        with pytest.raises(ValueError, match="warm_start"):
            build_conv2d_automaton(
                img, warm_start=np.zeros((8, 8), dtype=np.uint8))

    def test_dissimilar_warm_start_still_converges(self):
        """A *wrong* warm start costs quality early but never
        correctness — the guarantee is content-independent."""
        from repro.apps.conv2d import (build_conv2d_automaton,
                                       conv2d_precise)
        from repro.data.images import scene_image

        img = scene_image(32, seed=5)
        garbage = np.full((32, 32), 255, dtype=np.uint8)
        auto = build_conv2d_automaton(img, chunks=4,
                                      warm_start=garbage)
        res = auto.run_simulated(total_cores=8.0)
        final = res.timeline.final_record("filtered")
        assert np.array_equal(final.value, conv2d_precise(img))
