"""Tests for the kmeans application (paper Figures 15, 18)."""

import math

import numpy as np
import pytest

from repro.apps.kmeans import (_luma_bands, assign_pixels,
                               build_kmeans_automaton,
                               clustered_image_metric, initial_centroids,
                               kmeans_precise)
from repro.core.scheduling import final_stage_shares


class TestInitialCentroids:
    def test_shape_and_determinism(self, small_rgb):
        c = initial_centroids(small_rgb, 5)
        assert c.shape == (5, 3)
        assert np.array_equal(c, initial_centroids(small_rgb, 5))

    def test_ordered_by_luma(self, small_rgb):
        c = initial_centroids(small_rgb, 4)
        luma = c @ np.array([0.299, 0.587, 0.114])
        assert (np.diff(luma) >= -1e-9).all()

    def test_rejects_bad_k(self, small_rgb):
        with pytest.raises(ValueError):
            initial_centroids(small_rgb, 0)

    @pytest.mark.parametrize("levels", [1, 2, 3, 7, 256])
    @pytest.mark.parametrize("k", [1, 5, 6, 13])
    def test_bands_are_the_stable_rank_split(self, levels, k):
        """The sorted border lumas give the bands the partitioned ones
        did, and both are the stable luma ranking split as
        ``np.array_split`` splits it — on inputs made of few distinct
        lumas, so nearly every border falls inside a run of ties."""
        rng = np.random.default_rng(levels * 100 + k)
        for n in (k, 97, 4096):
            luma = rng.integers(0, levels, n).astype(np.float64) * 0.587
            partitioned = np.zeros(n, dtype=np.intp)
            sizes = np.full(k, n // k)
            sizes[:n % k] += 1
            borders = np.cumsum(sizes)[:-1]
            borders = borders[borders < n]
            for border, value in zip(borders,
                                     np.partition(luma, borders)[borders]):
                past = luma > value
                tied = np.flatnonzero(luma == value)
                below = n - tied.size - np.count_nonzero(past)
                past[tied[border - below:]] = True
                partitioned += past
            ranked = np.empty(n, dtype=np.intp)
            order = np.argsort(luma, kind="stable")
            for band, part in enumerate(np.array_split(order, k)):
                ranked[part] = band
            bands = _luma_bands(luma, k)
            assert np.array_equal(bands, partitioned)
            assert np.array_equal(bands, ranked)


class TestAssign:
    def test_nearest_centroid_chosen(self):
        centroids = np.array([[0.0, 0, 0], [100.0, 100, 100]])
        pixels = np.array([[10, 10, 10], [90, 95, 99]])
        assert assign_pixels(pixels, centroids).tolist() == [0, 1]

    def test_assignment_minimizes_distance(self, small_rgb, rng):
        centroids = rng.uniform(0, 255, (4, 3))
        pixels = small_rgb.reshape(-1, 3)[:50]
        labels = assign_pixels(pixels, centroids)
        d2 = ((pixels[:, None, :].astype(float)
               - centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(labels, np.argmin(d2, axis=1))


class TestPrecise:
    def test_output_is_palette_image(self, small_rgb):
        out = kmeans_precise(small_rgb, k=4)
        assert out.shape == small_rgb.shape and out.dtype == np.uint8
        colours = {tuple(c) for c in out.reshape(-1, 3).tolist()}
        assert len(colours) <= 4

    def test_more_epochs_tighter_clusters(self, small_rgb):
        """Extra epochs never increase the within-cluster error."""
        def sse(img, k, epochs):
            out = kmeans_precise(img, k=k, epochs=epochs)
            return ((out.astype(float)
                     - img.astype(float)) ** 2).sum()

        assert sse(small_rgb, 4, 3) <= sse(small_rgb, 4, 1) * 1.05


class TestAutomaton:
    def test_two_stage_structure(self, small_rgb):
        auto = build_kmeans_automaton(small_rgb, k=4)
        names = [s.name for s in auto.graph.stages]
        assert names == ["assign1", "reduce1"]
        assert auto.graph.stages[0].anytime
        assert not auto.graph.stages[1].anytime

    def test_final_output_matches_precise(self, small_rgb):
        auto = build_kmeans_automaton(small_rgb, k=4, chunks=8)
        ref = kmeans_precise(small_rgb, k=4)
        assert np.array_equal(auto.precise_output()["image"], ref)
        res = auto.run_simulated(total_cores=8.0)
        final = res.timeline.final_record("clustered1")
        assert np.array_equal(final.value["image"], ref)

    def test_profile_monotone_to_inf(self, small_rgb):
        auto = build_kmeans_automaton(small_rgb, k=4, chunks=8)
        res = auto.run_simulated(total_cores=8.0,
                                 schedule=final_stage_shares)
        prof = auto.profile(res, total_cores=8.0,
                            metric=clustered_image_metric)
        assert prof.is_monotonic(3.0)
        assert math.isinf(prof.final_snr_db)

    def test_intermediate_centroids_valid(self, small_rgb):
        auto = build_kmeans_automaton(small_rgb, k=4, chunks=8)
        res = auto.run_simulated(total_cores=8.0)
        for rec in res.output_records("clustered1"):
            c = rec.value["centroids"]
            assert c.shape == (4, 3)
            assert np.isfinite(c).all()
            assert (c >= 0).all() and (c <= 255).all()

    def test_multi_epoch_chain(self, small_rgb):
        auto = build_kmeans_automaton(small_rgb, k=4, epochs=2,
                                      chunks=4)
        names = [s.name for s in auto.graph.stages]
        assert names == ["assign1", "reduce1", "centroids1",
                         "assign2", "reduce2"]
        ref = kmeans_precise(small_rgb, k=4, epochs=2)
        res = auto.run_simulated(total_cores=8.0)
        final = res.timeline.final_record("clustered2")
        assert np.array_equal(final.value["image"], ref)

    def test_rejects_bad_epochs(self, small_rgb):
        with pytest.raises(ValueError):
            build_kmeans_automaton(small_rgb, epochs=0)

    def test_empty_cluster_keeps_previous_centroid(self):
        """An image with one colour leaves k-1 clusters empty; their
        centroids must survive the reduce unchanged."""
        img = np.full((8, 8, 3), 200, dtype=np.uint8)
        auto = build_kmeans_automaton(img, k=3, chunks=2)
        res = auto.run_simulated(total_cores=4.0)
        final = res.timeline.final_record("clustered1")
        assert np.isfinite(final.value["centroids"]).all()
