"""Tests for output-sampling fill policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anytime.fill import (ConstantFill, MeanFill, NearestFill,
                                TreeFill, sample_levels)
from repro.anytime.permutations import (LfsrPermutation,
                                        ReversedPermutation, TreePermutation,
                                        _widths, sample_order, span_plans)
from repro.core.diffusive import chunk_boundaries


@pytest.fixture
def dense8():
    return np.arange(64, dtype=np.float64).reshape(8, 8)


@pytest.fixture
def order8():
    return TreePermutation().order((8, 8))


class TestTreeFill:
    def test_zero_count_returns_zeros(self, dense8, order8):
        out = TreeFill().fill(dense8, order8, 0)
        assert (out == 0).all()

    def test_full_count_is_exact(self, dense8, order8):
        out = TreeFill().fill(dense8, order8, 64)
        assert np.array_equal(out, dense8)

    def test_single_sample_floods_whole_output(self, dense8, order8):
        out = TreeFill().fill(dense8, order8, 1)
        assert (out == dense8[0, 0]).all()

    def test_four_samples_make_quadrant_blocks(self, dense8, order8):
        """Paper Figure 5 visualization: after 4 samples the output is a
        2x2 image upscaled 4x."""
        out = TreeFill().fill(dense8, order8, 4)
        for r0, c0 in [(0, 0), (0, 4), (4, 0), (4, 4)]:
            block = out[r0:r0 + 4, c0:c0 + 4]
            assert (block == dense8[r0, c0]).all()

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 9, 17, 40, 63])
    def test_computed_entries_always_preserved(self, dense8, order8,
                                               count):
        out = TreeFill().fill(dense8, order8, count)
        idx = order8[:count]
        assert np.array_equal(out.reshape(-1)[idx],
                              dense8.reshape(-1)[idx])

    @given(count=st.integers(min_value=0, max_value=256))
    @settings(max_examples=40, deadline=None)
    def test_every_prefix_produces_valid_output(self, count):
        dense = np.arange(256, dtype=np.float64).reshape(16, 16)
        order = TreePermutation().order((16, 16))
        out = TreeFill().fill(dense, order, count)
        assert out.shape == dense.shape
        assert np.isfinite(out).all()
        if count:
            # every filled value comes from a computed sample
            computed = set(dense.reshape(-1)[order[:count]].tolist())
            assert set(np.unique(out).tolist()) <= computed | {0.0}

    def test_does_not_modify_dense(self, dense8, order8):
        before = dense8.copy()
        TreeFill().fill(dense8, order8, 10)
        assert np.array_equal(dense8, before)

    def test_multichannel_output(self):
        """spatial_ndim restricts the sampled axes (RGB rides along)."""
        dense = np.arange(64 * 3, dtype=np.float64).reshape(8, 8, 3)
        order = TreePermutation().order((8, 8))
        out = TreeFill(spatial_ndim=2).fill(dense, order, 4)
        assert out.shape == dense.shape
        assert np.array_equal(out[0, 0], dense[0, 0])
        assert np.array_equal(out[3, 3], dense[0, 0])

    def test_one_dimensional(self):
        dense = np.arange(16, dtype=np.float64)
        order = TreePermutation().order(16)
        out = TreeFill().fill(dense, order, 2)
        assert (out[:8] == dense[0]).all()
        assert (out[8:] == dense[8]).all()

    def test_order_length_mismatch_raises(self, dense8):
        with pytest.raises(ValueError, match="match"):
            TreeFill().fill(dense8, np.arange(10), 5)

    def test_refinement_is_hierarchical(self):
        """Finer levels overwrite exactly their own blocks."""
        dense = np.arange(64, dtype=np.float64).reshape(8, 8)
        order = TreePermutation().order((8, 8))
        f4 = TreeFill().fill(dense, order, 4)
        f16 = TreeFill().fill(dense, order, 16)
        # the 16-sample fill agrees with the dense data on sampled spots
        idx = order[:16]
        assert np.array_equal(f16.reshape(-1)[idx],
                              dense.reshape(-1)[idx])
        # and is at least as close to the truth everywhere (block-wise)
        err4 = np.abs(f4 - dense).sum()
        err16 = np.abs(f16 - dense).sum()
        assert err16 <= err4


class TestSharedTreeFill:
    """Levels belong to an order, not to an (n, shape) pair: one fill
    instance serving two orders of the same shape must not mix them."""

    @pytest.mark.parametrize("memoised", [False, True])
    def test_two_orders_one_instance(self, memoised):
        dense = np.arange(256, dtype=np.float64).reshape(16, 16)
        perms = [TreePermutation(), LfsrPermutation(seed=3)]
        orders = [sample_order(p, (16, 16)) if memoised
                  else p.order((16, 16)) for p in perms]
        shared = TreeFill()
        for order in orders:
            for count in (1, 5, 40, 200):
                assert np.array_equal(shared.fill(dense, order, count),
                                      TreeFill().fill(dense, order, count))


def block_paint(dense, order, count, spatial_ndim=None):
    """The tree fill one sample at a time: coarsest level first, each
    sample paints the block it owns at its level, clipped to the
    output."""
    shape = dense.shape[:spatial_ndim] if spatial_ndim else dense.shape
    out = np.zeros_like(dense)
    prefix = order[:max(count, 0)]
    levels = sample_levels(prefix, shape)
    for i in np.argsort(levels, kind="stable"):
        coord = np.unravel_index(prefix[i], shape)
        block = tuple(slice(c, c + (1 << max(w - levels[i], 0)))
                      for c, w in zip(coord, _widths(shape)))
        out[block] = dense[coord]
    return out


def owner_paint(dense, order, count, spatial_ndim=None):
    """The tree fill element by element: each takes the value of the
    finest prefix sample whose block holds it.  At level k the only
    candidate is the element's coordinate with its low bits cleared to
    a level-k block; that sample's block holds the element if it is in
    the prefix and is itself at level k.  Vectorized per level, so it
    checks whole 256 x 256 passes."""
    shape = dense.shape[:spatial_ndim] if spatial_ndim else dense.shape
    n = int(np.prod(shape))
    out = np.zeros_like(dense)
    sampled = np.zeros(n, dtype=bool)
    sampled[order[:max(count, 0)]] = True
    level = sample_levels(np.arange(n), shape)
    coords = np.indices(shape).reshape(len(shape), -1)
    src = dense.reshape((n,) + dense.shape[len(shape):])
    dst = out.reshape(src.shape)
    for k in range(max(_widths(shape), default=0) + 1):
        owner = np.ravel_multi_index(
            [c >> max(w - k, 0) << max(w - k, 0)
             for c, w in zip(coords, _widths(shape))], shape)
        hit = sampled[owner] & (level[owner] == k)
        dst[hit] = src[owner[hit]]
    return out


@st.composite
def painted_runs(draw):
    """A tree-sampled dense array (1-D, odd 2-D or 3-D; int64 or uint8;
    with or without an RGB axis) and a non-decreasing run of sample
    counts."""
    shape = draw(st.sampled_from([
        (draw(st.integers(1, 40)),),
        (draw(st.integers(1, 19)), draw(st.integers(1, 19))),
        tuple(draw(st.integers(1, 6)) for _ in range(3))]))
    rgb = draw(st.booleans())
    dtype = draw(st.sampled_from([np.int64, np.uint8]))
    n = int(np.prod(shape))
    m = n * (3 if rgb else 1)
    # every value nonzero, so no item matches a blank canvas cell; int64
    # values are also unique, so no item matches a wrong source
    values = np.arange(1, m + 1) if dtype is np.int64 \
        else np.arange(m) % 255 + 1
    dense = values.astype(dtype).reshape(shape + ((3,) if rgb else ()))
    counts = sorted(draw(st.lists(st.integers(0, n), min_size=1,
                                  max_size=8)))
    return dense, len(shape), counts


class TestTreePainter:
    """A pass's painter paints only each version's new samples; every
    version must still equal the fill of the whole prefix."""

    @given(painted_runs())
    @settings(max_examples=60, deadline=None)
    def test_every_advance_matches_block_painter(self, run):
        dense, ndim, counts = run
        order = TreePermutation().order(dense.shape[:ndim])
        painter = TreeFill(spatial_ndim=ndim).start(dense, order)
        for count in counts:
            expected = block_paint(dense, order, count, ndim)
            assert np.array_equal(painter.advance(count), expected)
            assert np.array_equal(
                TreeFill(spatial_ndim=ndim).fill(dense, order, count),
                expected)

    @given(painted_runs())
    @settings(max_examples=40, deadline=None)
    def test_owner_painter_is_the_block_painter(self, run):
        dense, ndim, counts = run
        order = TreePermutation().order(dense.shape[:ndim])
        for count in counts:
            assert np.array_equal(owner_paint(dense, order, count, ndim),
                                  block_paint(dense, order, count, ndim))

    @pytest.mark.parametrize("side", [61, 256])
    @pytest.mark.parametrize("kind", ["grey", "rgb", "int64"])
    def test_stage_spans_match_owner_painter(self, side, kind):
        """Every version a 32-chunk stage publishes over a pass: the
        spans chunk_boundaries hands it, on the dtypes the apps paint
        (2dconv and histeq grey, debayer RGB, kmeans int64 labels)."""
        rng = np.random.default_rng(side)
        trailing, dtype = {"grey": ((), np.uint8),
                           "rgb": ((3,), np.uint8),
                           "int64": ((), np.int64)}[kind]
        dense = rng.integers(0, 250, size=(side, side) + trailing
                             ).astype(dtype)
        order = sample_order(TreePermutation(), (side, side))
        painter = TreeFill(spatial_ndim=2).start(dense, order)
        for _, stop in chunk_boundaries(order.size, 32):
            assert np.array_equal(painter.advance(stop),
                                  owner_paint(dense, order, stop, 2))

    def test_published_versions_survive_later_advances(self):
        """Each advance returns its own array: a buffer freezes a
        transferred write in place, so a view of the grid would let
        the next advance rewrite a published version."""
        from repro.core.buffer import VersionedBuffer

        dense = np.arange(15 * 13, dtype=np.float64).reshape(15, 13)
        order = TreePermutation().order(dense.shape)
        painter = TreeFill().start(dense, order)
        buffer = VersionedBuffer("out")
        published = []
        for count in (1, 4, 30, 90, 195):
            buffer.write(painter.advance(count), transfer=True)
            published.append((count, buffer.snapshot().value))
        for count, value in published:
            assert not np.shares_memory(value, painter.grid)
            assert np.array_equal(value, block_paint(dense, order, count))

    def test_count_falling_back_repaints(self, dense8, order8):
        painter = TreeFill().start(dense8, order8)
        painter.advance(40)
        for count in (9, 3, 0, 17):
            assert np.array_equal(painter.advance(count),
                                  block_paint(dense8, order8, count))

    @pytest.mark.parametrize("perm", [LfsrPermutation(seed=3),
                                      ReversedPermutation()])
    def test_non_tree_order_repaints_correctly(self, perm):
        """An order whose levels go back down cannot be painted on
        top of what is there; such an advance repaints its prefix."""
        dense = np.arange(256, dtype=np.float64).reshape(16, 16)
        order = perm.order((16, 16))
        painter = TreeFill().start(dense, order)
        for count in (1, 5, 6, 40, 200, 256):
            assert np.array_equal(painter.advance(count),
                                  block_paint(dense, order, count))

    def test_painter_reads_samples_written_after_start(self, order8):
        """A stage starts its painter before computing anything and
        keeps writing into the same dense array."""
        truth = np.arange(64, dtype=np.float64).reshape(8, 8)
        dense = np.zeros_like(truth)
        painter = TreeFill().start(dense, order8)
        for start, stop in ((0, 3), (3, 20), (20, 64)):
            dense.reshape(-1)[order8[start:stop]] = \
                truth.reshape(-1)[order8[start:stop]]
            assert np.array_equal(painter.advance(stop),
                                  block_paint(truth, order8, stop))

    def test_mid_pass_restore_publishes_the_uninterrupted_ladder(
            self, tmp_path):
        """A checkpoint taken mid-pass carries no painter: the restored
        pass repaints its prefix once and every version it publishes is
        the one an uninterrupted run publishes."""
        from repro.apps.registry import get_app
        from repro.core.automaton import AnytimeAutomaton
        from repro.core.controller import VersionCountStop

        record = get_app("debayer")
        image = record.make_input(21, 4)
        term = record.build(image).terminal_buffer_name
        reference = record.build(image).run_simulated(watch={term})
        expected = {r.version: r.value
                    for r in reference.output_records(term)}
        path = tmp_path / "mid.rck"
        stopped = record.build(image).run_simulated(
            stop=VersionCountStop(3), checkpoint_at_stop=str(path))
        assert stopped.stopped_early
        resumed = AnytimeAutomaton.restore(
            str(path), builder=lambda: record.build(image))
        records = [r for r in resumed.run_simulated(
            watch={term}).output_records(term) if r.version > 3]
        assert records and records[-1].final
        for r in records:
            assert np.array_equal(r.value, expected[r.version])


def _dense(shape, kind, seed=0):
    """A dense array of ``shape`` in the dtype an app paints: grey
    (2dconv, histeq), RGB (debayer) or int64 labels (kmeans)."""
    trailing, dtype = {"grey": ((), np.uint8), "rgb": ((3,), np.uint8),
                       "int64": ((), np.int64)}[kind]
    rng = np.random.default_rng(seed)
    return rng.integers(0, 250, size=tuple(shape) + trailing).astype(dtype)


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


PLANNED = [(32, 32), (256, 256), (256, 128)]


class TestPaintPlans:
    """A warmed pass's painter replays the plan the memo keeps for each
    span, and the replay is the plan worked out afresh, bit for bit."""

    def _warmed(self, shape, kind, chunks=32):
        dense = _dense(shape, kind)
        order = sample_order(TreePermutation(), shape)
        spans = chunk_boundaries(order.size, chunks)
        fill = TreeFill(spatial_ndim=len(shape))
        fill.warm(order, dense.shape, spans)
        return dense, order, spans, fill

    @pytest.mark.parametrize("shape", PLANNED,
                             ids=[f"{h}x{w}" for h, w in PLANNED])
    @pytest.mark.parametrize("kind", ["grey", "rgb", "int64"])
    def test_a_whole_pass_replays_what_it_would_derive(self, shape, kind):
        dense, order, spans, fill = self._warmed(shape, kind)
        replayed = fill.start(dense, order)
        assert set(spans) <= set(replayed.plans)
        derived = fill.start(dense, order)
        derived.plans = {}
        for _, stop in spans:
            assert _same(replayed.advance(stop), derived.advance(stop))
            assert (replayed.level, replayed.complete) == \
                (derived.level, derived.complete)
            # the bookkeeping counts the prefix, however it was painted
            below = np.cumsum(np.bincount(
                replayed.levels[:stop], minlength=len(replayed.below)))
            assert np.array_equal(replayed.below, below)
            assert np.array_equal(derived.below, below)
        assert np.array_equal(replayed.grid, derived.grid)

    @pytest.mark.parametrize("shape", PLANNED,
                             ids=[f"{h}x{w}" for h, w in PLANNED])
    def test_replays_mix_with_derived_advances(self, shape):
        """A run fused by a lease, a count that falls back and a
        repeated count take the derived path; the plans after them
        still replay onto the canvas they left."""
        dense, order, spans, fill = self._warmed(shape, "rgb")
        stops = [b for _, b in spans]
        counts = [stops[0], stops[1], stops[3], stops[7], stops[8],
                  stops[2], stops[3], stops[3], stops[15], stops[16],
                  stops[17], stops[31]]
        painter = fill.start(dense, order)
        for count in counts:
            assert np.array_equal(painter.advance(count),
                                  owner_paint(dense, order, count, 2))

    @pytest.mark.parametrize("app", ["2dconv", "debayer", "kmeans"])
    @pytest.mark.parametrize("size", [32, 256])
    @pytest.mark.parametrize("lease_k", [1, 8])
    def test_stage_ladders_are_the_same_without_plans(self, app, size,
                                                      lease_k, monkeypatch):
        """Every version a stage publishes, its chunks computed one by
        one or fused by a lease, is the version it publishes when no
        plan is kept."""
        from repro.anytime import fill as fill_module
        from repro.apps.registry import get_app

        spec = get_app(app)
        data = spec.make_input(size, 5)
        ladders = []
        for plans in (True, False):
            if not plans:
                monkeypatch.setattr(fill_module, "span_plans",
                                    lambda order, shape: {})
            auto = spec.build(data)
            names = set(auto.graph.buffers)
            result = auto.run_simulated(total_cores=32, watch=names,
                                        lease_k=lease_k)
            assert result.completed
            ladders.append({name: [r.value for r in
                                   result.output_records(name)]
                            for name in names})
        with_plans, without = ladders
        assert with_plans.keys() == without.keys()
        for name, versions in with_plans.items():
            assert len(versions) == len(without[name])
            assert all(_same(a, b) for a, b in zip(versions, without[name]))

    @pytest.mark.parametrize("shape, perm", [
        ((61, 61), TreePermutation()), ((62, 62), TreePermutation()),
        ((16, 16), LfsrPermutation(seed=3)),
        ((16, 16), ReversedPermutation())],
        ids=["61x61", "62x62", "lfsr", "reversed"])
    def test_no_plan_where_spans_are_no_cosets(self, shape, perm):
        order = sample_order(perm, shape)
        spans = chunk_boundaries(order.size, 32)
        fill = TreeFill()
        fill.warm(order, shape, spans)
        assert span_plans(order, shape) == {}
        dense = _dense(shape, "int64")
        painter = fill.start(dense, order)
        for _, stop in spans:
            assert np.array_equal(painter.advance(stop),
                                  block_paint(dense, order, stop))

    def test_a_plan_is_shared_by_dtypes_and_trailing_axes(self):
        """Plans are spatial: warming for grey, RGB and int64 outputs
        of one order derives them once."""
        order = sample_order(TreePermutation(), (64, 64))
        spans = chunk_boundaries(order.size, 16)
        TreeFill(spatial_ndim=2).warm(order, (64, 64), spans)
        plans = span_plans(order, (64, 64))
        for kind in ("rgb", "int64"):
            dense = _dense((64, 64), kind)
            TreeFill(spatial_ndim=2).warm(order, dense.shape, spans)
            assert span_plans(order, (64, 64)) is plans
            painter = TreeFill(spatial_ndim=2).start(dense, order)
            for _, stop in spans:
                assert np.array_equal(painter.advance(stop),
                                      owner_paint(dense, order, stop, 2))


class TestWarmWorkers:
    """Plans are derived in a stage's warm step, in the parent: no run
    after the first derives one, and no forked worker does."""

    def test_runs_after_the_first_derive_no_plan(self, derivations):
        from repro.apps.conv2d import build_conv2d_automaton
        from repro.data import scene_image

        Counting, counts = derivations
        image = scene_image(32, seed=1)
        reference = build_conv2d_automaton(image).precise_output()
        found = []
        for executor in ("run_threaded", "run_processes", "run_threaded",
                         "run_processes"):
            auto = build_conv2d_automaton(image, permutation=Counting(),
                                          chunks=8)
            result = getattr(auto, executor)(timeout_s=60.0)
            assert result.completed
            assert np.array_equal(result.final_values["filtered"],
                                  reference)
            found.append(counts("plans"))
        # one derivation per span, in the first run's warm step
        assert found[0] == {"plans_here": 8, "plans_elsewhere": 0}
        assert found[-1] == found[0]


class TestSampleLevels:
    def test_level_zero_is_origin(self):
        order = TreePermutation().order((8, 8))
        levels = sample_levels(order, (8, 8))
        assert levels[0] == 0

    def test_level_counts_form_powers_of_four(self):
        order = TreePermutation().order((16, 16))
        levels = sample_levels(order, (16, 16))
        counts = np.bincount(levels)
        assert counts.tolist() == [1, 3, 12, 48, 192]


class TestNearestFill:
    def test_full_count_exact(self, dense8):
        order = LfsrPermutation().order(64)
        out = NearestFill().fill(dense8, order, 64)
        assert np.array_equal(out, dense8)

    def test_partial_count_uses_nearest_neighbor(self, dense8):
        order = LfsrPermutation().order(64)
        out = NearestFill().fill(dense8, order, 5)
        computed = set(dense8.reshape(-1)[order[:5]].tolist())
        assert set(np.unique(out).tolist()) <= computed

    def test_zero_count(self, dense8):
        out = NearestFill().fill(dense8, LfsrPermutation().order(64), 0)
        assert (out == 0).all()


class TestConstantFill:
    def test_fills_with_value(self, dense8):
        order = np.arange(64)
        out = ConstantFill(value=7.0).fill(dense8, order, 2)
        assert out[0, 0] == dense8[0, 0]
        assert out[7, 7] == 7.0


class TestMeanFill:
    def test_fills_with_running_mean(self, dense8):
        order = np.arange(64)
        out = MeanFill().fill(dense8, order, 4)
        assert np.allclose(out[7, 7], dense8.reshape(-1)[:4].mean())
        assert np.array_equal(out.reshape(-1)[:4],
                              dense8.reshape(-1)[:4])

    def test_zero_count(self, dense8):
        out = MeanFill().fill(dense8, np.arange(64), 0)
        assert (out == 0).all()
