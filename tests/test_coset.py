"""Strided cosets: tree-order chunks read, written and painted by slice.

Every chunk of a tree order over a power-of-two shape, and every
aligned power-of-two run of chunks (a batching stage fuses runs of
``BATCH``), is a coset — one arithmetic progression per axis.  These
tests pin the memo's cosets to the order they describe, and the coset
path of every kernel that takes one (2dconv, debayer, kmeans, the
``MapStage`` scatter, the tree painter) to the index-array path bit
for bit.  Spans that are no coset
(61², 62², a geometric schedule, an unaligned run) keep the index
arrays, and publish the same ladder.
"""

import os
import signal

import numpy as np
import pytest

from repro.anytime import fill as fill_module
from repro.anytime.coset import (Coset, find_coset, join_cosets,
                                 read_samples, write_samples)
from repro.anytime.fill import TreeFill
from repro.anytime.permutations import (TreePermutation, derive_cosets,
                                        sample_order, span_cosets)
from repro.apps.conv2d import blur_kernel, build_conv2d_automaton
from repro.apps.debayer import build_debayer_automaton, debayer_precise
from repro.apps.kmeans import KMeansAssignStage, initial_centroids
from repro.apps.registry import get_app
from repro.core import diffusive
from repro.core.automaton import AnytimeAutomaton
from repro.core.buffer import VersionedBuffer
from repro.core.diffusive import chunk_boundaries
from repro.core.faults import FaultPolicy
from repro.core.mapstage import MapStage
from repro.data import bayer_mosaic, clustered_image, scene_image
from tests.test_fill import owner_paint

pytestmark = pytest.mark.timeout(120)

#: an integer kernel that is no outer product of integer vectors
NOT_SEPARABLE = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]])

POWER_OF_TWO = [(32, 32), (64, 64), (256, 256), (1024, 1024), (256, 128)]


def _aligned_runs(spans):
    """``spans`` and every aligned power-of-two run of them — the runs
    of ``2**j`` spans from a multiple of ``2**j`` — each as one
    ``(start, stop)``."""
    out = list(spans)
    width = 2
    while width <= len(spans):
        out += [(spans[i][0], spans[i + width - 1][1])
                for i in range(0, len(spans) - width + 1, width)]
        width *= 2
    return out


def _cosets(shape, chunks=32, schedule="uniform"):
    """The tree order over ``shape``, its chunk spans, and the memo's
    cosets of every aligned power-of-two run of them."""
    order = sample_order(TreePermutation(), shape)
    spans = chunk_boundaries(order.size, chunks, schedule=schedule)
    derive_cosets(order, shape, ("test", chunks, schedule),
                  lambda: _aligned_runs(spans))
    return order, spans, span_cosets(order, shape)


def _ladder(auto, **run):
    """Every published terminal version of a simulated run."""
    term = auto.terminal_buffer_name
    result = auto.run_simulated(total_cores=32, watch={term}, **run)
    return [(r.version, r.final, r.time, r.value)
            for r in result.output_records(term)]


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _same_ladders(x, y):
    return len(x) == len(y) and all(
        p[:3] == q[:3] and _same(p[3], q[3]) for p, q in zip(x, y))


@pytest.fixture()
def gathers(monkeypatch):
    """Switch the cosets off: stages and painters find none, and
    painters no paint plan (whose steps are strided), so every span
    takes its index array."""
    def nothing(order, shape):
        return {}

    def off():
        monkeypatch.setattr(diffusive, "span_cosets", nothing)
        monkeypatch.setattr(fill_module, "span_cosets", nothing)
        monkeypatch.setattr(fill_module, "span_plans", nothing)
    return off


# -- the memo's cosets ----------------------------------------------------

@pytest.mark.parametrize("shape", POWER_OF_TWO,
                         ids=[f"{h}x{w}" for h, w in POWER_OF_TWO])
def test_every_chunk_and_aligned_run_is_a_coset(shape):
    order, spans, cosets = _cosets(shape)
    runs = _aligned_runs(spans)
    assert len(runs) == 63
    for a, b in runs:
        coset = cosets[a, b]
        assert coset is not None, (a, b)
        assert coset.size == b - a
        assert np.array_equal(np.sort(coset.indices(), axis=None),
                              np.sort(order[a:b]))
        if max(shape) <= 256:
            # a run joined from its halves is the coset found directly
            assert coset == find_coset(order[a:b], shape)


@pytest.mark.parametrize("shape", [(61, 61), (62, 62)])
def test_no_chunk_of_an_odd_size_is_a_coset(shape):
    _, spans, cosets = _cosets(shape)
    assert all(cosets[span] is None for span in spans)


def test_a_geometric_schedule_has_spans_that_are_no_coset():
    _, spans, cosets = _cosets((256, 256), schedule="geometric")
    found = [cosets[span] is not None for span in spans]
    assert not all(found)


def test_find_coset_rejects_what_is_no_product():
    shape = (8, 8)
    assert find_coset(np.array([0, 1, 8]), shape) is None      # an L
    assert find_coset(np.array([0, 1, 3]), shape) is None      # gaps
    assert find_coset(np.array([], dtype=np.int64), shape) is None
    assert find_coset(np.array([9, 11, 25, 27]), shape) == Coset(
        [(1, 2, 2), (1, 2, 2)], shape)
    assert find_coset(np.array([5]), shape) == Coset([(0, 1, 1),
                                                      (5, 1, 1)], shape)


def test_join_cosets_is_the_union_or_nothing():
    shape = (8, 8)
    left = Coset([(0, 2, 4), (0, 4, 2)], shape)
    assert join_cosets(left, Coset([(0, 2, 4), (2, 4, 2)], shape)) == \
        Coset([(0, 2, 4), (0, 2, 4)], shape)
    assert join_cosets(left, Coset([(1, 2, 4), (0, 4, 2)], shape)) == \
        Coset([(0, 1, 8), (0, 4, 2)], shape)
    assert join_cosets(left, Coset([(1, 2, 4), (2, 4, 2)], shape)) is None


def test_coset_geometry():
    shape = (12, 10)
    coset = Coset([(1, 3, 4), (2, 2, 3)], shape)
    grid = np.arange(120).reshape(shape)
    assert coset.counts == (4, 3) and coset.size == 12
    assert np.array_equal(coset.indices(), grid[coset.slices])
    inner = Coset([(4, 6, 2), (4, 2, 1)], shape)
    assert np.array_equal(grid[coset.slices][inner.within(coset)],
                          grid[inner.slices])
    halves = coset.split(0)
    assert [h.axes[0] for h in halves] == [(1, 6, 2), (4, 6, 2)]
    assert np.array_equal(Coset.whole(shape).indices(), grid)


def test_samples_read_and_write_by_slice_as_by_index():
    rng = np.random.default_rng(0)
    shape = (16, 8)
    coset = Coset([(1, 4, 4), (0, 3, 3)], shape)
    idx = coset.indices().ravel()
    for trailing in ((), (3,)):
        source = rng.integers(0, 256, size=shape + trailing)
        got = read_samples(source, coset, 2)
        assert np.array_equal(
            got.reshape((-1,) + trailing), read_samples(source, idx, 2))
        a, b = np.zeros_like(source), np.zeros_like(source)
        write_samples(a, coset, got, 2)
        write_samples(b, idx, got.reshape((-1,) + trailing), 2)
        assert np.array_equal(a, b)


# -- kernels: the coset path is the index path ----------------------------

def _samples(shape):
    """Sample sets as a run hands them out — every chunk and aligned
    run of a 32-chunk tree pass — plus the whole image and cosets of
    every parity and of odd strides."""
    _, spans, cosets = _cosets(shape)
    found = [cosets[span] for span in _aligned_runs(spans)]
    extra = [Coset.whole(shape)]
    h, w = shape
    for r0 in (0, 1):
        for c0 in (0, 1):
            for sr, sc in ((1, 1), (2, 2), (3, 5), (2, 4), (4, 1)):
                extra.append(Coset([(r0, sr, (h - r0 - 1) // sr + 1),
                                    (c0, sc, (w - c0 - 1) // sc + 1)],
                                   shape))
    return found + extra


def _check_kernel(element_fn, image, shape):
    for coset in _samples(shape):
        by_slice = element_fn(coset, image)
        by_index = element_fn(coset.indices().ravel(), image)
        assert by_slice.shape[:2] == coset.counts
        assert _same(np.ascontiguousarray(by_slice).reshape(by_index.shape),
                     by_index)


@pytest.mark.parametrize("shape", [(64, 64), (256, 128)],
                         ids=["64x64", "256x128"])
@pytest.mark.parametrize("kernel", [blur_kernel(), NOT_SEPARABLE],
                         ids=["separable", "not_separable"])
def test_conv2d_coset_path_is_the_gather_path(shape, kernel):
    image = scene_image(max(shape), seed=3)[:shape[0], :shape[1]]
    stage = build_conv2d_automaton(image, kernel=kernel).graph.stages[0]
    _check_kernel(stage.element_fn, image, shape)


@pytest.mark.parametrize("shape", [(64, 64), (256, 128)],
                         ids=["64x64", "256x128"])
def test_debayer_coset_path_is_the_gather_path(shape):
    mosaic = bayer_mosaic(max(shape), seed=3)[:shape[0], :shape[1]]
    stage = build_debayer_automaton(mosaic).graph.stages[0]
    _check_kernel(stage.element_fn, mosaic, shape)


def test_debayer_reads_each_site_class_by_its_coset():
    """A stride-2 coset of each parity holds one RGGB class; together
    they are the whole image."""
    mosaic = bayer_mosaic(64, seed=5)
    stage = build_debayer_automaton(mosaic).graph.stages[0]
    out = np.zeros((64, 64, 3), dtype=np.uint8)
    for r0 in (0, 1):
        for c0 in (0, 1):
            coset = Coset([(r0, 2, 32), (c0, 2, 32)], (64, 64))
            write_samples(out, coset, stage.element_fn(coset, mosaic), 2)
    assert np.array_equal(out, debayer_precise(mosaic))


@pytest.mark.parametrize("shape", [(64, 64), (32, 128)],
                         ids=["64x64", "32x128"])
def test_kmeans_coset_path_is_the_gather_path(shape):
    image = clustered_image(max(shape), seed=2)[:shape[0], :shape[1]]
    centroids = initial_centroids(image, 6)
    order, spans, cosets = _cosets(shape)
    states = []
    for use_cosets in (True, False):
        stage = KMeansAssignStage("a", VersionedBuffer("p"),
                                  VersionedBuffer("c"),
                                  VersionedBuffer("i"), shape, k=6)
        state = stage.init_state((centroids, image))
        for a, b in spans:
            samples = cosets[a, b] if use_cosets else order[a:b]
            at = (samples.within(samples) if use_cosets
                  else (slice(0, b - a),))
            values = (centroids, image)
            computed = stage.batch_chunks(state, samples, values)
            stage.apply_chunk(state, samples, computed, at, values)
            states.append({key: np.copy(value)
                           for key, value in state.items()})
    half = len(states) // 2
    for slices, gathers in zip(states[:half], states[half:]):
        assert _same(slices, gathers)


def test_mapstage_apply_chunk_places_each_share():
    """A fused batch over a run's coset, shared out by ``within``,
    writes what a batch of one chunk's index array writes, chunk by
    chunk."""
    shape = (32, 32)
    image = np.arange(1024, dtype=np.int64).reshape(shape)
    order, spans, cosets = _cosets(shape)

    def fn(samples, img):
        return read_samples(img, samples, 2) * 7

    stage = MapStage("m", VersionedBuffer("o"), (VersionedBuffer("i"),),
                     fn, shape=shape, dtype=np.int64)
    fused, by_chunk = np.zeros(shape, np.int64), np.zeros(shape, np.int64)
    run = spans[8:16]
    whole = cosets[run[0][0], run[-1][1]]
    batch = stage.batch_chunks(fused, whole, (image,))
    for a, b in run:
        stage.apply_chunk(fused, cosets[a, b], batch,
                          cosets[a, b].within(whole), (image,))
        alone = stage.batch_chunks(by_chunk, order[a:b], (image,))
        stage.apply_chunk(by_chunk, order[a:b], alone, (slice(0, b - a),),
                          (image,))
    assert np.array_equal(fused, by_chunk)


@pytest.mark.parametrize("trailing,dtype", [((), np.uint8),
                                            ((3,), np.uint8),
                                            ((), np.int64)],
                         ids=["grey", "rgb", "int64"])
@pytest.mark.parametrize("shape", [(64, 64), (256, 128), (61, 61)],
                         ids=["64x64", "256x128", "61x61"])
def test_tree_painter_paints_cosets_as_it_gathers(shape, trailing, dtype):
    rng = np.random.default_rng(1)
    dense = rng.integers(0, 200, size=shape + trailing).astype(dtype)
    order = sample_order(TreePermutation(), shape)
    spans = chunk_boundaries(order.size, 32)
    policy = TreeFill(spatial_ndim=2)
    policy.warm(order, dense.shape, spans)
    by_slice = policy.start(dense, order)
    by_index = policy.start(dense, order)
    by_index.cosets = {}
    for _, stop in spans:
        painted = by_slice.advance(stop)
        assert _same(painted, by_index.advance(stop))
        assert np.array_equal(painted, owner_paint(dense, order, stop, 2))
    # a repaint from the start after a step back, and an uneven step
    for count in (100, 3000 % order.size, order.size):
        assert _same(by_slice.advance(count), by_index.advance(count))


# -- runs: the same ladder with cosets and without ------------------------

RUN_APPS = ["2dconv", "debayer", "kmeans", "histeq"]


@pytest.mark.parametrize("size", [64, 61])
@pytest.mark.parametrize("app", RUN_APPS)
def test_ladders_are_the_same_without_cosets(app, size, gathers):
    spec = get_app(app)
    image = spec.make_input(size, 4)
    with_cosets = _ladder(spec.build(image))
    gathers()
    assert _same_ladders(with_cosets, _ladder(spec.build(image)))


def _conv_stage_automaton(image, **kwargs):
    """2dconv's stage, rebuilt with other chunking settings."""
    fn = build_conv2d_automaton(image).graph.stages[0].element_fn
    stage = MapStage("conv", VersionedBuffer("filtered"),
                     (VersionedBuffer("input"),), fn, shape=image.shape,
                     dtype=np.uint8, **kwargs)
    return AnytimeAutomaton([stage], external={"input": image})


def test_a_geometric_schedule_publishes_the_same_ladder(gathers):
    image = scene_image(128, seed=1)
    auto = _conv_stage_automaton(image, chunk_schedule="geometric")
    with_cosets = _ladder(auto)
    gathers()
    auto = _conv_stage_automaton(image, chunk_schedule="geometric")
    assert _same_ladders(with_cosets, _ladder(auto))


@pytest.mark.parametrize("width", [3, 8])
def test_threaded_grants_publish_the_same_versions(width, gathers, batch):
    """A width of 3 fuses unaligned runs (index arrays); 8 fuses
    aligned ones (cosets)."""
    batch(width)
    image = scene_image(128, seed=2)
    values = {}
    for use_cosets in (True, False):
        if not use_cosets:
            gathers()
        auto = build_conv2d_automaton(image)
        result = auto.run_threaded(watch={"filtered"}, timeout_s=60)
        values[use_cosets] = [r.value for r in
                              result.output_records("filtered")]
    assert len(values[True]) == len(values[False]) == 32
    assert all(np.array_equal(a, b)
               for a, b in zip(values[True], values[False]))


def test_a_whole_pass_grant_over_chunks_that_are_no_coset(gathers, batch):
    """At 61² the whole order is the stride-1 coset but no chunk is one,
    so a run of the whole pass fuses index arrays."""
    batch(32)
    image = scene_image(61, seed=3)
    _, spans, cosets = _cosets(image.shape)
    assert cosets[0, image.size] == Coset.whole(image.shape)
    with_cosets = _ladder(build_conv2d_automaton(image))
    gathers()
    assert _same_ladders(with_cosets,
                         _ladder(build_conv2d_automaton(image)))


def test_every_fused_run_reads_its_derived_coset(monkeypatch, gathers,
                                                 batch):
    """Each run of ``BATCH`` chunks a 256² 2dconv pass fuses, and each
    chunk it shares the run out to, is the coset the warm step derived,
    at 8 and again at 16 once the same order's memo holds the runs of
    8.  A 30-chunk pass fuses 8, 8, 8 and a tail of 6 chunks that are
    no cosets, and publishes the bits its gathers do."""
    image = get_app("2dconv").make_input(256, 1)

    def spied(auto):
        stage = auto.graph.stages[0]
        seen = {"batch": [], "apply": []}
        for kind, name in (("batch", "batch_chunks"),
                           ("apply", "apply_chunk")):
            def spy(state, samples, *rest, kind=kind,
                    real=getattr(stage, name)):
                seen[kind].append(samples)
                return real(state, samples, *rest)
            monkeypatch.setattr(stage, name, spy)
        return auto, seen

    for width in (8, 16):
        batch(width)
        auto, seen = spied(build_conv2d_automaton(image))
        assert _ladder(auto)[-1][1]
        runs = 32 // width
        assert [s.size for s in seen["batch"]] == [image.size // runs] * runs
        assert len(seen["apply"]) == 32
        assert all(isinstance(s, Coset)
                   for s in seen["batch"] + seen["apply"])
    batch(8)

    auto, seen = spied(_conv_stage_automaton(image, chunks=30))
    with_cosets = _ladder(auto)
    spans = chunk_boundaries(image.size, 30)
    assert [len(s) for s in seen["batch"]] == [
        spans[b - 1][1] - spans[a][0]
        for a, b in ((0, 8), (8, 16), (16, 24), (24, 30))]
    gathers()
    assert _same_ladders(with_cosets,
                         _ladder(_conv_stage_automaton(image, chunks=30)))


# -- forked stage workers inherit the cosets ------------------------------

class TestWarmWorkers:
    """The parent derives each stage's cosets before the first fork, so
    no process-executor worker derives one: not on a fresh run, not on
    a second, not after a re-fork."""

    def test_workers_derive_no_coset(self, derivations):
        Counting, counts = derivations
        image = scene_image(32, seed=1)
        reference = build_conv2d_automaton(image).precise_output()
        for run in range(2):
            auto = build_conv2d_automaton(image, permutation=Counting(),
                                          chunks=8)
            result = auto.run_processes(timeout_s=60.0)
            assert result.completed
            assert np.array_equal(result.final_values["filtered"],
                                  reference)
            found = counts("cosets")
            assert found["cosets_elsewhere"] == 0
            assert found["cosets_here"] > 0
            if run == 0:
                first = found
        assert found == first, "a second run derived again"

    def test_refork_after_kill_derives_no_coset(self, derivations,
                                                tmp_path):
        Counting, counts = derivations
        flag = str(tmp_path / "died-once")
        image = scene_image(32, seed=1)
        conv = build_conv2d_automaton(image).graph.stages[0].element_fn

        def fn(samples, img, path=flag):
            if not os.path.exists(path):
                open(path, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            return conv(samples, img)

        fn.reads_cosets = True
        stage = MapStage("conv", VersionedBuffer("filtered"),
                         (VersionedBuffer("input"),), fn,
                         shape=image.shape, dtype=np.uint8,
                         permutation=Counting(), chunks=8)
        auto = AnytimeAutomaton([stage], external={"input": image})
        result = auto.run_processes(
            faults=FaultPolicy(max_retries=1, on_failure="restart"),
            timeout_s=60.0)
        assert result.completed
        assert result.stage_reports["conv"].attempts == 2
        assert np.array_equal(result.final_values["filtered"],
                              build_conv2d_automaton(image)
                              .precise_output())
        found = counts("cosets")
        assert found["cosets_elsewhere"] == 0 and found["cosets_here"] > 0
