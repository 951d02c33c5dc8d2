"""Sample kernels: bit-exact against their straightforward forms.

The stage kernels (2dconv's taps, debayer's neighbour gathers, kmeans'
distances and partial sums, the tree fill) and the whole-image
references (2dconv and debayer's slice kernels, kmeans' partition-based
seeding) are written for speed; these tests pin them to the plain
implementations they replaced, and pin every published version of every
app to a golden hash.
"""

import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anytime.permutations import (LfsrPermutation,
                                        SequentialPermutation,
                                        TreePermutation, sample_order)
from repro.apps.conv2d import (blur_kernel, build_conv2d_automaton,
                               conv2d_elements, conv2d_precise)
from repro.apps.debayer import (build_debayer_automaton, debayer_elements,
                                debayer_precise)
from repro.apps.dwt53 import dwt53_perforated, dwt53_rows
from repro.apps.histeq import histogram
from repro.apps.kmeans import (_luma_bands, _sums, assign_pixels,
                               initial_centroids, kmeans_precise)
from repro.apps.registry import get_app
from repro.core.diffusive import chunk_boundaries
from repro.serve.fleet import value_digest

#: sha256 over every app's input, reference and published terminal
#: versions (see :func:`_ladder`), taken before the kernels were
#: rewritten for speed; re-taken once when kmeans's reference became
#: the stage-2 dict (with its ``["image"]`` digested in its place, the
#: hash is the earlier 5e943cf1…)
GOLDEN_LADDER = \
    "bc39c4ef5ad7edbdcaddc4410d38560421fdc21ea3139b2d626a8f576cb34ef5"

APPS = ("2dconv", "histeq", "dwt53", "debayer", "kmeans")


def _ladder(app: str, seed: int, size: int) -> list[str]:
    spec = get_app(app)
    image = spec.make_input(size, seed)
    auto = spec.build(image)
    term = auto.terminal_buffer_name
    result = auto.run_simulated(total_cores=32, schedule=spec.schedule,
                                watch={term})
    parts = [value_digest(image), value_digest(spec.reference(image))]
    for rec in result.output_records(term):
        parts.append(f"{rec.version}:{rec.final}:{rec.time!r}:"
                     f"{value_digest(rec.value)}")
    return parts


def test_golden_version_ladder():
    """Every published version of all five apps, bit for bit, at a
    power-of-two and an odd size (dwt53 needs even sides: 64)."""
    h = hashlib.sha256()
    for app in APPS:
        for seed in (5, 6):
            for size in (256, 64 if app == "dwt53" else 61):
                h.update("\n".join(_ladder(app, seed, size)).encode())
    assert h.hexdigest() == GOLDEN_LADDER


# -- the clipped-gather oracles the kernels replaced -----------------------

def _conv_oracle(indices, image, kernel):
    h, w = image.shape
    off = kernel.shape[0] // 2
    rows, cols = indices // w, indices % w
    acc = np.zeros(len(indices), dtype=np.int64)
    for dy in range(kernel.shape[0]):
        rr = np.clip(rows + dy - off, 0, h - 1)
        for dx in range(kernel.shape[1]):
            cc = np.clip(cols + dx - off, 0, w - 1)
            acc += int(kernel[dy, dx]) * image[rr, cc].astype(np.int64)
    total = int(kernel.sum())
    return ((acc + total // 2) // total).astype(np.uint8)


def _debayer_oracle(indices, mosaic):
    h, w = mosaic.shape
    rows, cols = indices // w, indices % w

    def at(r, c):
        return mosaic[np.clip(r, 0, h - 1),
                      np.clip(c, 0, w - 1)].astype(np.int64)

    here = at(rows, cols)
    cross = (at(rows - 1, cols) + at(rows + 1, cols) + at(rows, cols - 1)
             + at(rows, cols + 1) + 2) // 4
    diag = (at(rows - 1, cols - 1) + at(rows - 1, cols + 1)
            + at(rows + 1, cols - 1) + at(rows + 1, cols + 1) + 2) // 4
    horiz = (at(rows, cols - 1) + at(rows, cols + 1) + 1) // 2
    vert = (at(rows - 1, cols) + at(rows + 1, cols) + 1) // 2
    sites = [(rows % 2 == 0) & (cols % 2 == 0),
             (rows % 2 == 0) & (cols % 2 == 1),
             (rows % 2 == 1) & (cols % 2 == 0),
             (rows % 2 == 1) & (cols % 2 == 1)]
    out = np.stack([np.select(sites, [here, horiz, vert, diag]),
                    np.select(sites, [cross, here, here, cross]),
                    np.select(sites, [diag, vert, horiz, here])], axis=-1)
    return np.clip(out, 0, 255).astype(np.uint8)


SHAPES = [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (2, 3), (5, 7),
          (12, 12), (61, 61)]


def _edge_indices(shape):
    """Corners, edges and an interior sample of a ``shape`` image."""
    h, w = shape
    rows = {0, 1, h // 2, h - 2, h - 1} & set(range(h))
    cols = {0, 1, w // 2, w - 2, w - 1} & set(range(w))
    return np.array(sorted(r * w + c for r in rows for c in cols),
                    dtype=np.int64)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("ksize", [1, 3, 9])
def test_conv2d_matches_clipped_gather(shape, ksize):
    rng = np.random.default_rng(ksize * 100 + shape[0])
    image = rng.integers(0, 256, size=shape).astype(np.uint8)
    kernel = blur_kernel(ksize)
    for indices in (_edge_indices(shape),
                    np.arange(image.size, dtype=np.int64)):
        assert np.array_equal(conv2d_elements(indices, image, kernel),
                              _conv_oracle(indices, image, kernel))


def test_conv2d_int64_image_matches_clipped_gather():
    """The SRAM variant convolves int64 read-back pixels."""
    image = np.random.default_rng(1).integers(0, 256, size=(13, 17))
    idx = np.arange(image.size, dtype=np.int64)
    kernel = blur_kernel()
    assert np.array_equal(conv2d_elements(idx, image, kernel),
                          _conv_oracle(idx, image, kernel))


@pytest.mark.parametrize("shape", SHAPES)
def test_debayer_matches_clipped_gather(shape):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    mosaic = rng.integers(0, 256, size=shape).astype(np.uint8)
    for indices in (_edge_indices(shape),
                    np.arange(mosaic.size, dtype=np.int64)):
        assert np.array_equal(debayer_elements(indices, mosaic),
                              _debayer_oracle(indices, mosaic))


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_sums_equal_add_at(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    pixels = rng.integers(0, 256, size=(int(rng.integers(0, 500)), 3),
                          dtype=np.uint8)
    labels = rng.integers(0, k, size=len(pixels))
    expected = np.zeros((k, 3), dtype=np.float64)
    np.add.at(expected, labels, pixels.astype(np.float64))
    got = _sums(pixels, labels, k)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# -- whole-image references against the per-pixel kernels ---------------

def _conv_precise_oracle(image, kernel):
    """The 2dconv reference as the per-pixel kernel at every pixel."""
    idx = np.arange(image.size, dtype=np.int64)
    return conv2d_elements(idx, image, kernel).reshape(image.shape)


def _debayer_precise_oracle(mosaic):
    idx = np.arange(mosaic.size, dtype=np.int64)
    return debayer_elements(idx, mosaic).reshape(mosaic.shape + (3,))


#: an integer kernel that is no outer product of integer vectors
NOT_SEPARABLE = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]])


@pytest.mark.parametrize("shape", [(1, 1), (7, 7), (5, 12), (12, 5),
                                   (256, 256)])
@pytest.mark.parametrize("kernel", [blur_kernel(1), blur_kernel(3),
                                    blur_kernel(5), blur_kernel(9),
                                    NOT_SEPARABLE],
                         ids=["blur1", "blur3", "blur5", "blur9",
                              "not_separable"])
def test_conv2d_precise_equals_per_pixel_kernel(shape, kernel):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    image = rng.integers(0, 256, size=shape).astype(np.uint8)
    assert np.array_equal(conv2d_precise(image, kernel),
                          _conv_precise_oracle(image, kernel))


@st.composite
def _integer_kernels(draw):
    """Odd square integer kernels with a positive sum, half of them
    outer products (zero, negative and non-coprime entries included)."""
    k = draw(st.sampled_from([1, 3, 5]))
    entries = st.integers(-4, 6)
    if draw(st.booleans()):
        col = np.array(draw(st.lists(entries, min_size=k, max_size=k)))
        row = np.array(draw(st.lists(entries, min_size=k, max_size=k)))
        kernel = np.outer(col, row)
    else:
        kernel = np.array(draw(st.lists(entries, min_size=k * k,
                                        max_size=k * k))).reshape(k, k)
    if kernel.sum() <= 0:
        kernel[k // 2, k // 2] += 1 - kernel.sum()
    return kernel


@given(kernel=_integer_kernels(), h=st.integers(1, 13),
       w=st.integers(1, 13), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_conv2d_precise_any_integer_kernel(kernel, h, w, seed):
    """Both slice paths (two 1-D passes, one slice per tap), also on the
    int64 pixels the SRAM variant convolves."""
    image = np.random.default_rng(seed).integers(0, 256, size=(h, w))
    for img in (image.astype(np.uint8), image):
        assert np.array_equal(conv2d_precise(img, kernel),
                              _conv_precise_oracle(img, kernel))


@pytest.mark.parametrize("shape", SHAPES + [(6, 8), (64, 64), (63, 65),
                                            (256, 256)])
def test_debayer_precise_equals_per_pixel_kernel(shape):
    rng = np.random.default_rng(shape[0] * 13 + shape[1])
    mosaic = rng.integers(0, 256, size=shape).astype(np.uint8)
    assert np.array_equal(debayer_precise(mosaic),
                          _debayer_precise_oracle(mosaic))


# -- the stages' memoised element functions against the oracles ----------

def _conv_stage_fn(image, kernel):
    """2dconv's element function as a run calls it, with its memo."""
    return build_conv2d_automaton(image.astype(np.uint8), kernel=kernel,
                                  ).graph.stages[0].element_fn


def _debayer_stage_fn(mosaic):
    return build_debayer_automaton(mosaic).graph.stages[0].element_fn


ORDERS = {"tree": TreePermutation(), "lfsr": LfsrPermutation(seed=3),
          "sequential": SequentialPermutation()}


@st.composite
def _image_shapes(draw):
    """1 x N, N x 1, odd, 61 x 61 and 256 x 256."""
    n = draw(st.integers(1, 40))
    return draw(st.sampled_from([(1, n), (n, 1),
                                 (2 * draw(st.integers(0, 10)) + 1,
                                  2 * draw(st.integers(0, 10)) + 1),
                                 (61, 61), (256, 256)]))


@st.composite
def _index_runs(draw, shape):
    """The index sets one element function sees in a row: every chunk
    of a tree, LFSR or sequential pass, or a few random sets (unsorted,
    with repeats, possibly empty)."""
    n = shape[0] * shape[1]
    kind = draw(st.sampled_from(sorted(ORDERS) + ["random"]))
    if kind != "random":
        order = sample_order(ORDERS[kind], shape)
        spans = chunk_boundaries(n, draw(st.integers(1, 40)))
        return [order[a:b] for a, b in spans]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return [rng.integers(0, n, size=int(rng.integers(0, 2 * n + 1)))
            for _ in range(draw(st.integers(1, 4)))]


@given(data=st.data(), kernel=_integer_kernels(),
       wide=st.booleans(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_conv2d_stage_kernel_matches_clipped_gather(data, kernel, wide,
                                                    seed):
    """The column cache fills as the index sets arrive; every set, in
    every order, on uint8 and on the int64 pixels the SRAM variant
    convolves, gets the gather's integers."""
    shape = data.draw(_image_shapes())
    image = np.random.default_rng(seed).integers(0, 256, size=shape)
    image = image if wide else image.astype(np.uint8)
    element_fn = _conv_stage_fn(image, kernel)
    for indices in data.draw(_index_runs(shape)):
        assert np.array_equal(element_fn(indices, image),
                              _conv_oracle(indices, image, kernel))


@pytest.mark.parametrize("kernel", [blur_kernel(), NOT_SEPARABLE],
                         ids=["blur9", "not_separable"])
@pytest.mark.parametrize("perm", sorted(ORDERS))
def test_conv2d_stage_pass_at_256(kernel, perm):
    """A whole pass as a run's 32 leases hand it out."""
    image = get_app("2dconv").make_input(256, 2)
    element_fn = _conv_stage_fn(image, kernel)
    order = sample_order(ORDERS[perm], image.shape)
    for a, b in chunk_boundaries(image.size, 32):
        assert np.array_equal(element_fn(order[a:b], image),
                              _conv_oracle(order[a:b], image, kernel))


#: kernels with wide weights: the sums of uint8 pixels under them
#: pass 2**31; the wide int64 pixels below pass it on their own
WIDE_KERNELS = {
    "single_tap": np.array([[2 ** 23 + 2 ** 17]]),
    "mixed_signs": np.array([[-(2 ** 21), 2 ** 21, 2 ** 21 - 1]] * 3),
    "blur9": blur_kernel(),
}


@pytest.mark.parametrize("name", sorted(WIDE_KERNELS))
@pytest.mark.parametrize("fill", ["white", "noise", "wide"])
def test_conv2d_is_exact_on_wide_sums(name, fill):
    """Sums far beyond int32, from wide weights or from int64 pixels
    beyond int32, are the gather's integers in every kernel."""
    kernel = WIDE_KERNELS[name]
    rng = np.random.default_rng(len(name))
    image = {"white": np.full((7, 9), 255, dtype=np.uint8),
             "noise": rng.integers(0, 256, size=(7, 9)).astype(np.uint8),
             "wide": rng.integers(0, 2 ** 32, size=(7, 9))}[fill]
    idx = np.arange(image.size, dtype=np.int64)
    expected = _conv_oracle(idx, image, kernel)
    assert np.array_equal(conv2d_elements(idx, image, kernel), expected)
    assert np.array_equal(_conv_stage_fn(image, kernel)(idx, image),
                          expected)
    assert np.array_equal(conv2d_precise(image, kernel).reshape(-1),
                          expected)


def _site_class(indices, width):
    return (indices // width & 1) * 2 + (indices % width & 1)


@given(data=st.data(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_debayer_stage_kernel_matches_clipped_gather(data, seed):
    shape = data.draw(_image_shapes())
    mosaic = np.random.default_rng(seed).integers(
        0, 256, size=shape).astype(np.uint8)
    element_fn = _debayer_stage_fn(mosaic)
    for indices in data.draw(_index_runs(shape)):
        assert np.array_equal(element_fn(indices, mosaic),
                              _debayer_oracle(indices, mosaic))


@pytest.mark.parametrize("shape", [(6, 8), (61, 61), (1, 9), (9, 1)])
def test_debayer_single_and_mixed_class_index_sets(shape):
    mosaic = np.random.default_rng(shape[0]).integers(
        0, 256, size=shape).astype(np.uint8)
    element_fn = _debayer_stage_fn(mosaic)
    everything = np.arange(mosaic.size, dtype=np.int64)
    sites = _site_class(everything, shape[1])
    sets = [everything[sites == cls] for cls in range(4)]
    sets += [everything[::-1], np.concatenate([sets[3], sets[0]]),
             everything[sites != 0]]
    for indices in sets:
        assert np.array_equal(element_fn(indices, mosaic),
                              _debayer_oracle(indices, mosaic))


def test_tree_order_chunks_are_mostly_one_site_class():
    """The premise of the per-class kernel: in tree order every sample
    coarser than the finest level is an R site, and each of the finest
    level's cosets is one class."""
    order = sample_order(TreePermutation(), (256, 256))
    single = sum(len(set(_site_class(order[a:b], 256).tolist())) == 1
                 for a, b in chunk_boundaries(order.size, 32))
    assert single >= 30


@pytest.mark.parametrize("app", ["2dconv", "debayer"])
def test_interleaved_inputs_each_get_their_own_values(app):
    """One element function fed two inputs by turns must not answer
    one from the other's padded image or column cache."""
    rng = np.random.default_rng(3)
    first, second = (rng.integers(0, 256, size=(19, 23)).astype(np.uint8)
                     for _ in range(2))
    if app == "2dconv":
        kernel = blur_kernel(5)
        element_fn = _conv_stage_fn(first, kernel)

        def oracle(indices, image):
            return _conv_oracle(indices, image, kernel)
    else:
        element_fn = _debayer_stage_fn(first)
        oracle = _debayer_oracle
    order = sample_order(TreePermutation(), first.shape)
    for a, b in chunk_boundaries(first.size, 8):
        for image in (first, second, first):
            assert np.array_equal(element_fn(order[a:b], image),
                                  oracle(order[a:b], image))


@pytest.mark.parametrize("app", ["2dconv", "debayer"])
def test_memo_does_not_keep_its_input_alive(app):
    """A process-executor stage reads its input as a view of shared
    memory; a memo that held it would keep the mapping alive."""
    image = np.random.default_rng(4).integers(
        0, 256, size=(16, 16)).astype(np.uint8)
    element_fn = (_conv_stage_fn(image, None) if app == "2dconv"
                  else _debayer_stage_fn(image))
    probe = image.copy()
    element_fn(np.arange(probe.size), probe)
    alive = weakref.ref(probe)
    del probe
    gc.collect()
    assert alive() is None


def _assign_oracle(pixels, centroids):
    """The assignment :func:`assign_pixels` was before it became a
    running minimum: ``(n, k)`` squared distances, channel by channel,
    and ``argmin``."""
    pixels = np.asarray(pixels)
    centroids = np.asarray(centroids, dtype=np.float64)
    d2 = np.zeros((len(pixels), len(centroids)))
    for ch in range(centroids.shape[1]):
        diff = pixels[:, ch, None] - centroids[:, ch]
        diff *= diff
        d2 += diff
    return np.argmin(d2, axis=1)


@st.composite
def _tied_assignments(draw):
    """k in 1..9 centroids, some duplicated, and pixels of which some
    sit exactly halfway between two centroids (even coordinate sums,
    so the midpoint is a whole pixel) or on a centroid."""
    k = draw(st.integers(1, 9))
    coord = st.integers(0, 127).map(lambda v: 2 * v)
    centroids = [draw(st.lists(coord, min_size=3, max_size=3))
                 for _ in range(k)]
    for j in range(1, k):
        if draw(st.booleans()):
            centroids[j] = centroids[draw(st.integers(0, j - 1))]
    centroids = np.array(centroids, dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    pixels = [rng.integers(0, 256, size=(draw(st.integers(0, 40)), 3))]
    for _ in range(draw(st.integers(0, 12))):
        a, b = (draw(st.integers(0, k - 1)) for _ in range(2))
        pixels.append(((centroids[a] + centroids[b]) // 2)[None])
    pixels = np.concatenate(pixels).astype(np.uint8)
    return rng.permutation(pixels), centroids


@given(case=_tied_assignments(), fractional=st.booleans())
@settings(max_examples=150, deadline=None)
def test_assign_pixels_breaks_ties_as_argmin(case, fractional):
    """The running minimum keeps the first of equally near centroids,
    as ``argmin`` does, with the same float64 distances."""
    pixels, centroids = case
    if fractional:
        centroids = centroids + 0.5
    got = assign_pixels(pixels, centroids)
    assert got.tolist() == _assign_oracle(pixels, centroids).tolist()
    grid = assign_pixels(pixels.reshape(1, -1, 3), centroids)
    assert grid.reshape(-1).tolist() == got.tolist()


def test_assign_pixels_on_app_input_equals_argmin():
    image = get_app("kmeans").make_input(64, 5)
    pixels = image.reshape(-1, 3)
    for k in range(1, 10):
        centroids = initial_centroids(image, k)
        assert np.array_equal(assign_pixels(pixels, centroids),
                              _assign_oracle(pixels, centroids))


def _centroids_oracle(image, k):
    """The stable-argsort seeding :func:`initial_centroids` replaced."""
    flat = np.asarray(image, dtype=np.float64).reshape(-1, 3)
    luma = flat @ np.array([0.299, 0.587, 0.114])
    order = np.argsort(luma, kind="stable")
    return np.stack([flat[band].mean(axis=0) if band.size
                     else np.full(3, 128.0)
                     for band in np.array_split(order, k)])


def _bands_oracle(luma, k):
    band = np.empty(luma.size, dtype=np.intp)
    for j, part in enumerate(np.array_split(
            np.argsort(luma, kind="stable"), k)):
        band[part] = j
    return band


#: two colours of equal luma (as float64 computes it), so which band a
#: tied pixel joins shows in the band's mean colour
TIED = np.array([[141, 123, 105], [216, 78, 140]], dtype=np.uint8)


@given(luma=st.lists(st.integers(0, 4), min_size=1, max_size=60),
       k=st.integers(1, 70))
@settings(max_examples=100, deadline=None)
def test_luma_bands_equal_stable_argsort(luma, k):
    """Tie-heavy lumas, and more bands than pixels, in blocks of one,
    of seven and of every pixel (ties are counted across blocks)."""
    luma = np.array(luma, dtype=np.float64)
    for step in (1, 7, len(luma)):
        blocks = [slice(i, i + step) for i in range(0, len(luma), step)]
        bands = [band for _, band in _luma_bands(
            lambda: ((b, luma[b]) for b in blocks), len(luma), k)]
        assert np.array_equal(np.concatenate(bands),
                              _bands_oracle(luma, k))


@given(picks=st.lists(st.integers(0, 3), min_size=1, max_size=40),
       k=st.integers(1, 45))
@settings(max_examples=100, deadline=None)
def test_initial_centroids_equal_stable_argsort(picks, k):
    palette = np.concatenate([TIED, [[10, 20, 30], [250, 240, 230]]])
    image = palette[np.array(picks)].astype(np.uint8).reshape(1, -1, 3)
    got, want = initial_centroids(image, k), _centroids_oracle(image, k)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 6, 7, 37])
def test_initial_centroids_ties_at_a_band_border(k):
    """36 pixels of two equal-luma colours interleaved: every border
    falls inside the tie, so index order alone splits the colours."""
    luma = TIED.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    assert luma[0] == luma[1]
    image = np.tile(TIED, (18, 1)).reshape(6, 6, 3)
    got, want = initial_centroids(image, k), _centroids_oracle(image, k)
    assert got.tobytes() == want.tobytes()
    if k == 7:   # bands of 6 and 5 pixels: the 5s mix colours unevenly
        assert len({tuple(c) for c in got}) > 1


@pytest.mark.parametrize("k", [1, 6, 7])
def test_initial_centroids_on_app_input(k):
    image = get_app("kmeans").make_input(96, 3)
    got, want = initial_centroids(image, k), _centroids_oracle(image, k)
    assert got.tobytes() == want.tobytes()


def _kmeans_precise_oracle(image, k, epochs):
    """The k-means reference before it assigned pixels in blocks."""
    centroids = _centroids_oracle(image, k)
    pixels = image.reshape(-1, 3)
    for _ in range(epochs):
        labels = assign_pixels(pixels, centroids)
        sums = _sums(pixels, labels, k)
        counts = np.bincount(labels, minlength=k)
        fresh = sums / np.maximum(counts, 1)[:, None]
        centroids = np.where(counts[:, None] > 0, fresh, centroids)
    palette = np.clip(centroids, 0, 255).astype(np.uint8)
    return palette[labels].reshape(image.shape)


@pytest.mark.parametrize("size,k,epochs", [(1, 6, 1), (61, 6, 1),
                                           (96, 7, 2), (128, 2, 1)])
def test_kmeans_precise_equals_whole_image_assignment(size, k, epochs):
    image = get_app("kmeans").make_input(size, 4)
    assert np.array_equal(kmeans_precise(image, k, epochs),
                          _kmeans_precise_oracle(image, k, epochs))


# -- the whole-image references in small blocks ---------------------------

def _dwt53_precise_oracle(image):
    """One level of lifting over every row, then every column, each a
    whole-array pass."""
    rows = dwt53_rows(image.astype(np.int64))
    return dwt53_rows(rows.T).T


@pytest.mark.parametrize("pixels", [1, 37])
def test_whole_image_references_in_small_blocks(pixels, blocks):
    """The references' oracles again, in slabs of one row or a few and
    kmeans blocks of one pixel or 37: every slab reads its neighbouring
    rows as its halo (four rows for the 9x9 blur), so a halo a row
    short or long fails, and every border count and tie crosses
    blocks."""
    blocks(pixels)
    for kernel in (blur_kernel(3), blur_kernel(9), NOT_SEPARABLE):
        for shape in [(1, 1), (7, 7), (5, 12), (12, 5), (40, 33)]:
            test_conv2d_precise_equals_per_pixel_kernel(shape, kernel)
    test_conv2d_precise_any_integer_kernel()
    for shape in [(1, 1), (2, 3), (7, 7), (6, 8), (63, 65)]:
        test_debayer_precise_equals_per_pixel_kernel(shape)
    for size, k, epochs in [(1, 6, 1), (24, 6, 1), (31, 7, 2)]:
        test_kmeans_precise_equals_whole_image_assignment(size, k, epochs)
    for k in (1, 6, 7, 37):
        test_initial_centroids_ties_at_a_band_border(k)
    test_initial_centroids_equal_stable_argsort()
    image = get_app("dwt53").make_input(30, 2)
    assert np.array_equal(dwt53_perforated(image, 1),
                          _dwt53_precise_oracle(image))
    assert np.array_equal(histogram(image),
                          np.bincount(image.reshape(-1), minlength=256))
