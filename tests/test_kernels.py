"""Sample kernels: bit-exact against their straightforward forms.

The stage kernels (2dconv's taps, debayer's neighbour gathers, kmeans'
distances and partial sums, the tree fill) and the whole-image
references (2dconv and debayer's slice kernels, kmeans' partition-based
seeding) are written for speed; these tests pin them to the plain
implementations they replaced, and pin every published version of every
app to a golden hash.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.conv2d import blur_kernel, conv2d_elements, conv2d_precise
from repro.apps.debayer import debayer_elements, debayer_precise
from repro.apps.kmeans import (_luma_bands, _sums, assign_pixels,
                               initial_centroids, kmeans_precise)
from repro.apps.registry import get_app
from repro.serve.fleet import value_digest

#: sha256 over every app's input, reference and published terminal
#: versions (see :func:`_ladder`), taken before the kernels were
#: rewritten for speed
GOLDEN_LADDER = \
    "5e943cf1cc5f608326551e7907f2d41e76b22b2f8f149caca08ea66e19339b21"

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
    """Tie-heavy lumas, and more bands than pixels."""
    luma = np.array(luma, dtype=np.float64)
    assert np.array_equal(_luma_bands(luma, k), _bands_oracle(luma, k))


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
