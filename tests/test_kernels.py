"""Sample kernels: bit-exact against their straightforward forms.

The stage kernels (2dconv's taps, debayer's neighbour gathers, kmeans'
distances and partial sums, the tree fill) are written for speed; these
tests pin them to the plain implementations they replaced, and pin every
published version of every app to a golden hash.
"""

import hashlib

import numpy as np
import pytest

from repro.apps.conv2d import blur_kernel, conv2d_elements
from repro.apps.debayer import debayer_elements
from repro.apps.kmeans import _sums
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
