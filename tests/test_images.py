"""Tests for the synthetic input generators."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import get_app
from repro.data import images
from repro.data.images import (bayer_mosaic, clustered_image,
                               gradient_image, scene_image,
                               texture_image)
from repro.serve.fleet import value_digest


class TestGradient:
    def test_shape_and_dtype(self):
        img = gradient_image(32)
        assert img.shape == (32, 32) and img.dtype == np.uint8

    def test_spans_full_range(self):
        img = gradient_image(64)
        assert img.min() == 0 and img.max() == 255

    def test_is_smooth(self):
        img = gradient_image(64).astype(np.int64)
        assert np.abs(np.diff(img, axis=1)).max() <= 8

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            gradient_image(0)


class TestTexture:
    def test_deterministic(self):
        assert np.array_equal(texture_image(32, seed=5),
                              texture_image(32, seed=5))

    def test_seed_changes_content(self):
        assert not np.array_equal(texture_image(32, seed=5),
                                  texture_image(32, seed=6))


class TestScene:
    def test_shape_dtype_determinism(self):
        a = scene_image(64, seed=1)
        b = scene_image(64, seed=1)
        assert a.shape == (64, 64) and a.dtype == np.uint8
        assert np.array_equal(a, b)

    def test_has_smooth_and_edge_content(self):
        """The runtime-accuracy curves need both: edges drive mid-sample
        SNR, texture drives the tail."""
        img = scene_image(128, seed=0).astype(np.int64)
        grad = np.abs(np.diff(img, axis=0))
        assert (grad == 0).mean() > 0.05      # flat regions exist
        assert (grad > 30).mean() > 0.005     # hard edges exist

    def test_intensity_spread(self):
        img = scene_image(128, seed=0)
        assert img.std() > 30


class TestBayer:
    def test_shape_and_determinism(self):
        a = bayer_mosaic(64, seed=2)
        assert a.shape == (64, 64) and a.dtype == np.uint8
        assert np.array_equal(a, bayer_mosaic(64, seed=2))

    def test_rggb_pattern_sites_come_from_planes(self):
        """Each mosaic site equals the corresponding colour plane of the
        underlying RGB scene."""
        rgb = clustered_image(32, seed=2, clusters=0)
        mosaic = bayer_mosaic(32, seed=2)
        assert np.array_equal(mosaic[0::2, 0::2], rgb[0::2, 0::2, 0])
        assert np.array_equal(mosaic[0::2, 1::2], rgb[0::2, 1::2, 1])
        assert np.array_equal(mosaic[1::2, 0::2], rgb[1::2, 0::2, 1])
        assert np.array_equal(mosaic[1::2, 1::2], rgb[1::2, 1::2, 2])


class TestClustered:
    def test_shape_and_channels(self):
        img = clustered_image(32, seed=3, clusters=5)
        assert img.shape == (32, 32, 3) and img.dtype == np.uint8

    def test_colours_cluster(self):
        """Pixels concentrate around a handful of colour centres: a
        k-colour quantization captures far more variance than a single
        global mean colour would."""
        from repro.apps.kmeans import kmeans_precise

        img = clustered_image(64, seed=3, clusters=4)
        flat = img.reshape(-1, 3).astype(np.float64)
        quantized = kmeans_precise(img, k=4, epochs=3)
        sse = ((quantized.reshape(-1, 3).astype(np.float64)
                - flat) ** 2).sum()
        total = ((flat - flat.mean(axis=0)) ** 2).sum()
        assert sse < 0.5 * total

    def test_zero_clusters_gives_plain_scene(self):
        img = clustered_image(32, seed=3, clusters=0)
        assert img.shape == (32, 32, 3)


# -- the generators' bytes, pinned --------------------------------------

#: the first 16 hex digits of ``value_digest(make_input(size, seed))``
#: per size, for seeds 0, 5 and 2**31 - 1, taken on the grid-based
#: generators (the oracles below).  2dconv, histeq and dwt53 all take
#: the plain scene.
_SCENE = {
    1: ("db36b4989b0a5eeb", "4dada1e4d23d45eb", "dad89ae2e1634cf1"),
    24: ("e7162533a7391ab0", "2905efdb2b3348bd", "30d1fb89ed5a300b"),
    61: ("8588295b72518444", "3625308d1ca2a732", "79e81a68a2a9d68f"),
    62: ("6431f150e9fe669f", "993f34aefccbad33", "4fb1d3834e985096"),
    256: ("68f62d4fff4c40b7", "bbec67fb956876ee", "c64a3ce9e9ddd731"),
    512: ("24856f21bb6f92ef", "92630313b07b5c3e", "2aa76ee4f0846700"),
}
INPUT_DIGESTS = {
    "2dconv": _SCENE,
    "histeq": _SCENE,
    "dwt53": _SCENE,
    "debayer": {
        1: ("db36b4989b0a5eeb", "4dada1e4d23d45eb", "dad89ae2e1634cf1"),
        24: ("8f9962a06b5dbb07", "f833d95974ae88a6", "1d9c3aee8fd79ced"),
        61: ("ad4a502f8e81b80d", "0549c11060a4292f", "3b38335e4ee4b82b"),
        62: ("b24063f54c38ec7c", "926c78be279e9acd", "0e74d78b717c8e96"),
        256: ("ae7ab5e38bc393db", "91ef39fa51ec4f3a", "7bba03b3772dd388"),
        512: ("c372e27f8e86cd24", "b83522551db17211", "0fccfc659b1ed428"),
    },
    "kmeans": {
        1: ("105885792f4a6038", "adf2535b958c2b7d", "d6ac0d646c7ad565"),
        24: ("31d46a1ecabf6142", "44ea1bcf58a45ce1", "34ea4687514e7604"),
        61: ("3e828a7efd275301", "b1088983115270bc", "9327a911229af538"),
        62: ("9fd8746ccb77c23a", "cd2cb3a5f6760e2b", "3857923ab3e41d8f"),
        256: ("ffc1b096d352aa10", "c7a364a887a13f0f", "3afec23a186e91db"),
        512: ("f58ccc5389797bac", "e3516b1ef567171f", "86b4abd143a7d5d6"),
    },
}
PINNED_SEEDS = (0, 5, 2**31 - 1)


@pytest.mark.parametrize("size", sorted(_SCENE))
@pytest.mark.parametrize("app", sorted(INPUT_DIGESTS))
def test_make_input_bytes_are_pinned(app, size):
    make_input = get_app(app).make_input
    assert tuple(value_digest(make_input(size, seed))[:16]
                 for seed in PINNED_SEEDS) == INPUT_DIGESTS[app][size]


# -- the grid-based generators, kept as oracles --------------------------

def _gradient_oracle(size, angle_deg=30.0):
    angle = np.deg2rad(angle_deg)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    ramp = x * np.cos(angle) + y * np.sin(angle)
    span = ramp.max() - ramp.min()
    if span == 0:
        return np.zeros((size, size), dtype=np.uint8)
    return ((ramp - ramp.min()) / span * 255).astype(np.uint8)


def _texture_oracle(size, seed=0, smoothness=8):
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0, 255, size=(max(size // smoothness, 1),) * 2)
    reps = int(np.ceil(size / coarse.shape[0]))
    fine = np.kron(coarse, np.ones((reps, reps)))[:size, :size]
    padded = np.pad(fine, 1, mode="edge")
    blurred = sum(padded[dy:dy + size, dx:dx + size]
                  for dy in range(3) for dx in range(3)) / 9.0
    return blurred.astype(np.uint8)


def _scene_oracle(size, seed=0):
    rng = np.random.default_rng(seed)
    img = _gradient_oracle(size).astype(np.float64)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    for _ in range(6):
        cy, cx = rng.uniform(0.1, 0.9, 2) * size
        r = rng.uniform(0.05, 0.2) * size
        value = rng.uniform(0, 255)
        img[(y - cy) ** 2 + (x - cx) ** 2 <= r * r] = value
    for _ in range(4):
        y0, x0 = (rng.uniform(0.0, 0.8, 2) * size).astype(int)
        h, w = (rng.uniform(0.05, 0.25, 2) * size).astype(int)
        img[y0:y0 + h, x0:x0 + w] = rng.uniform(0, 255)
    texture = _texture_oracle(size, seed=seed + 1).astype(np.float64)
    img = 0.75 * img + 0.25 * texture
    return np.clip(img, 0, 255).astype(np.uint8)


def _clustered_oracle(size, seed=0, clusters=6):
    rng = np.random.default_rng(seed)
    base = _scene_oracle(size, seed=seed).astype(np.float64)
    shifted = np.stack([
        base,
        np.roll(base, size // 7, axis=0),
        np.roll(base, -size // 5, axis=1),
    ], axis=-1)
    if clusters <= 0:
        return np.clip(shifted, 0, 255).astype(np.uint8)
    centres = rng.uniform(10, 245, size=(clusters, 3))
    flat = shifted.reshape(-1, 3)
    d2 = sum((flat[:, ch, None] - centres[:, ch]) ** 2 for ch in range(3))
    nearest = centres[np.argmin(d2, axis=1)]
    noisy = 0.8 * nearest + 0.2 * flat + rng.normal(0, 6, flat.shape)
    return np.clip(noisy, 0, 255).astype(np.uint8).reshape(shifted.shape)


def _bayer_oracle(size, seed=0):
    rgb = _clustered_oracle(size, seed=seed, clusters=0).astype(np.float64)
    mosaic = np.empty((size, size), dtype=np.uint8)
    mosaic[0::2, 0::2] = rgb[0::2, 0::2, 0]
    mosaic[0::2, 1::2] = rgb[0::2, 1::2, 1]
    mosaic[1::2, 0::2] = rgb[1::2, 0::2, 1]
    mosaic[1::2, 1::2] = rgb[1::2, 1::2, 2]
    return mosaic


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       clusters=st.integers(0, 8),
       angle=st.sampled_from([0.0, 30.0, 45.0, 90.0, 135.0, 210.0]))
def test_generators_equal_their_grid_oracles(size, seed, clusters, angle):
    assert _same(gradient_image(size, angle), _gradient_oracle(size, angle))
    assert _same(texture_image(size, seed=seed),
                 _texture_oracle(size, seed=seed))
    assert _same(scene_image(size, seed=seed), _scene_oracle(size, seed))
    assert _same(bayer_mosaic(size, seed=seed), _bayer_oracle(size, seed))
    assert _same(clustered_image(size, seed=seed, clusters=clusters),
                 _clustered_oracle(size, seed=seed, clusters=clusters))


@pytest.mark.parametrize("pixels", [1, 200])
def test_generators_equal_their_grid_oracles_in_small_blocks(pixels,
                                                             blocks):
    """Blocks of one row, or of a few rows at every side below 200:
    every image of two rows or more crosses a block boundary, and with
    it the blur's one-row halo, a coarse texture row and a draw of
    noise."""
    blocks(pixels)
    test_generators_equal_their_grid_oracles()


# -- the kept scene --------------------------------------------------------

#: today's generator per app, as the grid oracles above make it
_ORACLES = {
    "2dconv": _scene_oracle,
    "histeq": _scene_oracle,
    "dwt53": _scene_oracle,
    "debayer": _bayer_oracle,
    "kmeans": _clustered_oracle,
}


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("size", [16, 61, 256])
def test_every_app_input_is_todays_on_a_miss_and_a_hit(size, order,
                                                       scene_makes):
    apps = sorted(_ORACLES)
    if order == "reversed":
        apps.reverse()
    for seed in range(3):
        for app in apps + apps:   # the first is a miss, the rest hits
            assert _same(get_app(app).make_input(size, seed),
                         _ORACLES[app](size, seed)), (app, seed)
    assert scene_makes == [(size, seed) for seed in range(3)]


def test_writing_into_an_input_leaves_the_next_one_alone(scene_makes):
    first = scene_image(32, seed=1)
    assert first.flags.writeable
    first[:] = 0
    assert _same(scene_image(32, seed=1), _scene_oracle(32, 1))
    assert len(scene_makes) == 1


def test_the_kept_scene_is_read_only(scene_makes):
    master = images._scene(32, 1)
    assert not master.flags.writeable
    with pytest.raises(ValueError):
        master[0, 0] = 1
    # every app input is a new array, never the master
    for app in _ORACLES:
        assert not np.shares_memory(get_app(app).make_input(32, 1),
                                    master)


def test_a_fifth_key_evicts_the_least_recently_used(scene_makes):
    keys = [(16, seed) for seed in range(images._SCENES_MAX + 1)]
    for size, seed in keys:
        scene_image(size, seed)
    assert scene_makes == keys
    for size, seed in keys[1:]:   # kept
        scene_image(size, seed)
    assert len(scene_makes) == len(keys)
    scene_image(*keys[0])         # evicted, made again
    assert scene_makes == keys + keys[:1]


def test_keys_are_integers(scene_makes):
    for size, seed in [(16.0, 0), (16, 0.0), (np.float64(16), 0)]:
        with pytest.raises(TypeError):
            scene_image(size, seed)
    assert scene_makes == []
    scene_image(np.int64(16), np.int32(2))
    scene_image(16, 2)
    assert scene_makes == [(16, 2)]


def test_importing_the_generators_imports_numpy_random():
    """A forked fleet worker inherits ``numpy.random`` from its parent
    rather than importing it on its first request."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, repro.data.images; "
         "print('numpy.random' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
