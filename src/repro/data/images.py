"""Synthetic image inputs.

The paper evaluates on "large image input sets" from PERFECT and AxBench,
which we do not have; these deterministic generators produce images with
the statistics that matter for runtime-accuracy curves — smooth regions,
hard edges, texture, and (for k-means) cluster-structured colour
distributions.  See the substitution table in DESIGN.md.

All generators take a seed and return ``uint8`` arrays (the apps' native
pixel format).  A fleet worker makes a request's input from its
``(app, size, seed)`` spec, so a generator sits on every new key's
path.  They work on whole arrays with few temporaries: 1-D axes
broadcast instead of coordinate grids, each disc painted only inside
its bounding rows and columns, blurs accumulated in place and the
cluster snap as a running minimum over the centres.  Every one of
these is exact, so the bytes are what the coordinate-grid forms made.

The scene is the input of 2dconv, histeq and dwt53, and the source of
debayer's and kmeans' colour planes, so the five figure apps of one
seed share one.  The process keeps the last :data:`_SCENES_MAX`
scenes it made, by ``(size, seed)``, as read-only masters:
:func:`scene_image` hands out a writable copy of one, and the colour
planes are the master and two rolls of it.  The scene is a pure
function of ``(size, seed)``, so a kept one is the bytes a new one
would be.  It pays wherever several apps of one seed are made in one
process: a benchmark's input pool, or a fleet worker to which
placement by spec key sends several apps of one seed (a five-app
round on one seed makes about 1.94 scenes on two workers, not 5).
Traffic whose every request has a seed of its own gains nothing and
pays a lookup and a copy of the scene (64 KiB at 256²) per input.
Four scenes at 2048², the largest side a fleet spec may ask for, hold
16 MiB.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
# numpy 2 imports numpy.random lazily, on first use.  Every fleet
# worker's parent imports this module, so a worker forked from it
# inherits numpy.random instead of importing it on its first request
import numpy.random  # noqa: F401

__all__ = ["scene_image", "bayer_mosaic", "clustered_image",
           "gradient_image", "texture_image", "nearest_centre"]


def gradient_image(size: int = 512, angle_deg: float = 30.0) -> np.ndarray:
    """A smooth linear intensity ramp (pure low-frequency content)."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    angle = np.deg2rad(angle_deg)
    axis = np.arange(size, dtype=np.float64)
    ramp = axis * np.cos(angle) + (axis * np.sin(angle))[:, None]
    low = ramp.min()
    span = ramp.max() - low
    if span == 0:
        return np.zeros((size, size), dtype=np.uint8)
    ramp -= low
    ramp /= span
    ramp *= 255
    return ramp.astype(np.uint8)


def texture_image(size: int = 512, seed: int = 0,
                  smoothness: int = 8) -> np.ndarray:
    """Band-limited noise texture (mid-frequency content).

    Generated by upsampling smoothed low-resolution noise, so the spatial
    correlation length is ``smoothness`` pixels.
    """
    if size < 1 or smoothness < 1:
        raise ValueError("size and smoothness must be >= 1")
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0, 255, size=(max(size // smoothness, 1),) * 2)
    reps = int(np.ceil(size / coarse.shape[0]))
    fine = (coarse.repeat(reps, axis=0)[:size]
            .repeat(reps, axis=1)[:, :size])
    # one box-blur pass to soften the block edges of the upsample, its
    # nine taps added in row-major order
    padded = np.pad(fine, 1, mode="edge")
    blurred = padded[:size, :size].copy()
    for tap in range(1, 9):
        dy, dx = divmod(tap, 3)
        blurred += padded[dy:dy + size, dx:dx + size]
    blurred /= 9.0
    return blurred.astype(np.uint8)


def _paint_disc(img: np.ndarray, axis: np.ndarray, cy: float, cx: float,
                rr: float, value: float) -> None:
    """Set the pixels with ``(y - cy)² + (x - cx)² <= rr`` to ``value``.

    Adding a non-negative term cannot round below the other, so no
    pixel outside the rows with ``(y - cy)² <= rr`` and the columns
    with ``(x - cx)² <= rr`` is inside: only that box is tested.
    """
    dy2 = (axis - cy) ** 2
    dx2 = (axis - cx) ** 2
    rows = np.flatnonzero(dy2 <= rr)
    cols = np.flatnonzero(dx2 <= rr)
    if rows.size == 0 or cols.size == 0:
        return
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    img[box][dy2[box[0], None] + dx2[box[1]] <= rr] = value


def scene_image(size: int = 512, seed: int = 0) -> np.ndarray:
    """The default evaluation scene: ramp + shapes + texture.

    Contains smooth gradients (easy for coarse sampling), hard-edged
    shapes (drive SNR at mid sample sizes) and texture (the long tail to
    precise) — the mix that shapes the paper's 2dconv/debayer curves.
    A fresh writable copy of the kept scene (module docstring).
    """
    return _scene(size, seed).copy()


#: how many scenes a process keeps: the most recently used
_SCENES_MAX = 4


def _scene(size: int, seed: int) -> np.ndarray:
    """The read-only scene of ``(size, seed)``, made once while it is
    among the last :data:`_SCENES_MAX` asked for.  Non-integer
    arguments raise TypeError, as making a scene of them would."""
    return _kept_scene(operator.index(size), operator.index(seed))


@functools.lru_cache(maxsize=_SCENES_MAX)
def _kept_scene(size: int, seed: int) -> np.ndarray:
    master = _make_scene(size, seed)
    master.flags.writeable = False
    return master


def _make_scene(size: int, seed: int) -> np.ndarray:
    """Make the scene of ``(size, seed)`` (see :func:`scene_image`)."""
    rng = np.random.default_rng(seed)
    img = gradient_image(size).astype(np.float64)
    axis = np.arange(size, dtype=np.float64)
    for _ in range(6):
        cy, cx = rng.uniform(0.1, 0.9, 2) * size
        r = rng.uniform(0.05, 0.2) * size
        _paint_disc(img, axis, cy, cx, r * r, rng.uniform(0, 255))
    for _ in range(4):
        y0, x0 = (rng.uniform(0.0, 0.8, 2) * size).astype(int)
        h, w = (rng.uniform(0.05, 0.25, 2) * size).astype(int)
        img[y0:y0 + h, x0:x0 + w] = rng.uniform(0, 255)
    texture = texture_image(size, seed=seed + 1).astype(np.float64)
    img *= 0.75
    texture *= 0.25
    img += texture
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8)


def _colour_planes(size: int, seed: int) -> tuple[np.ndarray, ...]:
    """The colour scene's three uint8 planes: the scene, rolled down by
    a seventh and left by a fifth of its side.  The first is the kept,
    read-only scene."""
    scene = _scene(size, seed)
    return (scene, np.roll(scene, size // 7, axis=0),
            np.roll(scene, -size // 5, axis=1))


def bayer_mosaic(size: int = 512, seed: int = 0) -> np.ndarray:
    """An RGGB Bayer-filter sensor image (debayer's input).

    Built by generating a full-colour scene and sampling one colour plane
    per pixel in the RGGB pattern — exactly what a single-sensor camera
    records.
    """
    red, green, blue = _colour_planes(size, seed)
    mosaic = np.empty((size, size), dtype=np.uint8)
    mosaic[0::2, 0::2] = red[0::2, 0::2]
    mosaic[0::2, 1::2] = green[0::2, 1::2]
    mosaic[1::2, 0::2] = green[1::2, 0::2]
    mosaic[1::2, 1::2] = blue[1::2, 1::2]
    return mosaic


def nearest_centre(planes: list[np.ndarray],
                   centres: np.ndarray) -> np.ndarray:
    """Index of the nearest centre (squared Euclidean) per pixel of
    float64 channel ``planes``, shaped like a plane.

    The channels add in order, and a strict ``<`` keeps the first of
    equally near centres, as ``argmin`` over a distance array would.
    Each square is ``t * t`` of ``t = plane - coordinate``, the bits
    ``t ** 2`` gives; the running minimum reuses four buffers of one
    plane each.
    """
    shape = planes[0].shape
    nearest = np.zeros(shape, dtype=np.intp)
    best, d2, term = (np.empty(shape) for _ in range(3))
    closer = np.empty(shape, dtype=bool)
    for j, centre in enumerate(centres):
        out = best if j == 0 else d2
        np.subtract(planes[0], centre[0], out=out)
        out *= out
        for plane, coordinate in zip(planes[1:], centre[1:]):
            np.subtract(plane, coordinate, out=term)
            term *= term
            out += term
        if j:
            np.less(d2, best, out=closer)
            np.copyto(nearest, j, where=closer)
            np.minimum(best, d2, out=best)
    return nearest


def clustered_image(size: int = 128, seed: int = 0,
                    clusters: int = 6) -> np.ndarray:
    """An RGB image whose colours form ``clusters`` blobs (kmeans input).

    With ``clusters=0`` a generic colour scene is produced instead (used
    as the source for the Bayer mosaic).
    """
    rng = np.random.default_rng(seed)
    planes = _colour_planes(size, seed)
    if clusters <= 0:
        return np.stack(planes, axis=-1)
    # Snap colours toward cluster centres, with noise, so k-means has
    # real structure to find.
    centres = rng.uniform(10, 245, size=(clusters, 3))
    flat = [plane.reshape(-1).astype(np.float64) for plane in planes]
    nearest = nearest_centre(flat, centres)
    noise = rng.normal(0, 6, (size * size, 3))
    out = np.empty((size * size, 3), dtype=np.uint8)
    for ch, plane in enumerate(flat):
        noisy = np.take(0.8 * centres[:, ch], nearest)
        plane *= 0.2
        noisy += plane
        noisy += noise[:, ch]
        np.clip(noisy, 0, 255, out=noisy)
        out[:, ch] = noisy
    return out.reshape(size, size, 3)
