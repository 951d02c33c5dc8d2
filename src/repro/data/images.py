"""Synthetic image inputs.

The paper evaluates on "large image input sets" from PERFECT and AxBench,
which we do not have; these deterministic generators produce images with
the statistics that matter for runtime-accuracy curves — smooth regions,
hard edges, texture, and (for k-means) cluster-structured colour
distributions.  See the substitution table in DESIGN.md.

All generators take a seed and return ``uint8`` arrays (the apps' native
pixel format).  A fleet worker makes a request's input from its
``(app, size, seed)`` spec, so a generator sits on every new key's
path.  They work in row blocks of about :data:`BLOCK` pixels
(:func:`row_blocks`): the float64 planes, shape masks, blur taps and
cluster distances exist for one block at a time, so what a generator
allocates beyond its output is a few blocks at every size.  Whatever
spans blocks is drawn or measured first: the shapes in the scene's RNG
order, the gradient's extremes from its two 1-D axes, the texture's
coarse rows as the blocks reach them, with the blur's one-row halo.
Every pixel is computed by the operations, in the order, the
whole-array forms used, and consecutive draws from a generator are
its one draw cut in pieces, so the bytes are what those forms made.
The app kernels' whole-image references (2dconv, debayer, histeq,
dwt53, kmeans) work in the same blocks.

The scene is the input of 2dconv, histeq and dwt53, and the source of
debayer's and kmeans' colour planes, so the five figure apps of one
seed share one.  The process keeps the last :data:`_SCENES_MAX`
scenes it made, by ``(size, seed)``, as read-only masters:
:func:`scene_image` hands out a writable copy of one, and the colour
planes are the master and two rolls of it, taken a block at a time.
The scene is a pure function of ``(size, seed)``, so a kept one is the
bytes a new one would be.  It pays wherever several apps of one seed
are made in one process: a benchmark's input pool, or a fleet worker
to which placement by spec key sends several apps of one seed (a
five-app round on one seed makes about 1.94 scenes on two workers,
not 5).  Traffic whose every request has a seed of its own gains
nothing and pays a lookup and a copy of the scene (64 KiB at 256²) per
input.  Four scenes at 2048², the largest side a fleet spec may ask
for, hold 16 MiB.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator

import numpy as np
# numpy 2 imports numpy.random lazily, on first use.  Every fleet
# worker's parent imports this module, so a worker forked from it
# inherits numpy.random instead of importing it on its first request
import numpy.random  # noqa: F401

__all__ = ["scene_image", "bayer_mosaic", "clustered_image",
           "gradient_image", "texture_image", "nearest_centre",
           "BLOCK", "row_blocks"]

#: pixels in one block of every blocked step on a request's path: the
#: generators here and the apps' whole-image references.  A block's
#: float64 plane is 128 KiB, and the few a step holds at once stay in
#: cache
BLOCK = 16384


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices over ``rows`` rows of ``width`` items each,
    every slice about :data:`BLOCK` items and at least one row."""
    step = max(BLOCK // max(width, 1), 1)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _gradient(size: int, angle_deg: float):
    """The rows of :func:`gradient_image`, as a function of a row slice.

    The ramp is ``across[x] + down[y]``.  Rounding is monotone, so its
    least and greatest pixels are the sums of its axes' least and
    greatest values: the extremes are known before any row is made.
    """
    angle = np.deg2rad(angle_deg)
    axis = np.arange(size, dtype=np.float64)
    across, down = axis * np.cos(angle), axis * np.sin(angle)
    low = across.min() + down.min()
    span = (across.max() + down.max()) - low

    def rows(block: slice) -> np.ndarray:
        if span == 0:
            return np.zeros((len(down[block]), size), dtype=np.uint8)
        ramp = across + down[block, None]
        ramp -= low
        ramp /= span
        ramp *= 255
        return ramp.astype(np.uint8)

    return rows


def gradient_image(size: int = 512, angle_deg: float = 30.0) -> np.ndarray:
    """A smooth linear intensity ramp (pure low-frequency content)."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rows = _gradient(size, angle_deg)
    out = np.empty((size, size), dtype=np.uint8)
    for block in row_blocks(size, size):
        out[block] = rows(block)
    return out


def _texture_blocks(size: int, seed: int, smoothness: int,
                    ) -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, pixels)`` of :func:`texture_image`, block by block.

    A block's fine rows, with the blur's one-row halo, are coarse rows
    repeated; the coarse rows are drawn as the blocks first reach them,
    so the draws come in the order, and give the values, of one draw of
    the whole coarse grid.  Rows no block reaches are never drawn.
    """
    rng = np.random.default_rng(seed)
    side = max(size // smoothness, 1)
    reps = int(np.ceil(size / side))
    coarse = np.empty((0, side))
    first = 0          # coarse row of coarse[0]
    for block in row_blocks(size, size):
        # the padded rows of the block: fine rows start - 1 .. stop,
        # clamped, each the coarse row it repeats
        fine = np.clip(np.arange(block.start - 1, block.stop + 1),
                       0, size - 1) // reps
        drawn = first + len(coarse)
        coarse = np.concatenate([
            coarse[fine[0] - first:],
            rng.uniform(0, 255, size=(fine[-1] + 1 - drawn, side))])
        first = fine[0]
        yield block, _blurred(coarse[fine - first], reps, size)


def _blurred(coarse: np.ndarray, reps: int, size: int) -> np.ndarray:
    """The texture rows between the first and last of ``coarse``'s
    rows, each a coarse row repeated ``reps`` times across."""
    padded = np.empty((len(coarse), size + 2))
    padded[:, 1:-1] = coarse.repeat(reps, axis=1)[:, :size]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    # one box-blur pass to soften the block edges of the upsample, its
    # nine taps added in row-major order
    rows = len(coarse) - 2
    blurred = padded[:rows, :size].copy()
    for tap in range(1, 9):
        dy, dx = divmod(tap, 3)
        blurred += padded[dy:dy + rows, dx:dx + size]
    blurred /= 9.0
    return blurred.astype(np.uint8)


def texture_image(size: int = 512, seed: int = 0,
                  smoothness: int = 8) -> np.ndarray:
    """Band-limited noise texture (mid-frequency content).

    Generated by upsampling smoothed low-resolution noise, so the spatial
    correlation length is ``smoothness`` pixels.
    """
    if size < 1 or smoothness < 1:
        raise ValueError("size and smoothness must be >= 1")
    out = np.empty((size, size), dtype=np.uint8)
    for block, pixels in _texture_blocks(size, seed, smoothness):
        out[block] = pixels
    return out


class _Disc:
    """The pixels with ``(y - cy)² + (x - cx)² <= rr``, painted ``value``.

    Adding a non-negative term cannot round below the other, so no
    pixel outside the rows with ``(y - cy)² <= rr`` and the columns
    with ``(x - cx)² <= rr`` is inside: only that box is tested.
    """

    def __init__(self, axis: np.ndarray, cy: float, cx: float, rr: float,
                 value: float) -> None:
        self.dy2 = (axis - cy) ** 2
        dx2 = (axis - cx) ** 2
        cols = np.flatnonzero(dx2 <= rr)
        self.cols = slice(cols[0], cols[-1] + 1) if cols.size else None
        self.dx2 = dx2[self.cols] if cols.size else None
        self.rr, self.value = rr, value

    def paint(self, img: np.ndarray, block: slice) -> None:
        """Paint rows ``block`` of the image, held in ``img``."""
        if self.cols is None:
            return
        rows = np.flatnonzero(self.dy2[block] <= self.rr)
        if rows.size == 0:
            return
        box = slice(rows[0], rows[-1] + 1)
        dy2 = self.dy2[block][box]
        img[box, self.cols][dy2[:, None] + self.dx2 <= self.rr] = self.value


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
    """Make the scene of ``(size, seed)`` (see :func:`scene_image`):
    the shapes are drawn first, then each block is ramp, shapes and
    texture."""
    rng = np.random.default_rng(seed)
    axis = np.arange(size, dtype=np.float64)
    discs = []
    for _ in range(6):
        cy, cx = rng.uniform(0.1, 0.9, 2) * size
        r = rng.uniform(0.05, 0.2) * size
        discs.append(_Disc(axis, cy, cx, r * r, rng.uniform(0, 255)))
    rects = []
    for _ in range(4):
        y0, x0 = (rng.uniform(0.0, 0.8, 2) * size).astype(int)
        h, w = (rng.uniform(0.05, 0.25, 2) * size).astype(int)
        rects.append((y0, y0 + h, slice(x0, x0 + w), rng.uniform(0, 255)))
    ramp = _gradient(size, 30.0)
    out = np.empty((size, size), dtype=np.uint8)
    for block, texture in _texture_blocks(size, seed + 1, 8):
        out[block] = _scene_rows(block, ramp(block), discs, rects,
                                 texture)
    return out


def _scene_rows(block: slice, ramp: np.ndarray, discs: list[_Disc],
                rects: list[tuple], texture: np.ndarray) -> np.ndarray:
    """Rows ``block`` of the scene, from their ramp and texture rows."""
    img = ramp.astype(np.float64)
    for disc in discs:
        disc.paint(img, block)
    for top, bottom, cols, value in rects:
        top = max(top, block.start) - block.start
        bottom = min(bottom, block.stop) - block.start
        if bottom > top:
            img[top:bottom, cols] = value
    img *= 0.75
    shade = texture.astype(np.float64)
    shade *= 0.25
    img += shade
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8)


def _colour_rows(scene: np.ndarray, block: slice,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``block`` of the colour scene's three uint8 planes: the
    scene, and the scene rolled down by a seventh and left by a fifth
    of its side."""
    size = len(scene)
    rows = np.arange(block.start, block.stop)
    return (scene[block], scene[(rows - size // 7) % size],
            np.roll(scene[block], -size // 5, axis=1))


def bayer_mosaic(size: int = 512, seed: int = 0) -> np.ndarray:
    """An RGGB Bayer-filter sensor image (debayer's input).

    Built by generating a full-colour scene and sampling one colour plane
    per pixel in the RGGB pattern — exactly what a single-sensor camera
    records.
    """
    scene = _scene(size, seed)
    mosaic = np.empty((size, size), dtype=np.uint8)
    for block in row_blocks(size, size):
        red, green, blue = _colour_rows(scene, block)
        rows = mosaic[block]
        even, odd = block.start % 2, 1 - block.start % 2
        rows[even::2, 0::2] = red[even::2, 0::2]
        rows[even::2, 1::2] = green[even::2, 1::2]
        rows[odd::2, 0::2] = green[odd::2, 0::2]
        rows[odd::2, 1::2] = blue[odd::2, 1::2]
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
    scene = _scene(size, seed)
    out = np.empty((size, size, 3), dtype=np.uint8)
    if clusters <= 0:
        for block in row_blocks(size, size):
            for ch, plane in enumerate(_colour_rows(scene, block)):
                out[block, :, ch] = plane
        return out
    # Snap colours toward cluster centres, with noise, so k-means has
    # real structure to find.
    centres = rng.uniform(10, 245, size=(clusters, 3))
    for block in row_blocks(size, size):
        _snap(_colour_rows(scene, block), centres, rng,
              out[block].reshape(-1, 3))
    return out


def _snap(rows: tuple[np.ndarray, ...], centres: np.ndarray,
          rng: np.random.Generator, pixels: np.ndarray) -> None:
    """Write into ``pixels`` the colour ``rows`` snapped toward their
    nearest centres, with the block's draw of noise."""
    planes = [plane.reshape(-1).astype(np.float64) for plane in rows]
    nearest = nearest_centre(planes, centres)
    noise = rng.normal(0, 6, (len(nearest), 3))
    for ch, plane in enumerate(planes):
        noisy = np.take(0.8 * centres[:, ch], nearest)
        plane *= 0.2
        noisy += plane
        noisy += noise[:, ch]
        np.clip(noisy, 0, 255, out=noisy)
        pixels[:, ch] = noisy
