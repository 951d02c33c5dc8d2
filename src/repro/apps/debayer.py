"""Debayering (PERFECT ``debayer``) — paper Figure 14.

"Debayering converts a Bayer filter image from a single sensor to a full
RGB image. ... The structure of the application is similar to 2dconv; the
interpolations in debayer are similar to the convolutional filter.  As a
result, we use a similar single-diffusive-stage automaton with tree-based
output sampling."

Bilinear demosaic of an RGGB mosaic: each sampled output pixel gathers
its missing colour planes from neighbouring sites (clamped borders); the
automaton computes pixels in 2-D tree order with progressive block fill.
"""

from __future__ import annotations

import numpy as np

from ..anytime.fill import TreeFill
from ..anytime.permutations import Permutation, TreePermutation
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.mapstage import MapStage
from .stencil import EdgePadded, edge_padder

__all__ = ["debayer_elements", "debayer_precise",
           "build_debayer_automaton"]


def _demosaic(padded: EdgePadded, indices: np.ndarray) -> np.ndarray:
    """RGB at flat pixel indices of ``padded``'s radius-1, int16 mosaic
    (int16 holds a sum of four uint8 sites plus rounding).

    Each RGGB site class reads only the two planes it needs.  In tree
    order every sample coarser than the finest level is an R site and
    each of the finest level's three cosets is one class, so most calls
    compute a single class.
    """
    rows, cols, centres = padded.locate(indices)
    # site class: 0 = R, 1 = G on a red row, 2 = G on a blue row, 3 = B
    site = (rows & 1) * 2 + (cols & 1)
    out = np.empty((len(centres), 3), dtype=np.uint8)
    if len(site) and (site == site[0]).all():
        out[:] = _site_rgb(padded, centres, int(site[0]))
        return out
    for cls in range(4):
        at = np.flatnonzero(site == cls)
        if len(at):
            out[at] = _site_rgb(padded, centres[at], cls)
    return out


def _site_rgb(padded: EdgePadded, centres: np.ndarray,
              site: int) -> np.ndarray:
    """``(n, 3)`` int16 RGB at the flat ``centres`` of one site class."""
    flat = padded.flat

    def at(dy: int, dx: int) -> np.ndarray:
        return flat[centres + padded.offset(dy, dx)]

    here = at(0, 0)
    up, down, left, right = at(-1, 0), at(1, 0), at(0, -1), at(0, 1)
    if site in (1, 2):
        # G: red and blue from the row pair and the column pair
        horiz = (left + right + 1) // 2
        vert = (up + down + 1) // 2
        planes = (horiz, here, vert) if site == 1 else (vert, here, horiz)
    else:
        # R or B: green from the cross, the other colour from the
        # diagonal
        cross = (up + down + left + right + 2) // 4
        diag = (at(-1, -1) + at(-1, 1) + at(1, -1) + at(1, 1) + 2) // 4
        planes = (here, cross, diag) if site == 0 else (diag, cross, here)
    return np.stack(planes, axis=1)


def debayer_elements(indices: np.ndarray,
                     mosaic: np.ndarray) -> np.ndarray:
    """RGB values at the given flat pixel indices of an RGGB mosaic.

    Returns an ``(n, 3)`` uint8 array.  Bilinear interpolation: missing
    planes average the nearest sites of that colour (2 or 4 neighbours
    depending on the site class).
    """
    return _demosaic(EdgePadded(mosaic, 1, np.int16), indices)


def debayer_precise(mosaic: np.ndarray) -> np.ndarray:
    """Reference full-image demosaic, equal to
    ``debayer_elements(np.arange(mosaic.size), mosaic)``.

    The same int16 ``horiz``/``vert``/``cross``/``diag`` planes as
    :func:`_demosaic`, built from shifted slices of the padded mosaic and
    placed by the four RGGB parity classes.
    """
    mosaic = np.asarray(mosaic)
    h, w = mosaic.shape
    p = np.pad(mosaic, 1, mode="edge").astype(np.int16)

    def at(dy: int, dx: int) -> np.ndarray:
        return p[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]

    here = at(0, 0)
    up, down, left, right = at(-1, 0), at(1, 0), at(0, -1), at(0, 1)
    horiz = (left + right + 1) // 2
    vert = (up + down + 1) // 2
    cross = (up + down + left + right + 2) // 4
    diag = (at(-1, -1) + at(-1, 1) + at(1, -1) + at(1, 1) + 2) // 4

    out = np.empty((h, w, 3), dtype=np.uint8)
    # (row parity, col parity): R site, G on a red row, G on a blue
    # row, B site; planes are (red, green, blue)
    for (r, c), planes in {(0, 0): (here, cross, diag),
                           (0, 1): (horiz, here, vert),
                           (1, 0): (vert, here, horiz),
                           (1, 1): (diag, cross, here)}.items():
        for ch, plane in enumerate(planes):
            out[r::2, c::2, ch] = plane[r::2, c::2]
    return out


def build_debayer_automaton(mosaic: np.ndarray, chunks: int = 32,
                            permutation: Permutation | None = None,
                            prefetcher: bool = False,
                            reorder: bool = False,
                            warm_start: np.ndarray | None = None,
                            ) -> AnytimeAutomaton:
    """The debayer automaton: one diffusive output-sampled stage."""
    mosaic = np.asarray(mosaic, dtype=np.uint8)
    b_in = VersionedBuffer("mosaic")
    b_out = VersionedBuffer("rgb")
    padded = edge_padder(lambda m: EdgePadded(m, 1, np.int16))

    def element_fn(indices: np.ndarray, mosaic: np.ndarray) -> np.ndarray:
        return _demosaic(padded(mosaic), indices)

    stage = MapStage(
        "demosaic", b_out, (b_in,), element_fn,
        shape=mosaic.shape, out_shape=mosaic.shape + (3,),
        dtype=np.uint8,
        permutation=permutation or TreePermutation(),
        fill=TreeFill(spatial_ndim=2),
        chunks=chunks,
        cost_per_element=8.0,   # ~8 gathers + blends per pixel
        prefetcher=prefetcher, reorder=reorder,
        warm_start=warm_start)
    return AnytimeAutomaton([stage], name="debayer",
                            external={"mosaic": mosaic})
