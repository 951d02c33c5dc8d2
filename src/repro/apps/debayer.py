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

from ..anytime.coset import Coset, reads_cosets
from ..anytime.fill import TreeFill
from ..anytime.permutations import Permutation, TreePermutation
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.mapstage import MapStage
from ..data.images import row_blocks
from .stencil import EdgePadded, edge_padder

__all__ = ["debayer_elements", "debayer_precise",
           "build_debayer_automaton"]


def _demosaic(padded: EdgePadded,
              samples: Coset | np.ndarray) -> np.ndarray:
    """RGB at a sample set of ``padded``'s radius-1, int16 mosaic (int16
    holds a sum of four uint8 sites plus rounding), shaped like the
    sample set.

    Each RGGB site class reads only the two planes it needs.  A coset
    whose strides are even holds one class; any other splits into its
    stride-2 cosets, one class each, and the whole image is four of
    them.  In tree order every sample coarser than the finest level is
    an R site and each of the finest level's three cosets is one class,
    so most chunks compute a single class.
    """
    grid = samples.counts if isinstance(samples, Coset) else samples.shape
    out = np.empty(grid + (3,), dtype=np.uint8)
    for part, where, site in _site_classes(samples, padded.width):
        for ch, plane in enumerate(_site_rgb(padded, part, site)):
            out[where + (ch,)] = plane
    return out


def _site_classes(samples: Coset | np.ndarray, width: int,
                  ) -> list[tuple[Coset | np.ndarray, tuple, int]]:
    """``(part, where, site)``: ``samples`` cut into parts of one site
    class each (0 = R, 1 = G on a red row, 2 = G on a blue row, 3 = B),
    with each part's place among ``samples``."""
    if isinstance(samples, Coset):
        parts = [samples]
        for axis in (0, 1):
            parts = [half for part in parts for half in (
                part.split(axis) if part.axes[axis][1] % 2 else [part])]
        return [(part, part.within(samples),
                 (part.axes[0][0] & 1) * 2 + (part.axes[1][0] & 1))
                for part in parts]
    rows, cols = np.divmod(samples, width)
    site = (rows & 1) * 2 + (cols & 1)
    if not len(site):
        return []
    if (site == site[0]).all():
        return [(samples, (slice(None),), int(site[0]))]
    return [(samples[at], (at,), cls) for cls in range(4)
            if len(at := np.flatnonzero(site == cls))]


def _site_rgb(padded: EdgePadded, samples: Coset | np.ndarray,
              site: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int16 red, green and blue planes at a sample set of one site
    class, each shaped like it."""
    read = padded.reader(samples)
    r = padded.radius

    def at(dy: int, dx: int) -> np.ndarray:
        return read.at(padded.rows, r + dy, r + dx)

    here = at(0, 0)
    up, down, left, right = at(-1, 0), at(1, 0), at(0, -1), at(0, 1)
    if site in (1, 2):
        # G: red and blue from the row pair and the column pair
        horiz = _mean(left, right)
        vert = _mean(up, down)
        return (horiz, here, vert) if site == 1 else (vert, here, horiz)
    # R or B: green from the cross, the other colour from the diagonal
    cross = _mean(up, down, left, right)
    diag = _mean(at(-1, -1), at(-1, 1), at(1, -1), at(1, 1))
    return (here, cross, diag) if site == 0 else (diag, cross, here)


def _mean(*sites: np.ndarray) -> np.ndarray:
    """The rounded mean of two or four non-negative int16 sites: their
    sum plus half the count, floor-divided by the count as a shift."""
    acc = sites[0] + sites[1]
    for more in sites[2:]:
        acc += more
    acc += len(sites) // 2
    acc >>= len(sites).bit_length() - 1
    return acc


def debayer_elements(indices: Coset | np.ndarray,
                     mosaic: np.ndarray) -> np.ndarray:
    """RGB values at the given flat pixel indices of an RGGB mosaic, or
    at a coset of it.

    Returns a uint8 array shaped like the sample set plus an axis of 3.
    Bilinear interpolation: missing planes average the nearest sites of
    that colour (2 or 4 neighbours depending on the site class).
    """
    return _demosaic(EdgePadded(mosaic, 1, np.int16), indices)


def debayer_precise(mosaic: np.ndarray) -> np.ndarray:
    """Reference full-image demosaic, equal to
    ``debayer_elements(np.arange(mosaic.size), mosaic)``: the element
    kernel on row slabs of the mosaic, each padded by its neighbouring
    rows and read as one stride-1 coset, whose four parity classes are
    its four stride-2 cosets.  The kernel works on one class at a
    time, so a slab holds a block
    (:func:`~repro.data.images.row_blocks`) of each class: row pairs
    counted as rows of half the mosaic's width.  A slab starts on an
    even row, so its rows' parities are the mosaic's."""
    mosaic = np.asarray(mosaic)
    height, width = mosaic.shape
    out = np.empty(mosaic.shape + (3,), dtype=np.uint8)
    for pairs in row_blocks((height + 1) // 2, (width + 1) // 2):
        rows = slice(2 * pairs.start, min(2 * pairs.stop, height))
        slab = EdgePadded(mosaic, 1, np.int16, rows)
        out[rows] = _demosaic(slab, Coset.whole((slab.height, width)))
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

    @reads_cosets
    def element_fn(samples: Coset | np.ndarray,
                   mosaic: np.ndarray) -> np.ndarray:
        return _demosaic(padded(mosaic), samples)

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
