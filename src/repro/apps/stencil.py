"""Edge-padded flat images for fixed-footprint pixel kernels.

2dconv and debayer read a fixed neighbourhood around each sampled pixel,
with clamped (edge-replicated) borders.  Padding the image once by the
neighbourhood's radius turns every clamped read into a plain gather: the
neighbour at ``(dy, dx)`` sits at the constant flat offset
``dy * stride + dx`` from the pixel's own position in the padded image.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

__all__ = ["EdgePadded", "edge_padder"]


class EdgePadded:
    """A 2-D image padded by ``radius`` edge-replicated pixels, flattened
    and, when ``dtype`` is given, widened once for the kernel's sums."""

    def __init__(self, image: np.ndarray, radius: int,
                 dtype: np.dtype | type | None = None) -> None:
        image = np.asarray(image)
        #: the source image, held weakly: the memo must not keep a
        #: zero-copy input view alive past its producer's shared memory
        self.source = weakref.ref(image)
        self.radius = radius
        self.width = image.shape[1]
        self.stride = self.width + 2 * radius
        self.flat = np.pad(image, radius, mode="edge").reshape(-1).astype(
            dtype or image.dtype, copy=False)

    def locate(self, indices: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, centres)`` of flat pixel indices of the source;
        ``centres`` are the pixels' positions in :attr:`flat`."""
        rows, cols = np.divmod(indices, self.width)
        centres = (rows + self.radius) * self.stride + (cols + self.radius)
        return rows, cols, centres

    def offset(self, dy: int, dx: int) -> int:
        """Flat distance from a pixel to its ``(dy, dx)`` neighbour."""
        return dy * self.stride + dx


def edge_padder(radius: int, dtype: np.dtype | type | None = None,
                ) -> Callable[[np.ndarray], EdgePadded]:
    """A one-slot memo of :class:`EdgePadded`, keyed on array identity.

    A stage hands its element function the same read-only input array
    for every chunk of a pass, so the image is padded once per input
    version instead of once per chunk.
    """
    last: EdgePadded | None = None

    def padded(image: np.ndarray) -> EdgePadded:
        nonlocal last
        current = last
        if current is None or current.source() is not image:
            current = last = EdgePadded(image, radius, dtype)
        return current

    return padded
