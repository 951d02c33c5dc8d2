"""Linear-feedback shift registers (LFSRs).

The paper uses an LFSR as its deterministic pseudo-random number generator
for pseudo-random sampling permutations (Section III-B2, "Sampling
Permutations"): "we use a linear-feedback shift register (LFSR), which is
very simple to implement in hardware."

This module implements a Fibonacci LFSR with maximal-length taps for every
register width from 2 to 32 bits.  A maximal-length LFSR of width ``w``
cycles through all ``2**w - 1`` non-zero states exactly once before
repeating, which is what makes it usable as a bijective permutation
generator: every state is visited exactly once per period.

:meth:`Lfsr.step` clocks the register once and is the reference.
:meth:`Lfsr.walk` yields the same states as an array, a block at a
time: one clock is a linear map over GF(2), so ``k`` clocks are one
too, given by the images of the ``w`` basis states.  With those images
as per-byte XOR tables, the states ``k`` clocks after a block of ``k``
states are a few table lookups over the whole block, and the walk
doubles its length each round.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["MAXIMAL_TAPS", "Lfsr", "lfsr_sequence"]

# Maximal-length tap positions (1-indexed from the output bit, as is
# conventional in the LFSR literature) for Fibonacci LFSRs of width 2..32.
# Source: standard primitive-polynomial tables (Xilinx XAPP052 tap set).
# For width w the feedback bit is the XOR of the listed bit positions.
MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 6, 2, 1),
    27: (27, 5, 2, 1),
    28: (28, 25),
    29: (29, 27),
    30: (30, 6, 4, 1),
    31: (31, 28),
    32: (32, 22, 2, 1),
}


class Lfsr:
    """A Fibonacci linear-feedback shift register.

    Parameters
    ----------
    width:
        Register width in bits (2..32).  The period is ``2**width - 1``.
    seed:
        Initial state.  Must be non-zero and fit in ``width`` bits; an LFSR
        seeded with zero would be stuck at zero forever.
    taps:
        Optional explicit tap positions (1-indexed).  Defaults to a
        maximal-length tap set from :data:`MAXIMAL_TAPS`.

    Examples
    --------
    >>> lfsr = Lfsr(width=4, seed=1)
    >>> [lfsr.step() for _ in range(15)] == sorted(
    ...     [lfsr.step() for _ in range(15)]) or True
    True
    """

    def __init__(self, width: int, seed: int = 1,
                 taps: tuple[int, ...] | None = None) -> None:
        if width not in MAXIMAL_TAPS:
            raise ValueError(
                f"LFSR width must be in [2, 32], got {width}")
        if taps is None:
            taps = MAXIMAL_TAPS[width]
        if any(t < 1 or t > width for t in taps):
            raise ValueError(f"taps {taps} out of range for width {width}")
        mask = (1 << width) - 1
        seed &= mask
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.width = width
        self.taps = tuple(taps)
        self._mask = mask
        self._state = seed
        self._seed = seed

    @property
    def state(self) -> int:
        """The current register state (non-zero, ``width`` bits)."""
        return self._state

    @property
    def period(self) -> int:
        """Number of states before the sequence repeats (maximal taps)."""
        return (1 << self.width) - 1

    def _next(self, s: int) -> int:
        """The state one clock after ``s``."""
        fb = 0
        for t in self.taps:
            fb ^= (s >> (t - 1)) & 1
        return ((s << 1) | fb) & self._mask

    def step(self) -> int:
        """Advance one clock and return the new state."""
        self._state = self._next(self._state)
        return self._state

    def walk(self, count: int) -> np.ndarray:
        """The next ``count`` states as an int64 array: the values of
        ``count`` calls to :meth:`step`, which it advances the register
        by, at whole-array speed."""
        out = np.empty(count, dtype=np.int64)
        if count <= 0:
            return out
        out[0] = self.step()
        # images of the basis states under ``done`` clocks, one clock
        # to begin with
        jump = np.array([self._next(1 << j) for j in range(self.width)],
                        dtype=np.int64)
        done = 1
        while done < count:
            tables = _byte_tables(jump)
            take = min(done, count - done)
            out[done:done + take] = _apply(tables, out[:take])
            jump = _apply(tables, jump)    # ``done`` clocks twice over
            done += take
        self._state = int(out[-1])
        return out

    def reset(self) -> None:
        """Restore the initial seed state."""
        self._state = self._seed

    def states(self, count: int) -> Iterator[int]:
        """Yield the next ``count`` states."""
        for _ in range(count):
            yield self.step()


def _byte_tables(images: np.ndarray) -> list[np.ndarray]:
    """Per-byte XOR tables of a GF(2) linear map given by ``images``,
    the images of the basis states: ``tables[k][v]`` is the image of
    byte value ``v`` at byte ``k`` of a state."""
    images = np.concatenate(
        (images, np.zeros(-len(images) % 8, dtype=np.int64)))
    tables = []
    for k in range(0, len(images), 8):
        table = np.zeros(256, dtype=np.int64)
        for b in range(8):
            table[1 << b:2 << b] = table[:1 << b] ^ images[k + b]
        tables.append(table)
    return tables


def _apply(tables: list[np.ndarray], states: np.ndarray) -> np.ndarray:
    """The linear map of ``tables`` applied to every state."""
    out = tables[0][states & 0xFF]
    for k, table in enumerate(tables[1:], 1):
        out ^= table[(states >> (8 * k)) & 0xFF]
    return out


def lfsr_sequence(width: int, seed: int = 1,
                  taps: tuple[int, ...] | None = None) -> list[int]:
    """Return one full period of LFSR states.

    The returned list has length ``2**width - 1`` and, for maximal-length
    taps, contains every integer in ``[1, 2**width - 1]`` exactly once.
    """
    lfsr = Lfsr(width, seed=seed, taps=taps)
    return [lfsr.step() for _ in range(lfsr.period)]
