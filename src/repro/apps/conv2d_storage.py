"""2dconv on approximate storage — iterative anytime stage (III-B1).

The paper's second iterative technique: run the computation with its data
held in a drowsy SRAM at progressively rising supply voltage, finishing
at nominal voltage (precise).  Two properties of approximate storage
shape the construction:

- upsets are **data-destructive**, so the array must be *flushed*
  (rewritten with precise values) before each intermediate computation —
  otherwise corruption from the low-voltage level would poison the
  higher-accuracy levels;
- each level is cheaper than nominal (lower supply energy per access),
  so the iterative tax is partly paid back in energy.

This module builds a conv2d automaton whose single iterative stage walks
a :data:`~repro.hw.sram.DEFAULT_VOLTAGE_LADDER`-style voltage ladder, and
accounts storage energy through the levels.  It complements the
sample-size sweep of :func:`repro.apps.conv2d.sample_size_sweep`
(Figure 20) with a *runtime*-accuracy view of the same technique.

A note on Property 1: the level functions touch the simulated SRAM,
which is *microarchitectural* state, not semantic state — the paper's
purity requirement concerns the latter.  The flush at the top of every
level is exactly what makes the semantic behaviour independent of the
storage history; determinism is preserved per automaton via the SRAM's
seeded RNG.
"""

from __future__ import annotations

import numpy as np

from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.iterative import AccuracyLevel, IterativeStage
from ..hw.sram import DEFAULT_VOLTAGE_LADDER, DrowsySram, VoltageLevel
from .conv2d import blur_kernel, conv2d_precise

__all__ = ["build_conv2d_sram_automaton", "sram_energy_report"]


def _level_fn(sram: DrowsySram, level: VoltageLevel,
              kernel: np.ndarray):
    """One intermediate computation: flush precise pixels into the SRAM,
    drop to ``level``, read back (injecting upsets), convolve."""

    def compute(image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        sram.set_level(DEFAULT_VOLTAGE_LADDER[-1])   # nominal flush
        sram.flush(image.astype(np.int64))
        sram.set_level(level)
        return conv2d_precise(sram.read().astype(np.int64), kernel)

    return compute


def build_conv2d_sram_automaton(
        image: np.ndarray,
        ladder: tuple[VoltageLevel, ...] = DEFAULT_VOLTAGE_LADDER,
        kernel: np.ndarray | None = None,
        seed: int = 0) -> AnytimeAutomaton:
    """2dconv as an iterative anytime stage over an SRAM voltage ladder.

    ``ladder`` must end at a zero-upset (nominal) level so the final
    intermediate computation is precise.  The returned automaton exposes
    the backing :class:`DrowsySram` as ``automaton.sram`` for energy
    inspection.
    """
    image = np.asarray(image, dtype=np.uint8)
    kernel = blur_kernel() if kernel is None else kernel
    if ladder[-1].read_upset_prob != 0.0:
        raise ValueError(
            "the final voltage level must be nominal (zero upsets) so "
            "the last intermediate computation is precise")
    probs = [lv.read_upset_prob for lv in ladder]
    if probs != sorted(probs, reverse=True):
        raise ValueError(
            "voltage ladder must have non-increasing upset probability "
            "(accuracy must increase over time)")
    sram = DrowsySram(bits_per_word=8, seed=seed)
    n = image.size
    taps = kernel.size
    b_in = VersionedBuffer("input")
    b_out = VersionedBuffer("filtered")
    # Every level does the full computation (n * taps MACs); the flush
    # adds a write pass over the array.  Cost is charged uniformly; the
    # *energy* differences live in the SRAM's per-access accounting.
    levels = [
        AccuracyLevel(_level_fn(sram, lv, kernel),
                      cost=float(n * taps + n), label=lv.name)
        for lv in ladder
    ]
    stage = IterativeStage("conv-sram", b_out, (b_in,), levels,
                           allow_any_costs=True)
    automaton = AnytimeAutomaton([stage], name="2dconv-sram",
                                 external={"input": image})
    automaton.sram = sram   # type: ignore[attr-defined]
    return automaton


def sram_energy_report(
        image: np.ndarray,
        ladder: tuple[VoltageLevel, ...] = DEFAULT_VOLTAGE_LADDER,
        seed: int = 0) -> list[tuple[str, float, float]]:
    """Per-level storage energy of one automaton run.

    Returns ``(level_name, accesses_energy, relative_to_nominal)`` rows:
    each level's read traffic costs ``energy_per_access`` relative units,
    so the low-voltage levels show the paper's supply-power savings.
    """
    image = np.asarray(image, dtype=np.uint8)
    rows = []
    for lv in ladder:
        sram = DrowsySram(bits_per_word=8, seed=seed)
        sram.write(image.astype(np.int64))
        sram.set_level(lv)
        sram.energy = 0.0
        sram.read()
        nominal = image.size * 1.0
        rows.append((lv.name, sram.energy, sram.energy / nominal))
    return rows
