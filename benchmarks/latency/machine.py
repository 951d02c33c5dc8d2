"""How fast the box runs right now.

This box (a 2-vCPU guest) runs one thread 10-20 % faster or slower for
seconds to minutes at a time: the same 210 runs on the same inputs read
84 to 101 ms mean latency, every app moving by the same factor and CPU
time moving with wall time.  No summary of one run removes a shift of
the whole run, so the ``exec_*`` workloads — where the benchmark process
itself does the work — time a fixed kernel between rounds, on the thread
that runs them, and report their times at the speed at which that kernel
takes ``NOMINAL_SPIN_MS``.  Ten runs with ten seeds then spread by 2-3 %
where the raw times spread by 5-10 %.

The two vCPUs change speed independently of one another, so the kernel
says how fast the work ran only if both are on the same one:
``run.pin_to_one_cpu`` keeps an ``exec_*`` run, stage workers included,
on one vCPU.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_SPIN_MS", "spin_ms", "to_nominal"]

#: what ``spin_ms`` reads on the box the baseline was measured on; a
#: constant of the instrument, so calibrated times read like this box's
NOMINAL_SPIN_MS = 6.0

_GRID = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)


def _kernel_ms() -> float:
    """Half numpy, half interpreter, like the apps' stages.

    Element-wise on purpose: a threaded BLAS product spins at its
    barriers and reads four times slower beside an idle fleet.
    """
    a = _GRID
    start = time.perf_counter()
    for _ in range(20):
        a = np.tanh(a * 1.0001 + 0.1)
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def spin_ms() -> float:
    """Best of three kernels (about 18 ms in all): a preemption
    lengthens one of them, the box's speed all three."""
    return min(_kernel_ms() for _ in range(3))


def to_nominal(spin_before_ms: float, spin_after_ms: float) -> float:
    """Factor that takes a time measured between two ``spin_ms`` calls
    to nominal speed."""
    return 2.0 * NOMINAL_SPIN_MS / (spin_before_ms + spin_after_ms)
