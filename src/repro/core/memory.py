"""The process memory policy: freed heap pages stay resident and get
reused.

Every anytime version is a new atomic buffer write (Property 3), so a
run allocates and frees many arrays of 64 KiB to a few MiB.  With its
defaults glibc serves a block above its mmap threshold from a mapping
of its own and unmaps it on free, and gives the top of the heap back
to the system once more than its trim threshold lies free there; the
next run then pays a page fault for every page it touches again.  The
mmap threshold is dynamic besides: it rises to the largest mapped
block freed so far, so how a run's arrays are served depends on what
the process ran before.  And glibc gives threads malloc arenas of
their own, each keeping its own free pages: the threaded executor
starts one thread per stage per run, so the pages one run's stage
threads free sit in arenas the next run's threads may not pick, and
the resident set grows with the arena count, not the working set.

:func:`keep_freed_pages` fixes glibc's malloc once per process, before
its first thread starts: at the first
:class:`~repro.core.kernel.Kernel`, or at the start of an
:class:`~repro.serve.server.AnytimeServer` or a
:class:`~repro.serve.router.FleetRouter`, before either starts a
thread or forks a worker.  A fleet worker starts its server before it
makes its first input, so it has the policy even if it answers every
request with a precise pass and never builds a kernel; forked workers
inherit the setting.  Blocks up to
:data:`MMAP_THRESHOLD` come from the heap, up to
:data:`TRIM_THRESHOLD` of free memory stays at its top, and every
thread allocates from one arena (:data:`ARENA_MAX`), so a stage thread
reuses what earlier runs' threads freed and the resident set stays
near its high-water mark.  EXPERIMENTS.md ("Freed pages stay
resident" and "One heap per process") holds the measurements the
constants were chosen from.

Off glibc, and wherever the operator has tuned glibc's malloc through
its environment, the function does nothing: the operator's setting
wins.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["keep_freed_pages", "MMAP_THRESHOLD", "TRIM_THRESHOLD",
           "ARENA_MAX"]

#: blocks up to this size come from the heap; 32 MiB is also the
#: ceiling of glibc's own dynamic threshold on 64-bit systems
MMAP_THRESHOLD = 32 << 20
#: free memory the top of the heap keeps before glibc trims it; every
#: thread frees into the one heap, and a 1024² debayer run alone frees
#: more than 64 MiB at its top
TRIM_THRESHOLD = 256 << 20
#: malloc arenas the process may have: one heap, whose freed pages every
#: thread reuses
ARENA_MAX = 1

# mallopt's parameter numbers (<malloc.h>)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

#: environment variables through which glibc's malloc is tuned
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_", "MALLOC_ARENA_MAX",
               "MALLOC_ARENA_TEST")

_applied: bool | None = None


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (ValueError, OSError, AttributeError):
        return False


def _operator_tuned() -> bool:
    return (any(name in os.environ for name in _MALLOC_ENV)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""))


def keep_freed_pages() -> bool:
    """Fix glibc's mmap and trim thresholds and its arena count for
    this process (see the module docstring); True when they are set.
    Idempotent: only the first call acts, and every later one returns
    its answer."""
    global _applied
    if _applied is None:
        _applied = _glibc() and not _operator_tuned() and _set_malloc()
    return _applied


def _set_malloc() -> bool:
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
            and mallopt(_M_ARENA_MAX, ARENA_MAX) == 1)
