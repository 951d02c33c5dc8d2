"""What a run costs the box and what it must not leave on it.

CPU and peak memory of the processes under test are read from
``/proc``; leftovers — processes, ``/dev/shm`` segments, temp files —
are counted after tear-down, printed, and fail the run.
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
import tempfile
import time

__all__ = ["SEGMENT_PREFIX", "cpu_seconds", "own_cpu_seconds",
           "rss_peak_mb", "reaped_rss_peak_mb", "descendants", "Hygiene",
           "quiet_shared_memory_del"]

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` from the state field on (index 0 = state,
    1 = ppid, 11..14 = utime stime cutime cstime, 19 = starttime)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    # the command name may hold spaces and brackets; it ends at the
    # last ')'
    return text[text.rfind(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` and of the children it has reaped
    (stage workers of the process executor); 0.0 once it is gone."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return sum(int(f) for f in fields[11:15]) / _TICK


def own_cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has
    reaped (stage workers of the process executor)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def rss_peak_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB; 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reaped_rss_peak_mb() -> float:
    """Largest peak RSS among this process's reaped children, MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def descendants() -> dict[int, str]:
    """Live descendants of this process as ``{pid: starttime}``;
    zombies count, they are not yet reaped."""
    parent_of: dict[int, tuple[int, str]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = (int(fields[1]), fields[19])
    found: dict[int, str] = {}
    frontier = [os.getpid()]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, started) in parent_of.items():
            if ppid == parent and pid not in found:
                found[pid] = started
                frontier.append(pid)
    return found


#: how the program under test names its segments
#: (``shmplane._new_segment_name``)
SEGMENT_PREFIX = "repro_"


def _shm_segments() -> set[str]:
    """This user's ``/dev/shm`` segments that carry the program's
    prefix: whatever else appears there during a run — another test
    run, a browser, a named semaphore — is not the benchmark's to count
    or remove."""
    found = set()
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return found
    for name in names:
        if name.startswith(SEGMENT_PREFIX):
            try:
                owner = os.stat(os.path.join("/dev/shm", name)).st_uid
            except OSError:     # unlinked since the listing
                continue
            if owner == os.getuid():
                found.add(name)
    return found


class Hygiene:
    """Private temp directory for the run, and the leftover count.

    ``TMPDIR`` points inside the checkout for this process and every
    child, so nothing is written outside it and a stray temp file is
    found by looking in one place.
    """

    def __init__(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        self.tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
        os.environ["TMPDIR"] = self.tmp_dir
        tempfile.tempdir = None     # re-read TMPDIR
        self._shm_before = _shm_segments()
        self._seen: dict[int, str] = {}

    def note_processes(self) -> None:
        """Remember every descendant alive now: one that is orphaned
        later no longer shows as a descendant, but is still ours."""
        self._seen.update(descendants())

    def leaked_segments(self) -> int:
        return len(_shm_segments() - self._shm_before)

    def close(self, grace_s: float = 3.0) -> dict[str, int]:
        """Count leftovers after tear-down, then remove them."""
        tracker = _resource_tracker_pid()
        deadline = time.monotonic() + grace_s
        while True:
            alive = dict(descendants())
            for pid, started in self._seen.items():
                fields = _stat_fields(pid)
                if fields is not None and fields[19] == started:
                    alive[pid] = started
            alive.pop(tracker, None)
            if not alive or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        for pid in alive:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        # only now: the tracker ends when the last process that holds
        # its pipe has gone, and a stage worker left behind by an
        # interrupted run holds it
        _stop_resource_tracker()
        segments = _shm_segments() - self._shm_before
        for name in segments:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
        files = sum(len(names) for _, _, names in os.walk(self.tmp_dir))
        shutil.rmtree(self.tmp_dir, ignore_errors=True)
        return {"processes": len(alive), "segments": len(segments),
                "files": files}


def _resource_tracker_pid() -> int | None:
    from multiprocessing import resource_tracker
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def _stop_resource_tracker() -> None:
    """The process executor starts multiprocessing's resource tracker,
    which otherwise lives until this process exits; the benchmark ends
    every process it started, and waits for it, before it reports.
    Not a leftover: it is stopped here, after the leftovers."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def quiet_shared_memory_del() -> None:
    """Drop the ``BufferError`` that ``SharedMemory.__del__`` raises
    when a slab is collected while a numpy view of it is still alive.

    Known chatter from the process executor's plane; it is reported
    through ``sys.unraisablehook`` and would bury the result line.  In
    this process only (and the children it forks), and only after the
    segment count has been taken, so a real leak still fails the run.
    """
    previous = sys.unraisablehook

    def hook(unraisable) -> None:
        if isinstance(unraisable.exc_value, BufferError) and \
                "SharedMemory" in repr(unraisable.object):
            return
        previous(unraisable)

    sys.unraisablehook = hook
