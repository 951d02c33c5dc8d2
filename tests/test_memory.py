"""The process memory policy (``repro.core.memory``): after one run,
freed arrays are reused without faulting their pages in again, and
every thread allocates from one heap.

Each case runs in a fresh interpreter, because the policy is fixed
once per process and glibc reads its malloc environment at start.
The refill cases hold eight 2 MiB arrays together, as a run's kept
versions are held, free them, then allocate and fill them again; the
minor page faults of that second round are the measure.  The arena
cases count what glibc's ``malloc_stats`` lists and read the peak
resident set.
"""

import os
import platform
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the policy sets glibc's malloc thresholds")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CHILD = """
import resource
import sys
import numpy as np
from repro.apps.registry import get_app
from repro.core.memory import keep_freed_pages

spec = get_app("2dconv")
spec.build(spec.make_input(16, 0)).run_threaded(timeout_s=60.0)
applied = [keep_freed_pages() for _ in range(int(sys.argv[1]))]

def hold_and_free():
    held = [np.empty(2 << 20, dtype=np.uint8) for _ in range(8)]
    for array in held:
        array.fill(1)
    del held

hold_and_free()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
hold_and_free()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults, *applied)
"""


def fresh(code, *argv, **env):
    """``code`` run to its end in a fresh interpreter whose environment
    tunes no malloc but by ``env``."""
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    environ.update(env, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=environ, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def refill_faults(calls=1, **env):
    """Minor faults of the second hold-and-free round in a fresh
    interpreter after one run, and what ``keep_freed_pages`` returned
    to each of ``calls`` further calls."""
    faults, *applied = fresh(CHILD, str(calls), **env).stdout.split()
    return int(faults), [flag == "True" for flag in applied]


def test_freed_arrays_are_reused_after_one_run():
    """16 MiB is 4 096 pages: glibc's defaults give them back on free
    and fault all of them in again."""
    faults, applied = refill_faults()
    assert applied == [True]
    assert faults < 256


def test_the_operators_malloc_setting_wins():
    faults, applied = refill_faults(MALLOC_TRIM_THRESHOLD_="131072")
    assert applied == [False]
    assert faults > 2000


def test_a_glibc_malloc_tunable_also_wins():
    _, applied = refill_faults(
        GLIBC_TUNABLES="glibc.malloc.trim_threshold=131072")
    assert applied == [False]


def test_the_policy_is_idempotent():
    faults, applied = refill_faults(calls=3)
    assert applied == [True, True, True]
    assert faults < 256


WORKER_CHILD = """
import resource
import socket
import threading
import numpy as np
from repro.core import memory
from repro.serve.fleet import recv_msg, send_msg, worker_main

ours, theirs = socket.socketpair()
worker = threading.Thread(target=worker_main, args=(theirs, {}))
worker.start()
send_msg(ours, {"op": "stats", "rid": 1})
assert recv_msg(ours)["op"] == "stats"
applied = memory._applied

def hold_and_free():
    held = [np.empty(2 << 20, dtype=np.uint8) for _ in range(8)]
    for array in held:
        array.fill(1)
    del held

hold_and_free()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
hold_and_free()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
send_msg(ours, {"op": "shutdown"})
worker.join(timeout=30.0)
print(faults, applied)
"""


def test_a_worker_sets_the_policy_before_its_first_request():
    """A worker that has answered no submit has built no ``Kernel``,
    and a held request never builds one: the worker sets the policy
    itself, before it makes its first input."""
    faults, applied = fresh(WORKER_CHILD).stdout.split()
    assert applied == "True"
    assert int(faults) < 256


ARENA_CHILD = """
import ctypes
import sys
from repro.apps.registry import get_app
from repro.core.memory import keep_freed_pages

applied = keep_freed_pages()
spec = get_app("histeq")
for seed in range(2):
    spec.build(spec.make_input(64, seed)).run_threaded(timeout_s=60.0)
print(applied, flush=True)
sys.stderr.flush()
malloc_stats = ctypes.CDLL(None).malloc_stats
malloc_stats.argtypes = ()
malloc_stats.restype = None
malloc_stats()
"""


def arenas(**env):
    """What ``keep_freed_pages`` returned in a fresh interpreter, and
    the malloc arenas glibc lists after two threaded histeq runs of
    four stage threads each."""
    proc = fresh(ARENA_CHILD, **env)
    listed = sum(1 for line in proc.stderr.splitlines()
                 if line.startswith("Arena "))
    return proc.stdout.split() == ["True"], listed


def test_every_thread_allocates_from_one_arena():
    """glibc gives a stage thread an arena of its own: two with its
    defaults here."""
    applied, listed = arenas()
    assert applied
    assert listed == 1


def test_the_operators_arena_count_wins():
    applied, listed = arenas(MALLOC_ARENA_MAX="4")
    assert not applied
    assert listed > 1


HWM_CHILD = """
import os
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
from repro.apps.registry import get_app

APPS = ("2dconv", "histeq", "dwt53", "debayer", "kmeans")

def vm_hwm_mib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024

def one_round(seed):
    for app in APPS:
        spec = get_app(app)
        spec.build(spec.make_input(256, seed)).run_threaded(timeout_s=60.0)

one_round(0)
before = vm_hwm_mib()
for seed in range(1, 7):
    one_round(seed)
print(vm_hwm_mib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_runs_after_a_warm_round_reuse_what_it_freed():
    """30 threaded 256² runs over the five apps, pinned to one CPU,
    after one warm round: with an arena per stage thread the peak
    resident set grew by 12–16 MiB, with one heap by under 1 MiB."""
    assert float(fresh(HWM_CHILD).stdout) < 4.0


SERVER_CHILD = """
from repro.core import memory
from repro.serve.server import AnytimeServer

server = AnytimeServer().start()
applied = memory._applied
server.shutdown()
print(applied)
"""


def test_a_server_sets_the_policy_before_its_first_run():
    """Its scheduler thread, and every run's stage threads, start
    after the arena count is fixed."""
    assert fresh(SERVER_CHILD).stdout.split() == ["True"]


LARGE_CHILD = """
import resource
from repro.apps.registry import get_app

spec = get_app("debayer")
for seed in range(2):
    automaton = spec.build(spec.make_input(1024, seed))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    automaton.run_threaded(timeout_s=120.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_a_large_run_reuses_what_the_last_one_freed():
    """A 1024² debayer run frees more than 64 MiB at the top of the
    one heap: a 64 MiB trim threshold gave it back, and the next run
    faulted about 19 000 pages in again (11 500 with an arena per
    stage thread); it faults 770 now."""
    assert int(fresh(LARGE_CHILD).stdout) < 2000
