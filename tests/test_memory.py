"""The process memory policy (``repro.core.memory``): after one run,
freed arrays are reused without faulting their pages in again.

Each case runs in a fresh interpreter, because the policy is fixed
once per process and glibc reads its malloc environment at start.
The case holds eight 2 MiB arrays together, as a run's kept versions
are held, frees them, then allocates and fills them again; the minor
page faults of that second round are the measure.
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


def refill_faults(calls=1, **env):
    """Minor faults of the second hold-and-free round in a fresh
    interpreter after one run, and what ``keep_freed_pages`` returned
    to each of ``calls`` further calls."""
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    environ.update(env, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(calls)],
        env=environ, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults, *applied = proc.stdout.split()
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
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    environ["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", WORKER_CHILD],
                          env=environ, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults, applied = proc.stdout.split()
    assert applied == "True"
    assert int(faults) < 256
