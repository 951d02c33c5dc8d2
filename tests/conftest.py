"""Shared fixtures for the test suite."""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.anytime import fill, permutations
from repro.anytime.permutations import TreePermutation
from repro.data import bayer_mosaic, clustered_image, scene_image

try:
    from hypothesis import HealthCheck, settings as _hyp_settings

    # ``ci``: deterministic and bounded — no wall-clock deadline (CI
    # machines are noisy), a fixed derandomized seed so a red run is
    # reproducible, and capped examples so property tests stay cheap.
    # ``dev``: hypothesis defaults plus deadline=None (the simulated
    # executor's first call can exceed the default 200 ms deadline).
    _hyp_settings.register_profile(
        "ci", deadline=None, max_examples=25, derandomize=True,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow])
    _hyp_settings.register_profile("dev", deadline=None)
    _hyp_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:       # pragma: no cover - hypothesis is a dev dep
    pass


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "faults: fault-tolerance / fault-injection tests")
    config.addinivalue_line(
        "markers",
        "serve: serving-layer tests that hold long-lived server "
        "threads (the watchdog reaps leaked servers on expiry)")
    config.addinivalue_line(
        "markers",
        "check: conformance-subsystem tests (repro.check)")
    config.addinivalue_line(
        "markers",
        "slow: long-running tests (differential harness, fuzzing); "
        "deselect with -m 'not slow' for a quick pass")
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than "
        "`seconds` (lightweight SIGALRM watchdog; no-op where "
        "SIGALRM is unavailable; `timeout(0)` disarms, e.g. for an "
        "intentionally idle server test under a file-level mark)")


@pytest.fixture(autouse=True)
def _watchdog(request):
    """A conftest-level stand-in for pytest-timeout.

    Threaded-executor bugs tend to wedge the whole suite (a stage
    thread never wakes, ``run()`` joins forever).  Tests marked
    ``@pytest.mark.timeout(s)`` get a SIGALRM that raises in the main
    thread, turning a hang into a prompt failure.  Only armed on
    platforms with SIGALRM (everywhere tier-1 runs).

    Serving-layer interplay: a server test that trips the watchdog
    unwinds past its ``with server:`` block by exception while the
    scheduler thread and per-request stage threads are still live —
    those would haunt every later test.  So on expiry (and on teardown
    of any ``serve``-marked test) leaked servers are shut down via the
    serve layer's live-server registry.  A ``serve`` test that is
    *intentionally* idle can opt out of an inherited file-level mark
    with ``@pytest.mark.timeout(0)``.
    """
    marker = request.node.get_closest_marker("timeout")
    serving = request.node.get_closest_marker("serve") is not None

    def _reap_servers():
        if not serving:
            return
        from repro.serve import shutdown_all_servers
        shutdown_all_servers(timeout_s=2.0)

    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        _reap_servers()
        return
    seconds = float(marker.args[0]) if marker.args else 60.0
    if seconds <= 0:       # timeout(0): explicitly disarmed
        yield
        _reap_servers()
        return

    def _expired(signum, frame):
        _reap_servers()
        raise TimeoutError(
            f"watchdog: test exceeded {seconds:.0f}s (likely a wedged "
            f"threaded executor or a stuck serving drain)")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        _reap_servers()


@pytest.fixture(scope="session")
def small_image():
    """A 64x64 grayscale scene (uint8), session-cached."""
    return scene_image(64, seed=11)


@pytest.fixture(scope="session")
def small_mosaic():
    """A 64x64 Bayer mosaic (uint8), session-cached."""
    return bayer_mosaic(64, seed=12)


@pytest.fixture(scope="session")
def small_rgb():
    """A 32x32 cluster-structured RGB image (uint8), session-cached."""
    return clustered_image(32, seed=13, clusters=4)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def suspend_only():
    """A scripted :class:`~repro.serve.ServePolicy` for suspend-path
    tests: ``suspend_only(victim, first)`` grants free slots to the
    session named ``first`` before any other and preempts only the one
    named ``victim`` (on a server with a ``resume_dir``, that suspends
    it to disk)."""
    from repro.serve import ServePolicy

    class SuspendOnly(ServePolicy):
        def __init__(self, victim, first):
            self.victim, self.first = victim, first

        def rank_ready(self, ready, now):
            return sorted(ready, key=lambda s: (s.name != self.first,
                                                s._ready_since))

        def pick_victim(self, candidates, ready, now):
            return next((s for s in candidates if s.name == self.victim),
                        None)

    return SuspendOnly


@pytest.fixture()
def derivations(monkeypatch, request):
    """A tree permutation that counts its order derivations, and counts
    of tree-level, coset and paint-plan derivations, each split between
    this process and any other; the counters are shared across fork.
    A plan derivation is any :class:`~repro.anytime.fill.TreePainter`
    advance that works out its paint instead of replaying a kept plan.
    The permutation's key is this test's own, so its memo starts cold.

    ``counts(*kinds)`` reads the counters of ``kinds`` (by default
    orders and levels) as ``{f"{kind}_{here|elsewhere}": n}``.
    """
    ctx = mp.get_context("fork")
    kinds = ("orders", "levels", "cosets", "plans")
    counters = {f"{kind}_{where}": ctx.Value("i", 0)
                for kind in kinds for where in ("here", "elsewhere")}
    parent = os.getpid()

    def count(kind):
        where = "here" if os.getpid() == parent else "elsewhere"
        counter = counters[f"{kind}_{where}"]
        with counter.get_lock():
            counter.value += 1

    def counting(kind, fn):
        def counted(*args):
            count(kind)
            return fn(*args)
        return counted

    monkeypatch.setattr(permutations, "sample_levels",
                        counting("levels", permutations.sample_levels))
    for name in ("find_coset", "join_cosets"):
        monkeypatch.setattr(permutations, name,
                            counting("cosets", getattr(permutations, name)))
    monkeypatch.setattr(fill.TreePainter, "_plan",
                        counting("plans", fill.TreePainter._plan))

    class Counting(TreePermutation):
        def __init__(self):
            self.tag = request.node.nodeid

        def order(self, shape):
            count("orders")
            return super().order(shape)

    def counts(*which):
        which = which or ("orders", "levels")
        return {k: v.value for k, v in counters.items()
                if k.rsplit("_", 1)[0] in which}

    return Counting, counts


@pytest.fixture()
def batch(monkeypatch):
    """``batch(k)`` sets how many chunks or levels a batching stage
    fuses (:data:`repro.core.stage.BATCH`) for this test; forked stage
    workers inherit it."""
    from repro.core import stage

    return lambda width: monkeypatch.setattr(stage, "BATCH", width)


@pytest.fixture()
def blocks(monkeypatch):
    """Sets the pixels of one block of every blocked step
    (:data:`repro.data.images.BLOCK`) for the test, with an empty scene
    memo (before and after), so the scenes it uses are made in them."""
    from repro.data import images

    images._kept_scene.cache_clear()
    yield lambda pixels: monkeypatch.setattr(images, "BLOCK", pixels)
    images._kept_scene.cache_clear()


@pytest.fixture()
def scene_makes(monkeypatch):
    """An empty scene memo (:mod:`repro.data.images`), and the
    ``(size, seed)`` of every scene made while the test runs, in this
    process or on its threads."""
    from repro.data import images

    made = []
    make = images._make_scene

    def counted(size, seed):
        made.append((size, seed))
        return make(size, seed)

    monkeypatch.setattr(images, "_make_scene", counted)
    images._kept_scene.cache_clear()
    yield made
    images._kept_scene.cache_clear()
