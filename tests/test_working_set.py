"""A request's working set on a fleet worker: its input, its answer and
a few blocks.

A worker makes each new spec's input (``make_input``) and its precise
value (the app's ``reference``, or ``build(image).precise_output()``
for dwt53, whose reference is its input).  Both work in row blocks of
:data:`repro.data.images.BLOCK` pixels, so what they allocate beyond
what they hand back is bounded by the block, not by the image.  The
allocator keeps freed pages, so a worker's resident memory follows its
largest such peak.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps.registry import APP_REGISTRY, get_app
from repro.data import images

SIZE = 512

#: what a step may allocate beyond its result and one byte a pixel:
#: sixteen float64 planes of a block, 2 MiB
SLACK = 16 * 8 * images.BLOCK


def _traced_peak(step):
    """What ``step`` allocates at its peak.  The tests run each step
    once on a small input first: a process's first call also imports
    what the step uses, once."""
    tracemalloc.start()
    try:
        value = step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def _nbytes(value):
    if isinstance(value, dict):
        return sum(_nbytes(v) for v in value.values())
    return np.asarray(value).nbytes


class TestWorkingSet:
    @pytest.mark.parametrize("app", sorted(APP_REGISTRY))
    def test_an_input_is_its_bytes_and_a_few_blocks(self, app,
                                                    scene_makes):
        """The byte a pixel beyond the input is the scene the process
        keeps (every app's input is made from one)."""
        get_app(app).make_input(16, 3)
        image, peak = _traced_peak(
            lambda: get_app(app).make_input(SIZE, 3))
        assert scene_makes == [(16, 3), (SIZE, 3)]
        assert peak <= image.nbytes + SIZE * SIZE + SLACK, peak

    @pytest.mark.parametrize("app", sorted(APP_REGISTRY))
    def test_a_precise_value_is_its_bytes_and_a_few_blocks(self, app):
        """The byte a pixel beyond the answer is kmeans' labels, or the
        copy of its input dwt53's automaton holds."""
        spec = get_app(app)

        def precise(image):
            if spec.reference_kind == "input":
                return spec.build(image).precise_output()
            return spec.reference(image)

        precise(spec.make_input(16, 3))
        image = spec.make_input(SIZE, 3)
        value, peak = _traced_peak(lambda: precise(image))
        assert peak <= _nbytes(value) + SIZE * SIZE + SLACK, peak
