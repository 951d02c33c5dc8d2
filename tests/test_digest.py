"""The digests hash an array's own buffer: the bits of ``tobytes()``."""

import hashlib

import numpy as np
import pytest

from repro.serve.digest import _feed_params, input_digest, value_digest


def _tobytes_input_digest(app, data=None, **params):
    h = hashlib.sha256()
    h.update(f"app={app}".encode())
    if data is not None:
        arr = np.ascontiguousarray(np.asarray(data))
        h.update(f"|dtype={arr.dtype.str}|shape={arr.shape}".encode())
        h.update(arr.tobytes())
    _feed_params(h, params)
    return h.hexdigest()


def _tobytes_value_digest(value):
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v, key=str):
                h.update(f"|k={k}".encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            for item in v:
                h.update(b"|i")
                feed(item)
        else:
            try:
                arr = np.ascontiguousarray(np.asarray(v))
            except Exception:
                arr = None
            if arr is None or arr.dtype.hasobject:
                h.update(repr(v).encode())
            else:
                h.update(f"|{arr.dtype.str}{arr.shape}".encode())
                h.update(arr.tobytes())

    feed(value)
    return h.hexdigest()


_GRID = np.arange(60, dtype=np.int64).reshape(6, 10)
_RECORDS = np.zeros(4, dtype=[("a", "u1"), ("b", "<f8"), ("c", "S3")])
_RECORDS["a"], _RECORDS["b"], _RECORDS["c"] = [1, 2, 3, 4], 0.5, b"xy"

VALUES = {
    "contiguous": _GRID,
    "strided": _GRID[::2, 1::3],
    "transposed": _GRID.T,
    "zero_d": np.array(2.5),
    "numpy_scalar": np.float32(1.25),
    "python_scalar": 7,
    "empty": np.zeros((0, 3), dtype=np.uint8),
    "bool": np.array([[True, False], [False, True]]),
    "structured": _RECORDS,
    "structured_strided": _RECORDS[::2],
    "object": np.array([1, "two", None], dtype=object),
    "big_endian": np.arange(5, dtype=">i4"),
    "nested": {"image": _GRID[:, ::2], "centroids": np.eye(3),
               "parts": [np.array(True), (np.int8(-1), "x")]},
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_digest_is_the_tobytes_digest(name):
    assert value_digest(VALUES[name]) == _tobytes_value_digest(VALUES[name])


@pytest.mark.parametrize("name", sorted(set(VALUES) - {"nested", "object"}))
def test_input_digest_is_the_tobytes_digest(name):
    got = input_digest("app", VALUES[name], size=4, seed=None)
    assert got == _tobytes_input_digest("app", VALUES[name], size=4)


def test_digesting_an_answer_copies_none_of_it():
    import tracemalloc

    answer = np.arange(256 * 256, dtype=np.int64).reshape(256, 256)
    tracemalloc.start()
    try:
        value_digest({"coeffs": answer})
        input_digest("dwt53", answer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < answer.nbytes // 16
