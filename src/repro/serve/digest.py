"""Canonical request identity for coalescing and fleet placement.

Two requests are *the same work* exactly when they would build the same
automaton over the same input.  Everything else about a request — its
name, its submission id, its SLO, the identity of its builder closure —
is serving metadata, not work identity, and must not keep identical
requests apart.  :func:`input_digest` reduces work identity to a stable
hex string, :func:`request_key` makes it a coalescing/placement key and
:func:`ckpt_filename` a checkpoint file name.  :func:`value_digest` is
"same bits" for an output value, on the wire and in :mod:`repro.check`.

An array is digested content-addressed (dtype + shape + raw bytes), so
in-process callers that made the same array by different code paths
still coalesce.  A fleet spec ``(app, size, seed)`` is digested with
``data=None`` (:func:`repro.serve.fleet.spec_key`): its input is a pure
function of those fields, so nobody makes the input to learn its key.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

__all__ = ["input_digest", "request_key", "ckpt_filename", "value_digest"]


def _feed_params(h: "hashlib._Hash", params: dict[str, Any]) -> None:
    for name in sorted(params):
        value = params[name]
        if value is None:
            continue
        h.update(f"|{name}={value!r}".encode())


def input_digest(app: str, data: Any = None, **params: Any) -> str:
    """Stable hash of (app name, input bytes, size params) -> hex str.

    ``data`` may be an array (hashed by dtype, shape and raw bytes,
    C-contiguous) or None (parameter-only requests, e.g. a declarative
    fleet spec hashed without its input).
    Keyword ``params`` are canonicalized by sorted name; None values are
    skipped so an unset default and an absent parameter agree.
    """
    h = hashlib.sha256()
    h.update(f"app={app}".encode())
    if data is not None:
        arr = np.ascontiguousarray(np.asarray(data))
        h.update(f"|dtype={arr.dtype.str}|shape={arr.shape}".encode())
        h.update(arr.tobytes())
    _feed_params(h, params)
    return h.hexdigest()


def request_key(app: str, digest: str) -> str:
    """The coalescing/placement key: ``app`` qualified by its digest.

    Keeping the app name visible (rather than folding it into the hash
    alone) makes traces and fleet affinity tables human-readable.
    """
    return f"{app}:{digest[:16]}"


def ckpt_filename(key: str) -> str:
    """File name of a keyed run's suspend checkpoint: a server writes
    it, the fleet router finds a dead worker's by request key alone."""
    return key.replace(":", "_").replace("/", "_") + ".rck"


def value_digest(value: Any) -> str:
    """Stable hash of an output value (arrays, dicts of arrays, scalars)
    so bit-identity can be asserted across the wire.

    Every element is hashed, whatever the array's size, and a dict is
    walked member by member.  A value numpy can only hold as objects is
    hashed by its ``repr``, never by object identity.
    """
    h = hashlib.sha256()

    def feed(v: Any) -> None:
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
