"""On-disk checkpoint format (repro.ckpt).

A checkpoint file is self-describing and digest-stamped::

    MAGIC (8 bytes) | u32 header length | JSON header | JSON payload

The header is cheap to read on its own: it names the automaton, the app
spec that can rebuild its graph, the executor the run was captured on,
a summary of the log, and the length and SHA-256 digest of the payload
bytes.  The payload is the run's reply log plus its reports, energy,
stop progress and duration (:mod:`repro.ckpt.state`): names and numbers
only, never array values, so it is a few KiB at any image size and
decoding it executes nothing.  The digest check runs before the decode,
turning a truncated or corrupted file into a structured
:class:`CheckpointError`.

Writes are atomic: the file is assembled under a temporary name in the
same directory and renamed into place, so a reader never observes a
half-written checkpoint (the serving layer checkpoints on shed while
the fleet router may concurrently look for migration sources).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Any

__all__ = ["CheckpointError", "FORMAT_VERSION", "MAGIC",
           "write_checkpoint", "read_header", "load_checkpoint"]

#: file magic: "repro checkpoint", format generation 1
MAGIC = b"RPROCKP1"

#: bumped on any incompatible payload/header layout change (2: the
#: payload is the JSON reply log)
FORMAT_VERSION = 2

_LEN = struct.Struct("<I")


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupted, truncated, or from an
    incompatible format generation — or does not match the graph it is
    being restored onto."""


def write_checkpoint(path: str, payload: dict[str, Any],
                     header_extra: dict[str, Any] | None = None) -> str:
    """Serialize ``payload`` to ``path`` atomically; returns the digest.

    ``header_extra`` lands in the JSON header (app spec, summary, …);
    both it and the payload must be JSON-serializable.
    """
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256(blob).hexdigest()
    header = {"format_version": FORMAT_VERSION,
              "payload_sha256": digest,
              "payload_len": len(blob)}
    if header_extra:
        header.update(header_extra)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_LEN.pack(len(head)))
        fh.write(head)
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return digest


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(
            f"checkpoint truncated while reading {what} "
            f"(wanted {n} bytes, got {len(data)})")
    return data


def read_header(path: str) -> dict[str, Any]:
    """Read and validate only the JSON header (not the payload)."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint: {exc}") from exc
    with fh:
        magic = _read_exact(fh, len(MAGIC), "magic")
        if magic != MAGIC:
            raise CheckpointError(
                f"not a repro checkpoint (bad magic {magic!r})")
        (head_len,) = _LEN.unpack(
            _read_exact(fh, _LEN.size, "header length"))
        head = _read_exact(fh, head_len, "header")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {version!r} "
            f"(this build reads {FORMAT_VERSION})")
    return header


def load_checkpoint(path: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """Load ``(header, payload)``, verifying the payload digest first."""
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.seek(len(MAGIC))
        (head_len,) = _LEN.unpack(
            _read_exact(fh, _LEN.size, "header length"))
        fh.seek(len(MAGIC) + _LEN.size + head_len)
        blob = fh.read()
    expected_len = header.get("payload_len")
    if expected_len is not None and len(blob) != expected_len:
        raise CheckpointError(
            f"checkpoint payload truncated: header promises "
            f"{expected_len} bytes, file holds {len(blob)}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(
            f"checkpoint payload digest mismatch (expected "
            f"{header.get('payload_sha256')}, got {digest})")
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint payload is not a dict")
    return header, payload
