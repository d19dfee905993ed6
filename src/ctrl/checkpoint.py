"""Binary checkpoint format with bit-exact round trips.

Layout:

    8 bytes   magic  b"CTRLCKP1"
    8 bytes   header length (uint64 little-endian)
    header    canonical JSON: format version, schema hash, config snapshot,
              sorted manifests of parameter / buffer / optimizer blobs (the
              optimizer manifest is written empty), sha256 of the payload
    payload   the blobs, concatenated in manifest order, each raw float64
              little-endian

Loading verifies the magic, the header's fields and types, the version, each
blob's size against its shape, the payload length and the payload digest,
and refuses a schema-hash mismatch when the caller states an expectation.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .artifacts import replacing
from .exceptions import CheckpointError
from .params import ParamStore

MAGIC = b"CTRLCKP1"
FORMAT_VERSION = 1
# The header fields every version-1 checkpoint has, typed as json.loads reads
# them.
_HEADER_FIELDS = {"schema_hash": str, "config": dict, "params": list,
                  "buffers": list, "optimizer": list, "payload_sha256": str}


@dataclass
class Checkpoint:
    path: str  # the file it was loaded from
    version: int
    schema_hash: str
    config: dict
    params: dict  # name -> float64 array
    buffers: dict
    extra: dict


def _manifest_and_payload(arrays: dict):
    manifest = []
    chunks = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
        blob = arr.astype("<f8", copy=False).tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "bytes": len(blob)})
        chunks.append(blob)
    return manifest, b"".join(chunks)


def save_checkpoint(path, store: ParamStore, schema_hash: str, config: dict,
                    extra: dict = None) -> None:
    params, buffers = store.export_arrays()
    p_manifest, p_payload = _manifest_and_payload(params)
    b_manifest, b_payload = _manifest_and_payload(buffers)
    payload = p_payload + b_payload
    header = {
        "version": FORMAT_VERSION,
        "schema_hash": schema_hash,
        "config": config,
        "params": p_manifest,
        "buffers": b_manifest,
        "optimizer": [],
        "extra": extra or {},
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with replacing(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_header(path, header) -> None:
    """Raise CheckpointError unless the parsed header is a version-1 object
    with the fields of _HEADER_FIELDS and manifest entries whose `bytes` hold
    exactly their `shape` of float64 values."""
    def malformed(what):
        return CheckpointError(f"{path}: malformed header: {what}")
    if not isinstance(header, dict):
        raise malformed(f"a JSON {type(header).__name__}, not an object")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version "
                              f"{header.get('version')}")
    for key, kind in _HEADER_FIELDS.items():
        if not isinstance(header.get(key), kind):
            raise malformed(f"'{key}' is missing or not a {kind.__name__}")
    if not isinstance(header.get("extra", {}), dict):
        raise malformed("'extra' is not a dict")
    for entry in header["params"] + header["buffers"] + header["optimizer"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_count(entry.get("bytes"))
                and isinstance(entry.get("shape"), list)
                and all(_is_count(n) for n in entry["shape"])):
            raise malformed(f"manifest entry {json.dumps(entry)[:80]} is not "
                            "a name, a shape and a byte count")
        if entry["bytes"] != 8 * math.prod(entry["shape"]):
            raise malformed(f"'{entry['name']}' has shape {entry['shape']} "
                            f"but {entry['bytes']} bytes")


def _read_section(manifest, payload: bytes, offset: int):
    out = {}
    for entry in manifest:
        n = entry["bytes"]
        chunk = payload[offset:offset + n]
        if len(chunk) != n:
            raise CheckpointError(f"truncated blob for '{entry['name']}'")
        arr = np.frombuffer(chunk, dtype="<f8").astype(np.float64)
        out[entry["name"]] = arr.reshape(entry["shape"])
        offset += n
    return out, offset


def load_checkpoint(path, expect_schema_hash: str = None) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    if len(raw) < len(MAGIC) + 8 or raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (header_len,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
    header_start = len(MAGIC) + 8
    header_bytes = raw[header_start:header_start + header_len]
    if len(header_bytes) != header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    _check_header(path, header)
    if expect_schema_hash is not None and header["schema_hash"] != expect_schema_hash:
        raise CheckpointError(
            f"{path}: schema hash mismatch (checkpoint "
            f"{header['schema_hash'][:12]}..., expected "
            f"{expect_schema_hash[:12]}...); refusing to load")
    payload = raw[header_start + header_len:]
    expected = sum(e["bytes"] for e in
                   header["params"] + header["buffers"] + header["optimizer"])
    if len(payload) != expected:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, "
                              f"manifest expects {expected}")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload digest mismatch (corrupt blob)")
    params, offset = _read_section(header["params"], payload, 0)
    buffers, _ = _read_section(header["buffers"], payload, offset)
    return Checkpoint(path=str(path), version=header["version"],
                      schema_hash=header["schema_hash"], config=header["config"],
                      params=params, buffers=buffers, extra=header.get("extra", {}))


def restore_into(store: ParamStore, ckpt: Checkpoint, prefix: str = "") -> int:
    """Copy every parameter and buffer of `store` whose name starts with
    `prefix` from the checkpoint, which may hold more. Raises CheckpointError
    naming the first one it lacks or holds in another shape, parameters
    first, before copying any. Returns the number of tensors restored."""
    params = {n: ckpt.params.get(n) for n in store.names() if n.startswith(prefix)}
    buffers = {n: ckpt.buffers.get(n) for n in store.buffer_names()
               if n.startswith(prefix)}
    shapes = {**{n: store[n].shape for n in params},
              **{n: store.buffer(n).shape for n in buffers}}
    for name, arr in [*params.items(), *buffers.items()]:
        if arr is None:
            raise CheckpointError(f"{ckpt.path}: checkpoint lacks {name}")
        if arr.shape != shapes[name]:
            raise CheckpointError(
                f"{ckpt.path}: checkpoint holds {name} with shape "
                f"{list(arr.shape)}, the model's is {list(shapes[name])}")
    store.load_arrays(params, buffers)
    return len(params) + len(buffers)
