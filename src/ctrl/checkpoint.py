"""Binary checkpoint format with bit-exact round trips.

Layout (format version 2):

    8 bytes   magic  b"CTRLCKP1"
    8 bytes   header length (uint64 little-endian)
    header    canonical JSON: format version, schema hash, config snapshot,
              sorted manifests of parameter and buffer blobs, `extra`
    payload   the blobs, concatenated in manifest order, each raw float64
              little-endian
    32 bytes  sha256 of every byte before it

Loading verifies the magic, the header's fields and types, the version, each
blob's size against its shape, the payload length and, last, the digest, and
refuses a schema-hash mismatch when the caller states an expectation. There
is no optimizer state. A version-1 file is refused as an unsupported version.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .artifacts import replacing
from .autodiff import DTensor
from .exceptions import CheckpointError
from .params import ParamStore

MAGIC = b"CTRLCKP1"
FORMAT_VERSION = 2
DIGEST_BYTES = 32  # the trailing sha256
# The header fields every version-2 checkpoint has, typed as json.loads reads
# them.
_HEADER_FIELDS = {"schema_hash": str, "config": dict, "params": list,
                  "buffers": list, "extra": dict}


@dataclass
class Checkpoint:
    path: str  # the file it was loaded from
    sha256: str  # hex digest of the bytes loaded, the whole file
    version: int
    schema_hash: str
    config: dict
    params: dict  # name -> float64 array
    buffers: dict
    extra: dict


def _manifest_and_blobs(arrays: dict):
    manifest = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
        blob = arr.astype("<f8", copy=False).tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "bytes": len(blob)})
        blobs.append(blob)
    return manifest, blobs


def save_checkpoint(path, store: ParamStore, schema_hash: str, config: dict,
                    extra: dict = None) -> None:
    params, buffers = store.export_arrays()
    p_manifest, p_blobs = _manifest_and_blobs(params)
    b_manifest, b_blobs = _manifest_and_blobs(buffers)
    header = {
        "version": FORMAT_VERSION,
        "schema_hash": schema_hash,
        "config": config,
        "params": p_manifest,
        "buffers": b_manifest,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    with replacing(path, binary=True) as fh:
        for piece in (MAGIC, struct.pack("<Q", len(header_bytes)),
                      header_bytes, *p_blobs, *b_blobs):
            digest.update(piece)
            fh.write(piece)
        fh.write(digest.digest())


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_header(path, header) -> None:
    """Raise CheckpointError unless the parsed header is a version-2 object
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
    for entry in header["params"] + header["buffers"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_count(entry.get("bytes"))
                and isinstance(entry.get("shape"), list)
                and all(_is_count(n) for n in entry["shape"])):
            raise malformed(f"manifest entry {json.dumps(entry)[:80]} is not "
                            "a name, a shape and a byte count")
        if entry["bytes"] != 8 * math.prod(entry["shape"]):
            raise malformed(f"'{entry['name']}' has shape {entry['shape']} "
                            f"but {entry['bytes']} bytes")


def _read_section(manifest, payload: memoryview, offset: int):
    out = {}
    for entry in manifest:
        n = entry["bytes"]
        arr = np.frombuffer(payload[offset:offset + n], dtype="<f8")
        out[entry["name"]] = arr.astype(np.float64).reshape(entry["shape"])
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
    header_end = header_start + header_len
    header_bytes = raw[header_start:header_end]
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
    expected = sum(e["bytes"] for e in header["params"] + header["buffers"])
    if len(raw) - header_end != expected + DIGEST_BYTES:
        raise CheckpointError(
            f"{path}: {len(raw) - header_end} bytes follow the header, the "
            f"manifest expects {expected} and a {DIGEST_BYTES}-byte digest")
    body = memoryview(raw)[:-DIGEST_BYTES]
    digest = hashlib.sha256(body)
    if digest.digest() != raw[-DIGEST_BYTES:]:
        raise CheckpointError(f"{path}: digest mismatch (corrupt file)")
    digest.update(raw[-DIGEST_BYTES:])
    payload = body[header_end:]
    params, offset = _read_section(header["params"], payload, 0)
    buffers, _ = _read_section(header["buffers"], payload, offset)
    return Checkpoint(path=str(path), sha256=digest.hexdigest(),
                      version=header["version"],
                      schema_hash=header["schema_hash"], config=header["config"],
                      params=params, buffers=buffers, extra=header["extra"])


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
    for name, arr in params.items():
        store.replace(name, DTensor(arr, requires_grad=True))
    for name, arr in buffers.items():
        store.buffer(name)[...] = arr
    return len(params) + len(buffers)
