import hashlib
import json
import struct

import numpy as np
import pytest

from ctrl.checkpoint import (FORMAT_VERSION, MAGIC, load_checkpoint,
                             restore_into, save_checkpoint)
from ctrl.exceptions import CheckpointError
from ctrl.params import ParamStore


def _store():
    store = ParamStore()
    rng = np.random.default_rng(0)
    store.add("collab.emb.w", rng.normal(size=(5, 3)))
    store.add("collab.out.b", rng.normal(size=4))
    store.add("text.tok_emb", rng.normal(size=(7, 2)))
    store.add_buffer("collab.bn.running_mean", rng.normal(size=4))
    return store


def test_round_trip_is_bit_exact(tmp_path):
    store = _store()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, store, schema_hash="abc123",
                    config={"seed": 1, "lr": 0.5}, extra={"epoch": 2})
    ckpt = load_checkpoint(path)
    assert ckpt.version == FORMAT_VERSION
    assert ckpt.schema_hash == "abc123"
    assert ckpt.config == {"seed": 1, "lr": 0.5}
    assert ckpt.extra == {"epoch": 2}
    for name in store.names():
        assert np.array_equal(ckpt.params[name], store[name].data)
    assert np.array_equal(ckpt.buffers["collab.bn.running_mean"],
                          store.buffer("collab.bn.running_mean"))

    # loading into an identical topology and saving again gives identical bytes
    other = _store()
    restore_into(other, ckpt)
    path2 = tmp_path / "b.ckpt"
    save_checkpoint(path2, other, schema_hash="abc123",
                    config={"seed": 1, "lr": 0.5}, extra={"epoch": 2})
    assert path.read_bytes() == path2.read_bytes()


def test_rejects_non_checkpoint_and_missing(tmp_path):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"CSV,not,a,checkpoint")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(junk)
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_rejects_truncated_header(tmp_path):
    store = _store()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, store, schema_hash="h", config={})
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(path.read_bytes()[:len(MAGIC) + 8 + 10])
    with pytest.raises(CheckpointError, match="truncated header"):
        load_checkpoint(cut)


def test_rejects_corrupt_header_json(tmp_path):
    body = b"{this is not json"
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<Q", len(body)) + body)
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(path)


def _raw_with_header(header) -> bytes:
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<Q", len(body)) + body


def _valid_header(payload: bytes = b"") -> dict:
    return {"version": FORMAT_VERSION, "schema_hash": "h", "config": {},
            "params": [], "buffers": [], "optimizer": [], "extra": {},
            "payload_sha256": hashlib.sha256(payload).hexdigest()}


def _raw_with_version(version: int) -> bytes:
    return _raw_with_header(_valid_header() | {"version": version})


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "v99.ckpt"
    path.write_bytes(_raw_with_version(99))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
    ok = tmp_path / "v1.ckpt"
    ok.write_bytes(_raw_with_version(FORMAT_VERSION))
    assert load_checkpoint(ok).params == {}


def test_rejects_a_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.ckpt"
    path.write_bytes(_raw_with_header([1, 2]))
    with pytest.raises(CheckpointError,
                       match="malformed header: a JSON list, not an object"):
        load_checkpoint(path)


def test_rejects_a_header_without_manifests(tmp_path):
    path = tmp_path / "bare.ckpt"
    path.write_bytes(_raw_with_header({"version": FORMAT_VERSION}))
    with pytest.raises(CheckpointError, match="malformed header: '.*' is "
                                              "missing or not a"):
        load_checkpoint(path)


@pytest.mark.parametrize("entry,why", [
    ({"name": "w", "shape": [2], "bytes": "16"}, "is not a name"),
    ({"name": "w", "shape": [2]}, "is not a name"),
    ({"name": "w", "shape": "2", "bytes": 16}, "is not a name"),
    ({"name": "w", "shape": [-2], "bytes": 16}, "is not a name"),
    ({"name": 7, "shape": [2], "bytes": 16}, "is not a name"),
    ("w", "is not a name"),
    ({"name": "w", "shape": [3], "bytes": 16}, "'w' has shape"),
], ids=["bytes-a-string", "no-bytes", "shape-a-string", "negative-dim",
        "name-a-number", "not-an-object", "shape-disagrees"])
def test_rejects_a_manifest_entry_that_does_not_describe_its_blob(
        tmp_path, entry, why):
    payload = np.arange(2.0).astype("<f8").tobytes()
    path = tmp_path / "entry.ckpt"
    path.write_bytes(_raw_with_header(_valid_header(payload)
                                      | {"params": [entry]}) + payload)
    with pytest.raises(CheckpointError, match=f"malformed header: .*{why}"):
        load_checkpoint(path)
    ok = tmp_path / "ok.ckpt"
    ok.write_bytes(_raw_with_header(_valid_header(payload) | {
        "params": [{"name": "w", "shape": [2], "bytes": 16}]}) + payload)
    assert np.array_equal(load_checkpoint(ok).params["w"], [0.0, 1.0])


def test_rejects_payload_corruption(tmp_path):
    store = _store()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, store, schema_hash="h", config={})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    flipped = tmp_path / "flipped.ckpt"
    flipped.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(flipped)

    longer = tmp_path / "longer.ckpt"
    longer.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="manifest expects"):
        load_checkpoint(longer)


def test_schema_hash_gate(tmp_path):
    store = _store()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, store, schema_hash="expected-hash", config={})
    assert load_checkpoint(path, expect_schema_hash="expected-hash")
    assert load_checkpoint(path)  # no expectation stated
    with pytest.raises(CheckpointError, match="refusing to load"):
        load_checkpoint(path, expect_schema_hash="some-other-hash")


def test_restore_into_prefix_filter(tmp_path):
    store = _store()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, store, schema_hash="h", config={})
    ckpt = load_checkpoint(path)

    target = ParamStore()
    target.add("collab.emb.w", np.zeros((5, 3)))
    target.add("collab.out.b", np.zeros(4))
    target.add("unrelated.w", np.zeros(2))
    target.add_buffer("collab.bn.running_mean", np.zeros(4))
    n = restore_into(target, ckpt, prefix="collab.")
    assert n == 3
    assert np.array_equal(target["collab.emb.w"].data, store["collab.emb.w"].data)
    assert np.array_equal(target.buffer("collab.bn.running_mean"),
                          store.buffer("collab.bn.running_mean"))
    assert np.array_equal(target["unrelated.w"].data, np.zeros(2))


def test_restore_into_refuses_a_checkpoint_lacking_a_tensor_before_copying(
        tmp_path):
    store = _store()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, store, schema_hash="h", config={})
    ckpt = load_checkpoint(path)
    assert ckpt.path == str(path)

    target = ParamStore()
    target.add("collab.emb.w", np.zeros((5, 3)))
    target.add_buffer("collab.bn.running_mean", np.zeros(4))
    target.add_buffer("collab.bn.running_var", np.ones(4))
    target.add("text.extra", np.zeros(1))  # outside the prefix: not required
    with pytest.raises(CheckpointError, match=r"a\.ckpt: checkpoint lacks "
                       r"collab\.bn\.running_var$"):
        restore_into(target, ckpt, prefix="collab.")
    target.add("collab.zz", np.zeros(1))  # a parameter is named first
    with pytest.raises(CheckpointError, match=r"lacks collab\.zz$"):
        restore_into(target, ckpt, prefix="collab.")
    assert not target["collab.emb.w"].data.any()
    assert not target.buffer("collab.bn.running_mean").any()


def test_restore_shape_mismatch_raises(tmp_path):
    """A tensor of another shape is refused naming the file and the tensor,
    before anything is copied; a buffer of another shape is not broadcast."""
    store = _store()
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, store, schema_hash="h", config={})
    ckpt = load_checkpoint(path)
    target = ParamStore()
    target.add("collab.emb.w", np.zeros((5, 3)))  # restorable
    target.add("collab.out.b", np.zeros(2))
    target.add_buffer("collab.bn.running_mean", np.zeros(4))
    with pytest.raises(CheckpointError, match=r"a\.ckpt: checkpoint holds "
                       r"collab\.out\.b with shape \[4\], the model's is "
                       r"\[2\]$"):
        restore_into(target, ckpt, prefix="collab.")
    assert not target["collab.emb.w"].data.any()
    assert not target.buffer("collab.bn.running_mean").any()

    target = ParamStore()
    target.add("collab.emb.w", np.zeros((5, 3)))
    target.add_buffer("collab.bn.running_mean", np.zeros((1, 4)))
    with pytest.raises(CheckpointError, match=r"collab\.bn\.running_mean "
                       r"with shape \[4\], the model's is \[1, 4\]$"):
        restore_into(target, ckpt, prefix="collab.")
    assert not target["collab.emb.w"].data.any()
    assert not target.buffer("collab.bn.running_mean").any()
