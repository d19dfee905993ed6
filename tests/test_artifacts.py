"""Artifact I/O: atomic replacement, mode bits, the one JSON reader, and a
source gate that keeps every file write in ctrl.artifacts."""

import ast
import errno
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import ctrl
from ctrl import artifacts
from ctrl.artifacts import read_json, replacing, write_json
from ctrl.checkpoint import save_checkpoint
from ctrl.config import RunConfig, save_config
from ctrl.exceptions import DataError
from ctrl.finetune import write_history
from ctrl.params import ParamStore

SRC = Path(ctrl.__file__).parent


def _store(seed):
    store = ParamStore()
    store.add("collab.emb.w", np.random.default_rng(seed).normal(size=(5, 3)))
    return store


def _history(n, value):
    return [(epoch, value, 0.5, 0.25) for epoch in range(n)]


# each writes one version of an artifact; the versions differ in their bytes
WRITERS = {
    "checkpoint": lambda path, v: save_checkpoint(path, _store(v), "h", {}),
    "json": lambda path, v: save_config(RunConfig(seed=v), path),
    "csv": lambda path, v: write_history(_history(50, float(v)), path),
}


class FullDisk:
    """A file that takes `room` more bytes or characters, flushes them to
    disk, then fails as a full disk does."""

    def __init__(self, fh, room, seen):
        self.fh, self.room, self.seen = fh, room, seen

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) <= self.room:
            self.room -= len(data)
            return self.fh.write(data)
        self.fh.write(data[:self.room])
        self.fh.flush()
        self.seen.append(os.path.getsize(self.fh.name))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, kind):
    path = tmp_path / "artifact"
    WRITERS[kind](path, 1)
    before = path.read_bytes()
    seen = []
    monkeypatch.setattr(
        artifacts, "open", raising=False,
        value=lambda *a, **kw: FullDisk(open(*a, **kw), 10, seen))
    with pytest.raises(OSError) as info:
        WRITERS[kind](path, 2)
    assert info.value.errno == errno.ENOSPC
    assert seen == [10]  # the bytes reached the temporary file
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


def test_a_row_that_raises_mid_history_keeps_the_previous_file(tmp_path):
    path = tmp_path / "history.csv"
    write_history(_history(3, 0.5), path)
    before = path.read_bytes()
    seen = []

    def rows():
        yield from _history(2000, 0.125)
        # well past the text buffer: part of the file is on disk
        seen.extend(os.path.getsize(tmp_path / n) for n in os.listdir(tmp_path)
                    if n != "history.csv")
        raise RuntimeError("row generator failed")

    with pytest.raises(RuntimeError, match="row generator failed"):
        write_history(rows(), path)
    assert len(seen) == 1 and seen[0] > 0
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["history.csv"]


def test_a_completed_write_replaces_the_file(tmp_path):
    path = tmp_path / "artifact"
    for kind, writer in WRITERS.items():
        writer(path, 1)
        first = path.read_bytes()
        writer(path, 2)
        assert path.read_bytes() != first, kind
        assert os.listdir(tmp_path) == ["artifact"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
@pytest.mark.parametrize("binary", [False, True])
def test_new_files_get_the_mode_bits_of_open(tmp_path, umask, binary):
    old = os.umask(umask)
    try:
        with replacing(tmp_path / "atomic", binary=binary) as fh:
            fh.write(b"x" if binary else "x")
        with open(tmp_path / "plain", "wb" if binary else "w") as fh:
            fh.write(b"x" if binary else "x")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / n).st_mode)
             for n in ("atomic", "plain")]
    assert modes[0] == modes[1] == 0o666 & ~umask


def test_write_json_adds_one_newline(tmp_path):
    write_json(tmp_path / "a.json", '{"k":"é"}')
    assert (tmp_path / "a.json").read_bytes() == '{"k":"é"}\n'.encode()


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", None])
def test_read_json_names_the_file(tmp_path, content):
    path = tmp_path / "blob.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match="blob.json"):
        read_json(path)


_WRITE_MODE = set("wax+")


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call writes a file or makes a directory: `.write_text`,
    `.write_bytes`, `os.open`, `Path.mkdir`, `os.mkdir`, `os.makedirs`, or
    `open`/`Path.open` with a write, append, exclusive or update mode, or a
    mode that is not a literal."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
        return True
    if name != "open":
        return False
    owner = getattr(getattr(func, "value", None), "id", None)
    if owner == "os":
        return True
    # open(file, mode) and io.open(file, mode); Path(...).open(mode)
    plain = isinstance(func, ast.Name) or owner == "io"
    pos = 1 if plain else 0
    mode = call.args[pos] if len(call.args) > pos else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(_WRITE_MODE & set(mode.value))


def _write_sites(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _opens_for_writing(node)]


def test_only_the_artifacts_module_writes_files():
    others = [p for p in sorted(SRC.glob("*.py")) if p.name != "artifacts.py"]
    assert len(others) > 10
    assert [site for p in others for site in _write_sites(p)] == []
    # the gate sees the writes it exists to confine
    assert len(_write_sites(SRC / "artifacts.py")) == 3


@pytest.mark.parametrize("source, writes", [
    ("open(p)", False),
    ("open(p, 'r', encoding='utf-8')", False),
    ("open(p, 'rb')", False),
    ("open(p, 'w')", True),
    ("open(p, mode='a')", True),
    ("open(p, 'xb')", True),
    ("open(p, 'r+')", True),
    ("open(p, m)", True),
    ("io.open(p, 'w')", True),
    ("Path(p).open('w')", True),
    ("Path(p).open()", False),
    ("os.open(p, os.O_RDONLY)", True),
    ("p.write_text('x')", True),
    ("p.write_bytes(b'x')", True),
    ("p.read_bytes()", False),
    ("Path(p).mkdir(parents=True)", True),
    ("os.makedirs(p, exist_ok=True)", True),
])
def test_the_gate_recognizes_writes(source, writes):
    assert _opens_for_writing(ast.parse(source, mode="eval").body) is writes
