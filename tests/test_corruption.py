"""A corrupted checkpoint is refused, naming the file, by every command that
reads one: `evaluate`, `finetune --init` and `dump-embeddings` exit 2.

The checkpoints are the `align.ckpt` and `model.ckpt` of one run of the
determinism criterion's config (200 rows). Each is cut at fixed fractions of
its length, and has one bit flipped at fixed offsets in its magic, header
length, header, payload and digest. One case rewrites the stage-1
temperature in the embedded config from 0.7 to 0.9, which loaded without
complaint while the digest covered only the payload. `config.json` and
`schema.json` are inputs a user may edit, so only checkpoints are sealed."""

import importlib.util
import json
import struct
from pathlib import Path

import pytest

from ctrl.checkpoint import DIGEST_BYTES
from ctrl.cli import main

pytestmark = pytest.mark.filterwarnings("ignore:l2_normalize")

ROOT = Path(__file__).resolve().parent.parent
PREPARED = ("config.json", "schema.json", "train.csv", "val.csv", "test.csv")
COMMANDS = {"evaluate": ["evaluate", "--ckpt"],
            "finetune-init": ["finetune", "--init"],
            "dump-embeddings": ["dump-embeddings", "--ckpt"]}
# the commands that accept each intact checkpoint
ACCEPTS = {"align.ckpt": ("finetune-init", "dump-embeddings"),
           "model.ckpt": ("evaluate", "finetune-init")}


def _criterion_8_config() -> dict:
    spec = importlib.util.spec_from_file_location(
        "identity_runs", ROOT / "scripts" / "identity_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.criterion_8_config().to_dict()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("corruption")
    data, run = root / "data", root / "run"
    (root / "cfg.json").write_text(json.dumps(_criterion_8_config()),
                                   encoding="utf-8")
    for argv in (["gen-synthetic", "--out", data, "--rows", "200", "--fields",
                  "4", "--vocab", "6", "--noise", "0.1", "--history", "2",
                  "--seed", "3"],
                 ["prepare", "--data", data / "data.csv", "--schema",
                  data / "schema.json", "--config", root / "cfg.json",
                  "--out", run],
                 ["align", "--out", run],
                 ["finetune", "--out", run, "--init", run / "align.ckpt"]):
        assert main([str(a) for a in argv]) == 0
    return run


def _flip(offset):
    def corrupt(raw: bytes) -> bytes:
        at = offset(raw)
        return raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]
    return corrupt


def _header_len(raw: bytes) -> int:
    return struct.unpack("<Q", raw[8:16])[0]


CORRUPTIONS = {
    **{f"cut-{f}": (lambda f: lambda raw: raw[:int(len(raw) * f)])(f)
       for f in (0.0, 0.001, 0.25, 0.5, 0.75, 0.999)},
    "cut-last-byte": lambda raw: raw[:-1],
    "flip-magic": _flip(lambda raw: 3),
    "flip-length-low": _flip(lambda raw: 8),
    "flip-length-high": _flip(lambda raw: 15),
    "flip-header": _flip(lambda raw: 16 + _header_len(raw) // 2),
    "flip-payload": _flip(
        lambda raw: (16 + _header_len(raw) + len(raw) - DIGEST_BYTES) // 2),
    "flip-digest": _flip(lambda raw: len(raw) - DIGEST_BYTES // 2),
    "temperature": lambda raw: raw.replace(b'"temperature":0.7',
                                           b'"temperature":0.9'),
}


def _prepared_copy(run, dest: Path) -> Path:
    dest.mkdir()
    for name in PREPARED:
        (dest / name).write_bytes((run / name).read_bytes())
    return dest


def test_each_command_accepts_the_intact_checkpoints(run, tmp_path, capsys):
    for name, commands in ACCEPTS.items():
        for command in commands:
            out = _prepared_copy(run, tmp_path / f"{name}-{command}")
            argv = COMMANDS[command] + [str(run / name)]
            assert main([argv[0], "--out", str(out), *argv[1:]]) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("name", sorted(ACCEPTS))
def test_a_corrupted_checkpoint_exits_2_naming_it(run, tmp_path, capsys, name,
                                                  corruption):
    raw = (run / name).read_bytes()
    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    bad.write_bytes(CORRUPTIONS[corruption](raw))
    assert bad.read_bytes() != raw
    out = _prepared_copy(run, tmp_path / "out")
    capsys.readouterr()
    for command, argv in COMMANDS.items():
        assert main([argv[0], "--out", str(out), argv[1], str(bad)]) == 2, \
            command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: "), (command, err)
    assert sorted(p.name for p in out.iterdir()) == sorted(PREPARED)
