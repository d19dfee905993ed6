import hashlib
import json
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from ctrl.checkpoint import (DIGEST_BYTES, FORMAT_VERSION, load_checkpoint,
                             save_checkpoint)
from ctrl.cli import build_parser, main
from ctrl.orchestrate import load_alignment_model, load_prepared
from ctrl.params import ParamStore
from ctrl.viz import tower_representations
from helpers import sealed

pytestmark = pytest.mark.filterwarnings("ignore:l2_normalize")

SMALL_CONFIG = {
    "seed": 5,
    "model": {"backbone": "mlp", "d": 4, "hidden": [16, 8]},
    "text": {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 16,
             "max_tokens": 48},
    "align": {"batch_size": 16, "m_subspaces": 2, "d_proj": 8, "epochs": 1,
              "warmup_steps": 8, "start_lr": 1e-4, "peak_lr": 1e-3},
    "finetune": {"lr": 0.01, "batch_size": 32, "epochs": 2, "patience": 2},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    assert main(["gen-synthetic", "--out", str(data), "--rows", "200",
                 "--fields", "4", "--vocab", "5", "--noise", "0.1",
                 "--history", "2", "--seed", "5"]) == 0
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(cfg_path), "--out", str(run)]) == 0
    return root, data, run


PREPARED = ("config.json", "schema.json", "train.csv", "val.csv", "test.csv")


def _copy(src, dst, names):
    for name in names:
        (dst / name).write_bytes((src / name).read_bytes())


@pytest.fixture(scope="module")
def aligned(workdir, tmp_path_factory):
    """A prepared run directory of its own after `ctrl align`, so a test that
    reads its align.ckpt does not depend on test order."""
    _, _, run = workdir
    out = tmp_path_factory.mktemp("aligned")
    _copy(run, out, PREPARED)
    assert main(["align", "--out", str(out)]) == 0
    return out


def test_gen_synthetic_writes_files(workdir):
    _, data, _ = workdir
    assert (data / "data.csv").exists()
    assert (data / "schema.json").exists()
    meta = json.loads((data / "meta.json").read_text())
    assert meta["n_rows"] == 200 and meta["best_auc"] == 0.9


def test_align_finetune_evaluate_chain(workdir, capsys):
    _, _, run = workdir
    assert main(["align", "--out", str(run)]) == 0
    assert (run / "align.ckpt").exists() and (run / "curve.csv").exists()
    out = capsys.readouterr().out
    assert "maxsim gap" in out

    assert main(["finetune", "--out", str(run),
                 "--init", str(run / "align.ckpt")]) == 0
    assert (run / "model.ckpt").exists()

    assert main(["evaluate", "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "auc" in out and "logloss" in out
    report = json.loads((run / "report.json").read_text())
    assert 0.0 <= report["auc"] <= 1.0


def test_similarity_override_lands_in_checkpoint(workdir, tmp_path):
    root, data, _ = workdir
    run = tmp_path / "cosine_run"
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(root / "cfg.json"), "--out", str(run),
                 "--similarity", "cosine", "--seed", "9"]) == 0
    cfg = json.loads((run / "config.json").read_text())
    assert (cfg["align"]["similarity"], cfg["seed"]) == ("cosine", 9)
    assert main(["align", "--out", str(run)]) == 0
    ckpt = load_checkpoint(run / "align.ckpt")
    assert ckpt.config["align"]["similarity"] == "cosine"
    assert ckpt.config["seed"] == 9
    assert not any(n.startswith("heads.tab_sub") for n in ckpt.params)


STAGE_OVERRIDES = {"--seed": "9", "--backbone": "dcn",
                   "--prompt-variant": "2", "--similarity": "cosine"}


@pytest.mark.parametrize("flag", STAGE_OVERRIDES)
@pytest.mark.parametrize("command", ["align", "finetune", "ablate", "sweep"])
def test_a_stage_command_has_no_override_flag(aligned, tmp_path, capsys,
                                              command, flag):
    """A stage runs its work directory's config.json as it stands; only
    `prepare` takes these flags, and writes them into that file."""
    _copy(aligned, tmp_path, PREPARED)
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main([command, "--out", str(tmp_path),
                 flag, STAGE_OVERRIDES[flag]]) == 1
    assert (f"unrecognized arguments: {flag} {STAGE_OVERRIDES[flag]}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_dump_embeddings_and_project2d(aligned, capsys):
    run = aligned
    assert main(["dump-embeddings", "--out", str(run),
                 "--split", "val"]) == 0
    assert (run / "embeddings.csv").exists()
    assert "gap" in capsys.readouterr().out
    assert main(["project2d", "--embeddings",
                 str(run / "embeddings.csv")]) == 0
    assert (run / "projection.csv").exists()


@pytest.mark.parametrize("head", ["maxsim", "cosine"])
def test_dump_embeddings_prints_the_checkpoint_heads_gap(workdir, tmp_path,
                                                         capsys, head):
    root, data, _ = workdir
    run = tmp_path / "run"
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(root / "cfg.json"), "--out", str(run),
                 "--similarity", head]) == 0
    assert main(["align", "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["dump-embeddings", "--out", str(run), "--split", "val"]) == 0
    found = re.search(r"; (\w+) gap (\S+) \(paired", capsys.readouterr().out)
    assert found and found[1] == head
    post = json.loads((run / "gap.json").read_text())["post"]["gap"]
    assert float(found[2]) == post


@pytest.mark.filterwarnings("ignore:baseline AUC")
def test_ablate_two_arms(workdir, capsys):
    _, _, run = workdir
    assert main(["ablate", "--out", str(run),
                 "--arms", "no_align,end_to_end"]) == 0
    out = capsys.readouterr().out
    assert "no_align" in out and "end_to_end" in out
    blob = json.loads((run / "ablation.json").read_text())
    assert len(blob["arms"]) == 2


def test_sweep_csv(workdir):
    _, _, run = workdir
    assert main(["sweep", "--out", str(run), "--taus", "0.7",
                 "--batch-sizes", "16"]) == 0
    lines = (run / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,batch,auc,logloss"
    assert len(lines) == 2


def test_exit_code_mapping(workdir, tmp_path, capsys):
    root, data, run = workdir
    # argparse problems -> 1
    assert main(["align", "--bogus"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    # unreadable data -> 2
    assert main(["prepare", "--data", str(tmp_path / "nope.csv"),
                 "--schema", str(data / "schema.json"),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["align", "--out", str(tmp_path / "not_prepared")]) == 2
    # usage errors inside commands -> 1
    assert main(["ablate", "--out", str(run), "--arms", "bogus_arm"]) == 1
    assert main(["sweep", "--out", str(run), "--taus", "abc",
                 "--batch-sizes", "16"]) == 1
    assert main(["evaluate", "--out", str(run),
                 "--ckpt", str(run / "align.ckpt")]) == 1
    assert main(["finetune", "--out", str(run), "--end-to-end",
                 "--init", str(run / "align.ckpt")]) == 1
    # corrupt checkpoint -> 2
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert main(["evaluate", "--out", str(run), "--ckpt", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("header", [
    [1, 2],
    {"version": FORMAT_VERSION},
    {"version": FORMAT_VERSION, "schema_hash": "h", "config": {},
     "buffers": [], "extra": {},
     "params": [{"name": "w", "shape": [2], "bytes": "16"}]},
])
def test_malformed_checkpoint_header_exits_2(workdir, tmp_path, capsys,
                                             header):
    _, _, run = workdir
    body = json.dumps(header).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(sealed(b"CTRLCKP1" + struct.pack("<Q", len(body)) + body))
    capsys.readouterr()
    assert main(["evaluate", "--out", str(run), "--ckpt", str(bad)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"^error: .*bad\.ckpt: malformed header: ", err,
                     re.MULTILINE), err


def _flip_name(ckpt, name: str) -> None:
    """Flip one bit of a tensor's name in the checkpoint's header and seal
    the file again, so it still loads, with the tensor under another
    name."""
    raw = bytearray(ckpt.read_bytes()[:-DIGEST_BYTES])
    raw[raw.index(name.encode()) + len(name) - 2] ^= 1  # "mean" -> "me`n"
    ckpt.write_bytes(sealed(bytes(raw)))
    loaded = load_checkpoint(ckpt)
    assert name[:-2] + chr(ord(name[-2]) ^ 1) + name[-1] in {
        **loaded.params, **loaded.buffers}


@pytest.mark.parametrize("name", ["collab.mlp.bn0.running_mean",
                                  "collab.mlp.l0.w"])
def test_a_checkpoint_without_a_buffer_of_the_tower_exits_2(workdir, tmp_path,
                                                             capsys, name):
    # a missing parameter is not the "stage-1 checkpoint?" usage error
    _, _, run = workdir
    out = tmp_path / "run"
    out.mkdir()
    _copy(run, out, PREPARED)
    assert main(["finetune", "--out", str(out)]) == 0
    _flip_name(out / "model.ckpt", name)
    capsys.readouterr()
    assert main(["evaluate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"model\.ckpt: .*{re.escape(name)}", err), err
    assert not (out / "report.json").exists()


def _edit_header(ckpt, edit) -> None:
    """Rewrite the checkpoint's header as `edit(header)` leaves it, and seal
    the file again."""
    raw = ckpt.read_bytes()
    (size,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + size])
    edit(header)
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    ckpt.write_bytes(sealed(raw[:8] + struct.pack("<Q", len(body)) + body
                            + raw[16 + size:-DIGEST_BYTES]))


def _reshape(ckpt, name: str, shape: list) -> None:
    """Give a tensor another shape of the same size in the checkpoint's
    header, so the file still loads, with the tensor in that shape."""
    def edit(header):
        for entry in header["params"] + header["buffers"]:
            if entry["name"] == name:
                entry["shape"] = shape
    _edit_header(ckpt, edit)
    loaded = load_checkpoint(ckpt)
    assert list({**loaded.params, **loaded.buffers}[name].shape) == shape


@pytest.mark.parametrize("name, shape, model_shape", [
    ("collab.mlp.l0.w", [16, 20], [20, 16]),
    ("collab.mlp.bn0.running_mean", [1, 16], [16]),
])
def test_a_checkpoint_with_a_tensor_of_another_shape_exits_2(
        workdir, tmp_path, capsys, name, shape, model_shape):
    """A parameter used to exit 1 with a UsageError after the ones before
    it were replaced; a buffer of [1, 16] was broadcast into its [16]."""
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    assert main(["finetune", "--out", str(tmp_path)]) == 0
    _reshape(tmp_path / "model.ckpt", name, shape)
    capsys.readouterr()
    assert main(["evaluate", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'model.ckpt'}: checkpoint holds {name} with "
        f"shape {shape}, the model's is {model_shape}\n")
    assert not (tmp_path / "report.json").exists()


def _rewrite_header(ckpt, old: str, new: str) -> None:
    """Replace `old` by `new`, as long, in the checkpoint's header and seal
    the file again, so it still loads."""
    raw = ckpt.read_bytes()[:-DIGEST_BYTES]
    assert len(old) == len(new) and raw.count(old.encode()) == 1
    ckpt.write_bytes(sealed(raw.replace(old.encode(), new.encode())))
    load_checkpoint(ckpt)


@pytest.mark.parametrize("old, new, named", [
    ('"backbone":"mlp"', '"backbone":"mlq"', "'mlq'"),
    ('"cross_layers"', '"cross_layerr"', "'cross_layerr'"),
    ('"hidden":[16,8]', '"hidden":[16,0]', "hidden widths must be >= 1"),
    ('"d_proj":8', '"d_proj":0', "d_proj must be >= 1"),
    ('"weight_decay":0.01', '"weight_decay":-1.0', "weight_decay must be >= 0"),
], ids=["value", "key", "hidden", "d_proj", "weight_decay"])
@pytest.mark.parametrize("argv, ckpt, product", [
    (["evaluate"], "model.ckpt", "report.json"),
    (["finetune", "--init", "{ckpt}"], "align.ckpt", "model.ckpt"),
    (["dump-embeddings"], "align.ckpt", "embeddings.csv"),
], ids=["evaluate", "finetune-init", "dump-embeddings"])
def test_an_invalid_config_embedded_in_a_checkpoint_exits_2_naming_it(
        aligned, tmp_path, capsys, argv, ckpt, product, old, new, named):
    """It exited 1, and the error did not name the file."""
    _copy(aligned, tmp_path, PREPARED + ("align.ckpt",))
    if ckpt == "model.ckpt":
        assert main(["finetune", "--out", str(tmp_path)]) == 0
    path = tmp_path / ckpt
    _rewrite_header(path, old, new)
    capsys.readouterr()
    assert main([argv[0], "--out", str(tmp_path)]
                + [a.format(ckpt=path) for a in argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err, err
    assert not (tmp_path / product).exists()


def _as_version_1(ckpt) -> None:
    """Rewrite a checkpoint in format version 1: a header that keeps an
    empty optimizer manifest and the sha256 of the payload, and no digest
    at the end."""
    raw = ckpt.read_bytes()
    (size,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + size])
    payload = raw[16 + size:-DIGEST_BYTES]
    header.update(version=1, optimizer=[],
                  payload_sha256=hashlib.sha256(payload).hexdigest())
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    ckpt.write_bytes(raw[:8] + struct.pack("<Q", len(body)) + body + payload)


@pytest.mark.parametrize("argv", [["evaluate", "--ckpt"], ["finetune", "--init"],
                                  ["dump-embeddings", "--ckpt"]],
                         ids=["evaluate", "finetune-init", "dump-embeddings"])
def test_a_version_1_checkpoint_exits_2(aligned, tmp_path, capsys, argv):
    _copy(aligned, tmp_path, PREPARED + ("align.ckpt",))
    ckpt = tmp_path / "old.ckpt"
    if argv[0] == "evaluate":
        assert main(["finetune", "--out", str(tmp_path)]) == 0
        (tmp_path / "model.ckpt").rename(ckpt)
    else:
        (tmp_path / "align.ckpt").rename(ckpt)
    _as_version_1(ckpt)
    capsys.readouterr()
    assert main([argv[0], "--out", str(tmp_path), argv[1], str(ckpt)]) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: unsupported checkpoint version 1\n")


@pytest.mark.parametrize("blob, named", [
    ({"model": {"hidden": "ab"}}, "model.hidden must be a list of ints, "
                                  "got 'ab'"),
    ({"align": {"epochs": 2.5}}, "align.epochs must be an int, got 2.5"),
    ({"finetune": {"batch_size": True}}, "finetune.batch_size must be an "
                                         "int, got True"),
    ({"seed": "3"}, "seed must be an int, got '3'"),
], ids=["hidden-a-string", "epochs-a-float", "batch-size-a-bool",
        "seed-a-string"])
def test_a_config_value_of_the_wrong_type_is_refused_naming_it(
        workdir, aligned, tmp_path, capsys, blob, named):
    """Each was accepted (the first three) or refused only because a
    comparison raised. A config file exits 1, a checkpoint's config 2."""
    _, data, _ = workdir
    cfg_run, ckpt_run = tmp_path / "cfg_run", tmp_path / "ckpt_run"
    for run in (cfg_run, ckpt_run):
        run.mkdir()
        _copy(aligned, run, PREPARED + ("align.ckpt",))
    (cfg_run / "config.json").write_text(json.dumps(blob), encoding="utf-8")

    def merge(header):
        for key, value in blob.items():
            if isinstance(value, dict):
                header["config"][key].update(value)
            else:
                header["config"][key] = value
    _edit_header(ckpt_run / "align.ckpt", merge)
    capsys.readouterr()
    assert main(["prepare", "--data", str(data / "data.csv"), "--schema",
                 str(data / "schema.json"), "--config",
                 str(cfg_run / "config.json"),
                 "--out", str(tmp_path / "new")]) == 1
    assert main(["align", "--out", str(cfg_run)]) == 1
    assert main(["dump-embeddings", "--out", str(ckpt_run)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: malformed config: {named}"] * 2 + [
        f"error: {ckpt_run / 'align.ckpt'}: malformed config: {named}"]
    assert not (tmp_path / "new").exists()
    assert not (cfg_run / "curve.csv").exists()
    assert not (ckpt_run / "embeddings.csv").exists()


@pytest.mark.parametrize("section, key, value", [
    ("align", "normalize_subreps", True), ("model", "d_col", 0),
    ("model", "dropout", 0.0), ("", "split_ratios", [8, 1, 1]),
    ("", "user_prefix", "This is a user"),
    ("", "item_prefix", "This is an item"), ("fields", "display", "Genre")],
    ids=["normalize_subreps", "d_col", "dropout", "split_ratios",
         "user_prefix", "item_prefix", "display"])
def test_a_removed_setting_is_refused_naming_it(aligned, tmp_path, capsys,
                                                section, key, value):
    """A config.json, checkpoint or schema.json that still holds a removed
    setting is refused, not read without it: `align` exits 1 on a config
    key, and each reader of a checkpoint exits 2 naming the file. A
    checkpoint holds its config but only its schema's hash, so a schema
    field key (section "fields") goes into schema.json, and `align` and
    each reader exit 2 naming that file."""
    cfg_run, ckpt_run = tmp_path / "cfg_run", tmp_path / "ckpt_run"
    for run in (cfg_run, ckpt_run):
        run.mkdir()
        _copy(aligned, run, PREPARED + ("align.ckpt",))
    assert main(["finetune", "--out", str(ckpt_run)]) == 0

    def add(doc):
        if section == "fields":  # the schema's first field
            doc = doc["fields"][0]
        elif section:
            doc = doc[section]
        doc[key] = value
    if section == "fields":
        for run in (cfg_run, ckpt_run):
            schema = json.loads((run / "schema.json").read_text())
            add(schema)
            (run / "schema.json").write_text(json.dumps(schema),
                                             encoding="utf-8")
        named = (f"malformed schema: unknown key(s) ['{key}'] in field "
                 f"'{schema['fields'][0]['name']}'")
        align_code, align_err = 2, f"{cfg_run / 'schema.json'}: {named}"
    else:
        cfg = json.loads((cfg_run / "config.json").read_text())
        add(cfg)
        (cfg_run / "config.json").write_text(json.dumps(cfg),
                                             encoding="utf-8")
        for ckpt in ("align.ckpt", "model.ckpt"):
            _edit_header(ckpt_run / ckpt, lambda h: add(h["config"]))
        named = (f"malformed config: unknown key(s) ['{key}']"
                 + (f" in {section}" if section else ""))
        align_code, align_err = 1, named
    capsys.readouterr()
    assert main(["align", "--out", str(cfg_run)]) == align_code
    assert capsys.readouterr().err == f"error: {align_err}\n"
    assert not (cfg_run / "curve.csv").exists()
    before = (ckpt_run / "model.ckpt").read_bytes()
    for command, flag, ckpt in [("evaluate", "--ckpt", "model.ckpt"),
                                ("finetune", "--init", "align.ckpt"),
                                ("dump-embeddings", "--ckpt", "align.ckpt")]:
        path = ckpt_run / ckpt
        holder = ckpt_run / "schema.json" if section == "fields" else path
        assert main([command, "--out", str(ckpt_run), flag, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {holder}: {named}\n"
    assert (ckpt_run / "model.ckpt").read_bytes() == before
    assert not (ckpt_run / "report.json").exists()
    assert not (ckpt_run / "embeddings.csv").exists()


def test_align_has_no_gap_split_flag(aligned, tmp_path, capsys):
    """The gap is always scored on val; the flag that chose the split is
    gone, so passing it is a usage error."""
    _copy(aligned, tmp_path, PREPARED)
    capsys.readouterr()
    assert main(["align", "--out", str(tmp_path), "--gap-split", "val"]) == 1
    assert "unrecognized arguments: --gap-split val" in capsys.readouterr().err
    assert not (tmp_path / "align.ckpt").exists()


def test_dump_embeddings_refits_the_tokenizer_from_the_checkpoint_config(
        aligned, tmp_path, capsys):
    """No tokenizer file is read: the tokenizer is refit from the train split
    and the checkpoint's config, so editing config.json after `align` leaves
    the printed gap at gap.json's bits."""
    _copy(aligned, tmp_path, PREPARED + ("align.ckpt", "gap.json"))
    cfg = json.loads((tmp_path / "config.json").read_text())
    cfg["prompt_variant"], cfg["text"]["max_tokens"] = 3, 4
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    assert main(["dump-embeddings", "--out", str(tmp_path), "--split",
                 "val"]) == 0
    found = re.search(r" gap (\S+) \(paired", capsys.readouterr().out)
    post = json.loads((tmp_path / "gap.json").read_text())["post"]["gap"]
    assert found and float(found[1]) == post


def test_finetune_init_refuses_a_checkpoint_without_a_tensor_of_the_tower(
        aligned, tmp_path, capsys):
    # the bit flip of the test above, in the stage-1 checkpoint: warm-started
    # from it, the tower would keep a freshly initialized running mean
    _copy(aligned, tmp_path, PREPARED + ("align.ckpt",))
    ckpt = tmp_path / "align.ckpt"
    _flip_name(ckpt, "collab.mlp.bn0.running_mean")
    capsys.readouterr()
    assert main(["finetune", "--out", str(tmp_path), "--init", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"align\.ckpt: .*collab\.mlp\.bn0\.running_mean", err), err
    assert not (tmp_path / "model.ckpt").exists()


def test_dump_embeddings_refuses_a_checkpoint_without_a_tensor_of_the_model(
        aligned, tmp_path, capsys):
    # restored without it, the running mean would keep its fresh value and
    # the dump would differ from the uncorrupted one's
    _copy(aligned, tmp_path, PREPARED + ("align.ckpt",))
    _flip_name(tmp_path / "align.ckpt", "collab.mlp.bn0.running_mean")
    capsys.readouterr()
    assert main(["dump-embeddings", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'align.ckpt'}: checkpoint lacks "
        "collab.mlp.bn0.running_mean\n")
    assert not (tmp_path / "embeddings.csv").exists()


def _reorder_train_rows(run) -> None:
    header, *rows = (run / "train.csv").read_text().splitlines()
    rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    (run / "train.csv").write_text("\n".join([header] + rows) + "\n")


@pytest.mark.parametrize("fault", [
    # the refit takes token ids in row order: the text tower was trained on
    # other ids
    _reorder_train_rows,
    lambda run: _edit_header(run / "align.ckpt",
                             lambda h: h["extra"].pop("vocab")),
], ids=["reordered-train-rows", "no-digest"])
def test_dump_embeddings_refuses_a_vocabulary_it_cannot_match(
        aligned, tmp_path, capsys, fault):
    _copy(aligned, tmp_path, PREPARED + ("align.ckpt",))
    fault(tmp_path)
    capsys.readouterr()
    assert main(["dump-embeddings", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'align.ckpt'}: vocabulary digest missing or "
        "not that of the tokenizer refit from train.csv\n")
    assert not (tmp_path / "embeddings.csv").exists()


def test_prepare_reads_inputs_that_open_with_a_byte_order_mark(workdir,
                                                               tmp_path):
    root, data, _ = workdir
    for name in ("data.csv", "schema.json"):
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (data / name).read_bytes())
    outs = {}
    for kind, src in (("plain", data), ("bom", tmp_path)):
        out = tmp_path / kind
        assert main(["prepare", "--data", str(src / "data.csv"),
                     "--schema", str(src / "schema.json"),
                     "--config", str(root / "cfg.json"), "--out", str(out)]) == 0
        outs[kind] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(outs["bom"]) == sorted(PREPARED)
    assert outs["bom"] == outs["plain"]


def test_dump_embeddings_refuses_a_two_stage_model_checkpoint(
        aligned, tmp_path, capsys):
    # model.ckpt holds the tower and the CTR head, but no text tower or heads
    _copy(aligned, tmp_path, PREPARED + ("align.ckpt",))
    assert main(["finetune", "--out", str(tmp_path),
                 "--init", str(tmp_path / "align.ckpt")]) == 0
    capsys.readouterr()
    assert main(["dump-embeddings", "--out", str(tmp_path),
                 "--ckpt", str(tmp_path / "model.ckpt")]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'model.ckpt'}: checkpoint lacks "
        "heads.tab_proj.b\n")
    assert not (tmp_path / "embeddings.csv").exists()


def _break_schema(schema: dict, fault: str) -> dict:
    fields = schema["fields"]
    if fault == "kind":
        fields[0]["kind"] = "categorica"
    elif fault == "side":
        fields[0]["side"] = "buyer"
    elif fault == "duplicate":
        fields[1]["name"] = fields[0]["name"]
    elif fault == "no_user_field":
        for f in fields:
            f["side"] = "item"
    elif fault == "seq_phrase":  # rendered as "7 ..." into every prompt
        next(f for f in fields if f["kind"] == "sequence")["seq_phrase"] = 7
    elif fault in ("label", "timestamp", 5):
        # a reserved name crashed `align` and gave `finetune` all-OOV ids;
        # 5 was blamed on data.csv as a missing column
        fields[0]["name"] = fault
    else:
        del fields[0]["name"]
    return schema


@pytest.mark.parametrize("fault", ["kind", "side", "duplicate",
                                   "no_user_field", "no_name", "seq_phrase",
                                   "label", "timestamp", 5])
def test_a_schema_that_parses_but_is_invalid_exits_2_naming_it(
        workdir, tmp_path, capsys, fault):
    _, data, run = workdir
    for name, src in (("prepare", data), ("run", run)):
        (tmp_path / name).mkdir()
        _copy(src, tmp_path / name, ("schema.json",))
        path = tmp_path / name / "schema.json"
        schema = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(_break_schema(schema, fault)),
                        encoding="utf-8")
    _copy(run, tmp_path / "run", PREPARED[:1] + PREPARED[2:])
    capsys.readouterr()
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(tmp_path / "prepare" / "schema.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert main(["align", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2, err
    for line, name in zip(err, ("prepare", "run")):
        assert line.startswith(f"error: {tmp_path / name / 'schema.json'}: "), line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault", ["list", "shifted"])
def test_a_schema_vocab_that_is_not_the_ids_from_1_exits_2_naming_it(
        workdir, tmp_path, capsys, fault):
    """A list `vocab` crashed `prepare` with an AttributeError; ids shifted
    by 1,000 passed `prepare` and crashed `finetune` with a ShapeError."""
    _, data, run = workdir
    _copy(run, tmp_path, PREPARED)
    path = tmp_path / "schema.json"
    schema = json.loads(path.read_text(encoding="utf-8"))
    vocab = schema["fields"][0]["vocab"]
    schema["fields"][0]["vocab"] = (
        sorted(vocab) if fault == "list"
        else {v: i + 1000 for v, i in vocab.items()})
    path.write_text(json.dumps(schema), encoding="utf-8")
    capsys.readouterr()
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(path), "--out", str(tmp_path / "out")]) == 2
    assert main(["finetune", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2, err
    for line in err:
        assert line.startswith(f"error: {path}: "), line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [2.5, True])
def test_a_max_seq_len_that_is_not_an_int_exits_2_naming_the_schema(
        workdir, tmp_path, capsys, value):
    """2.5 crashed `prepare` with a TypeError from `encode`; true was taken
    as 1 and written back into the prepared schema."""
    _, data, _ = workdir
    path = tmp_path / "schema.json"
    schema = json.loads((data / "schema.json").read_text(encoding="utf-8"))
    schema["max_seq_len"] = value
    path.write_text(json.dumps(schema), encoding="utf-8")
    capsys.readouterr()
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["prepare", "evaluate", "project2d"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(workdir, tmp_path, capsys,
                                                   command):
    """Each command exited 1 with a UnicodeDecodeError traceback."""
    _, data, run = workdir
    if command == "prepare":
        _copy(data, tmp_path, ("data.csv",))
        bad = tmp_path / "data.csv"
        argv = ["prepare", "--data", str(bad),
                "--schema", str(data / "schema.json"),
                "--out", str(tmp_path / "out")]
    elif command == "evaluate":
        _copy(run, tmp_path, PREPARED)
        bad = tmp_path / "test.csv"
        argv = ["evaluate", "--out", str(tmp_path)]
    else:
        bad = tmp_path / "embeddings.csv"
        bad.write_text("row_id,modality,v0\n0,tab,0.5\n0,text,0.25\n",
                       encoding="utf-8")
        argv = ["project2d", "--embeddings", str(bad)]
    # the last cell's last character becomes a byte UTF-8 never starts with
    bad.write_bytes(bad.read_bytes()[:-2] + b"\xff\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: {bad}: not valid UTF-8"), err
    assert not (tmp_path / "out").exists()


def test_malformed_embedding_dump_exits_2(tmp_path, capsys):
    dump = tmp_path / "embeddings.csv"
    dump.write_text("row_id,modality,v0,v1\n0,tab,0.5,nan?\n",
                    encoding="utf-8")
    assert main(["project2d", "--embeddings", str(dump)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "projection.csv").exists()


@pytest.mark.parametrize("command, name, content", [
    ("align", "config.json", b'{"truncated": '),
    ("align", "config.json", b"\xff\xfe{}"),  # not UTF-8
    ("align", "schema.json", b'{"truncated": '),
])
def test_unparsable_json_artifact_exits_2_naming_it(workdir, tmp_path, capsys,
                                                    command, name, content):
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    (tmp_path / name).write_bytes(content)
    capsys.readouterr()
    assert main([command, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"^error: .*{re.escape(str(tmp_path / name))}", err,
                     re.MULTILINE), err


def test_prepare_refuses_a_row_without_its_sequence_cell(workdir, tmp_path,
                                                         capsys):
    """With the sequence column last, a short row used to crash `prepare`
    with an AttributeError traceback."""
    _, data, _ = workdir
    header, *rows = (data / "data.csv").read_text().splitlines()
    assert header == "f0,f1,f2,f3,history,label,timestamp"
    # label,timestamp,f0,...,f3,history; row 4 loses its history cell
    lines = [",".join(cells[5:] + cells[:5])
             for cells in (line.split(",") for line in [header] + rows)]
    lines[3] = lines[3].rsplit(",", 1)[0]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    assert main(["prepare", "--data", str(tmp_path / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--out", str(tmp_path / "run")]) == 2
    assert re.search(r"^error: .*data\.csv: row 4: fewer cells",
                     capsys.readouterr().err, re.MULTILINE)


def test_prepare_with_default_config(workdir, tmp_path):
    _, data, _ = workdir
    out = tmp_path / "defrun"
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--out", str(out), "--seed", "42"]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["seed"] == 42
    assert cfg["align"]["temperature"] == 0.7


def _poison(ckpt_path, prefix: str) -> None:
    """Rewrite a checkpoint with every tensor named `prefix`* set to 1e200."""
    ckpt = load_checkpoint(ckpt_path)
    store = ParamStore()
    for name, arr in ckpt.params.items():
        store.add(name, np.full(arr.shape, 1e200)
                  if name.startswith(prefix) else arr)
    for name, arr in ckpt.buffers.items():
        store.add_buffer(name, arr)
    save_checkpoint(ckpt_path, store, ckpt.schema_hash, ckpt.config,
                    ckpt.extra)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_tower_exits_3_from_evaluate_and_dump_embeddings(
        aligned, tmp_path, capsys):
    _copy(aligned, tmp_path, PREPARED + ("align.ckpt",))
    assert main(["finetune", "--out", str(tmp_path)]) == 0
    # 1e200 squared overflows in the tabular tower's first product
    _poison(tmp_path / "model.ckpt", "collab.")
    _poison(tmp_path / "align.ckpt", "collab.")
    capsys.readouterr()
    assert main(["evaluate", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error: matmul: produced non-finite values\n")
    assert main(["dump-embeddings", "--out", str(tmp_path),
                 "--split", "val"]) == 3
    assert capsys.readouterr().err == (
        "error: matmul: produced non-finite values\n")
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "embeddings.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_alignment_diverging_at_its_first_step_exits_3_with_a_checkpoint(
        workdir, tmp_path, capsys):
    """A temperature of 1e-308 overflows the first InfoNCE, so no step is
    taken: the stage still writes gap.json and checkpoints the initial state,
    and exits 3, not 1 with the message of a split smaller than a batch."""
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    cfg = json.loads((tmp_path / "config.json").read_text())
    cfg["align"]["temperature"] = 1e-308
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    with pytest.warns(UserWarning, match="alignment diverged at step 0") as rec:
        assert main(["align", "--out", str(tmp_path)]) == 3
    # the NumericError in that warning is the one report of the overflow
    assert not [w for w in rec if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert out.startswith("aligned in 0 steps; final loss -; maxsim gap ")
    assert err == "alignment diverged; last good state was checkpointed\n"
    assert (tmp_path / "curve.csv").read_text() == \
        "step,lr,loss,l_t2t,l_tab2text\n"
    gap = json.loads((tmp_path / "gap.json").read_text())
    assert gap["post"] == gap["pre"]  # the initial state, restored
    ckpt = load_checkpoint(tmp_path / "align.ckpt")
    assert ckpt.extra["steps"] == 0 and ckpt.extra["diverged"]
    assert ckpt.extra["final_loss"] is None
    assert main(["dump-embeddings", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "embeddings.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_single_stage_training_diverging_at_its_first_step_exits_3(
        workdir, tmp_path, capsys):
    """The first InfoNCE of `finetune --end-to-end` overflows at a
    temperature of 1e-308: no epoch completes, the initial state is
    checkpointed, and the run exits 3 with a checkpoint that evaluates."""
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    cfg = json.loads((tmp_path / "config.json").read_text())
    cfg["align"]["temperature"] = 1e-308
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    with pytest.warns(UserWarning, match=r"^single-stage training diverged "
                      r"in epoch 0 \(infonce: produced non-finite") as rec:
        assert main(["finetune", "--end-to-end", "--out", str(tmp_path)]) == 3
    assert not [w for w in rec if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert out == "best epoch -1: val AUC -\n"
    assert err == ("single-stage training diverged; best earlier state was "
                   "checkpointed\n")
    raw = (tmp_path / "model.ckpt").read_bytes()
    (size,) = struct.unpack("<Q", raw[8:16])

    def not_json(name):
        raise AssertionError(f"{name} in the checkpoint header")

    header = json.loads(raw[16:16 + size], parse_constant=not_json)
    assert header["extra"]["best_val_auc"] is None
    assert header["extra"]["best_epoch"] == -1 and header["extra"]["diverged"]
    assert main(["evaluate", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").exists()


def _with_config(tmp_path, section: str, **values) -> None:
    cfg = json.loads((tmp_path / "config.json").read_text())
    cfg[section].update(values)
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_single_stage_training_diverging_after_an_epoch_exits_3(
        workdir, tmp_path, capsys):
    """At a learning rate of 1e76 the weights grow by about that much a step
    until, in epoch 1, a pass's attention scores overflow: epoch 0's state
    is checkpointed, and it evaluates."""
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    _with_config(tmp_path, "finetune", lr=1e76)
    capsys.readouterr()
    with pytest.warns(UserWarning, match=r"^single-stage training diverged "
                      r"in epoch 1 \(attention: scores are not finite\)"):
        assert main(["finetune", "--end-to-end", "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out.startswith("best epoch 0: val AUC 0.")
    assert err == ("single-stage training diverged; best earlier state was "
                   "checkpointed\n")
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in history] == ["epoch", "0"]
    extra = load_checkpoint(tmp_path / "model.ckpt").extra
    assert extra["best_epoch"] == 0 and extra["diverged"] is True
    assert main(["evaluate", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fine_tuning_diverging_in_its_first_epoch_exits_3(workdir, tmp_path,
                                                          capsys):
    """A learning rate of 1e160 sends the weights past the point where the
    next forward pass overflows: no epoch completes, the initial state is
    checkpointed, and it evaluates."""
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    _with_config(tmp_path, "finetune", lr=1e160)
    capsys.readouterr()
    with pytest.warns(UserWarning, match=r"^fine-tuning diverged in epoch 0 "):
        assert main(["finetune", "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "best epoch -1: val AUC -\n"
    assert err == "fine-tuning diverged; best earlier state was checkpointed\n"
    raw = (tmp_path / "model.ckpt").read_bytes()
    (size,) = struct.unpack("<Q", raw[8:16])
    assert b'"best_val_auc":null' in raw[16:16 + size]
    assert load_checkpoint(tmp_path / "model.ckpt").extra["diverged"]
    assert main(["evaluate", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_alignment_diverging_after_some_steps_exits_3_with_a_checkpoint(
        workdir, tmp_path, capsys):
    """A peak learning rate of 1e12, reached at step 4, overflows the pass
    of step 9: the nine steps before it are recorded, the last good state is
    checkpointed, and fine-tuning warm-starts from it."""
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    _with_config(tmp_path, "align", peak_lr=1e12, warmup_steps=4)
    capsys.readouterr()
    with pytest.warns(UserWarning, match="alignment diverged at step 9 "):
        assert main(["align", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "alignment diverged; last good state was checkpointed\n")
    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[0] == "step,lr,loss,l_t2t,l_tab2text"
    assert [row.split(",")[0] for row in curve[1:]] == list("012345678")
    ckpt = load_checkpoint(tmp_path / "align.ckpt")
    assert ckpt.extra["steps"] == 9 and ckpt.extra["diverged"] is True
    assert main(["finetune", "--out", str(tmp_path),
                 "--init", str(tmp_path / "align.ckpt")]) == 0


def _one_error_line(capsys, start: str) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), err
    return lines[0]


def test_prepare_into_a_file_exits_1_naming_the_path(workdir, tmp_path,
                                                     capsys):
    _, data, _ = workdir
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    capsys.readouterr()
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--out", str(taken)]) == 1
    line = _one_error_line(capsys, f"error: cannot write {taken}")
    assert line.endswith(f"{taken} is not a directory")
    assert taken.read_text() == "a file, not a directory\n"


def test_gen_synthetic_into_a_file_exits_1_naming_the_path(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["gen-synthetic", "--out", str(taken), "--rows", "50"]) == 1
    _one_error_line(capsys, f"error: cannot write {taken}")
    assert main(["gen-synthetic", "--out", str(taken / "sub"),
                 "--rows", "50"]) == 1
    _one_error_line(capsys, f"error: cannot write {taken / 'sub'}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_dump_embeddings_makes_the_destination_directory(aligned, tmp_path):
    dest = tmp_path / "new" / "deeper" / "x.csv"
    assert main(["dump-embeddings", "--out", str(aligned), "--split", "val",
                 "--dest", str(dest)]) == 0
    assert dest.read_text().startswith("row_id,modality,v0,")
    assert sorted(p.name for p in dest.parent.iterdir()) == ["x.csv"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_embedding_coordinate_exits_2(tmp_path, capsys, value):
    dump = tmp_path / "embeddings.csv"
    dump.write_text("row_id,modality,v0,v1\n0,tab,0.5,1.5\n1,tab,0.25,1.0\n"
                    f"0,text,{value},0.5\n1,text,0.5,0.75\n", encoding="utf-8")
    assert main(["project2d", "--embeddings", str(dump)]) == 2
    _one_error_line(capsys, f"error: {dump}: line 4: ")
    assert not (tmp_path / "projection.csv").exists()


@pytest.mark.parametrize("content, named", [
    ("row_id,modality\n0,tab\n1,tab\n0,text\n1,text\n",
     "no coordinate columns"),
    ("row_id,modality,v0\n0,tab,0.5\n1,tab,1.5\n0,txt,0.25\n",
     "line 4: modality must be one of ('tab', 'text'), got 'txt'"),
    ("row_id,modality,v0\n0,tab,0.5\n0,text,0.25\n",
     "2 embedding record(s); a projection needs at least 3"),
], ids=["no-coordinates", "unknown-modality", "two-records"])
def test_an_embedding_dump_project2d_cannot_read_exits_2_naming_it(
        tmp_path, capsys, content, named):
    """The first two wrote a projection (exit 0); two records exited 1 from
    `project_2d`, as if the command line were at fault."""
    dump = tmp_path / "embeddings.csv"
    dump.write_text(content, encoding="utf-8")
    assert main(["project2d", "--embeddings", str(dump)]) == 2
    assert _one_error_line(capsys, "error: ") == f"error: {dump}: {named}"
    assert not (tmp_path / "projection.csv").exists()


def test_ablate_with_no_arm_exits_1_and_keeps_the_tables(workdir, tmp_path,
                                                         capsys):
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    tables = {name: f"{name} of an earlier run\n".encode()
              for name in ("ablation.csv", "ablation.json")}
    for name, body in tables.items():
        (tmp_path / name).write_bytes(body)
    capsys.readouterr()
    assert main(["ablate", "--out", str(tmp_path), "--arms", ","]) == 1
    _one_error_line(capsys, "error: no arm to run")
    for name, body in tables.items():
        assert (tmp_path / name).read_bytes() == body


def test_ablate_with_a_repeated_arm_exits_1_and_keeps_the_tables(
        workdir, tmp_path, capsys):
    """A repeated arm was trained twice and listed twice."""
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    (tmp_path / "ablation.csv").write_bytes(b"ablation.csv of an earlier run\n")
    capsys.readouterr()
    assert main(["ablate", "--out", str(tmp_path), "--arms",
                 "no_align,no_align"]) == 1
    _one_error_line(capsys, "error: arm 'no_align' is listed more than once")
    assert (tmp_path / "ablation.csv").read_bytes() == \
        b"ablation.csv of an earlier run\n"
    assert not (tmp_path / "no_align").exists()


@pytest.mark.parametrize("section, key, literal", [
    ("align", "temperature", "NaN"), ("align", "temperature", "Infinity"),
    ("finetune", "lr", "NaN")])
def test_a_non_finite_config_number_exits_1_before_prepare_writes(
        workdir, tmp_path, capsys, section, key, literal):
    """`prepare` wrote the value into config.json; `align` then diverged at
    step 0 on a NaN temperature, trained at a constant loss on an infinite
    one, and `finetune` diverged on a NaN lr."""
    _, data, _ = workdir
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"{section}": {{"{key}": {literal}}}}}',
                        encoding="utf-8")
    capsys.readouterr()
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    _one_error_line(capsys, f"error: {key} must be a finite number")
    assert not (tmp_path / "run").exists()


def test_a_non_finite_sweep_temperature_fails_as_a_cell(workdir, tmp_path):
    _, _, run = workdir
    _copy(run, tmp_path, PREPARED)
    with pytest.warns(UserWarning, match="1 sweep cell"):
        assert main(["sweep", "--out", str(tmp_path), "--taus", "nan",
                     "--batch-sizes", "16"]) == 1
    def refuse(name):
        raise AssertionError(f"sweep_failures.json holds {name}, not JSON")

    failures = json.loads((tmp_path / "sweep" / "sweep_failures.json")
                          .read_text(), parse_constant=refuse)
    assert [(f["tau"], f["error"]) for f in failures] == [
        ("nan", "UsageError: temperature must be a finite number, got nan")]


def test_dump_embeddings_renders_at_the_alignment_batch_size(tmp_path):
    """Rows of a block of 40 lose 0 to 3 of their cells, so prompt lengths
    vary and a batch's pad width depends on where it is cut. The dump holds
    the text tower's bits at `align.batch_size`, the batches stage 1 scores
    its gap in."""
    cfg = dict(SMALL_CONFIG, align=dict(SMALL_CONFIG["align"], batch_size=24))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen-synthetic", "--out", str(data), "--rows", "900",
                 "--fields", "4", "--vocab", "5", "--history", "2",
                 "--seed", "5"]) == 0
    header, *rows = (data / "data.csv").read_text().splitlines()
    assert header.startswith("f0,f1,f2,f3,")
    rows = [",".join([""] * ((i // 40) % 4) + row.split(",")[(i // 40) % 4:])
            for i, row in enumerate(rows)]
    (data / "data.csv").write_text("\n".join([header] + rows) + "\n")
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(tmp_path / "cfg.json"),
                 "--out", str(run)]) == 0
    assert main(["align", "--out", str(run)]) == 0
    assert main(["dump-embeddings", "--out", str(run), "--split", "val"]) == 0
    _, prepared = load_prepared(run)
    model, tok = load_alignment_model(prepared, run / "align.ckpt")
    h_text, _ = tower_representations(model, prepared.val, tok, 24)
    n = prepared.val.n
    text_rows = (run / "embeddings.csv").read_text().splitlines()[1 + n:]
    assert text_rows == [",".join([str(i), "text"]
                                  + [repr(float(v)) for v in h_text[i]])
                         for i in range(n)]


def _readme_commands() -> list:
    """Every `ctrl ...` command in README's sh blocks, as an argv without
    the `ctrl`: continuation lines joined, comments stripped."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["ctrl"]:
                commands.append(argv[1:])
    return commands


def test_every_readme_command_parses(capsys):
    """A flag the README documents but the parser no longer has fails here."""
    commands = _readme_commands()
    assert len(commands) >= 15
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"ctrl {shlex.join(argv)}: "
                        f"{capsys.readouterr().err.strip()}")
