import json
import re

import numpy as np
import pytest

from ctrl.checkpoint import load_checkpoint, save_checkpoint
from ctrl.cli import main
from ctrl.params import ParamStore

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
    reads its align.ckpt and tokenizer.json does not depend on test order."""
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
    root, _, run = workdir
    other = tmp_path / "cosine_run"
    other.mkdir()
    for name in ("config.json", "schema.json", "train.csv", "val.csv",
                 "test.csv"):
        (other / name).write_bytes((run / name).read_bytes())
    assert main(["align", "--out", str(other),
                 "--similarity", "cosine", "--seed", "9"]) == 0
    ckpt = load_checkpoint(other / "align.ckpt")
    assert ckpt.config["align"]["similarity"] == "cosine"
    assert ckpt.config["seed"] == 9
    assert not any(n.startswith("heads.tab_sub") for n in ckpt.params)


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
    _, _, run = workdir
    for name in ("config.json", "schema.json", "train.csv", "val.csv",
                 "test.csv"):
        (tmp_path / name).write_bytes((run / name).read_bytes())
    assert main(["align", "--out", str(tmp_path), "--similarity", head]) == 0
    capsys.readouterr()
    assert main(["dump-embeddings", "--out", str(tmp_path),
                 "--split", "val"]) == 0
    found = re.search(r"; (\w+) gap (\S+) \(paired", capsys.readouterr().out)
    assert found and found[1] == head
    post = json.loads((tmp_path / "gap.json").read_text())["post"]["gap"]
    # align tiles the sums at its batch size, dump-embeddings at 256 rows
    assert abs(float(found[2]) - post) <= 1e-12


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
    _copy(aligned, tmp_path, PREPARED + ("tokenizer.json", "align.ckpt"))
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
