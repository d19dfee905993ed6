"""scripts/diff_runs.py: verdicts and exit status on small work directories."""

import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from ctrl.checkpoint import save_checkpoint
from ctrl.params import ParamStore

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "diff_runs.py"
_spec = importlib.util.spec_from_file_location("diff_runs", SCRIPT)
diff_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_runs)

LOSS = 0.1
W = np.array([[0.25, -1.5], [3.0, 0.1]])


def write_run(d: Path, loss=LOSS, w=W, head="maxsim", stage="align"):
    d.mkdir(parents=True)
    (d / "curve.csv").write_text(f"step,lr,loss\n0,0.001,{loss!r}\n"
                                 "1,0.002,0.05\n")
    (d / "gap.json").write_text(json.dumps({"head": head, "post": {"gap": 0.5}},
                                           sort_keys=True) + "\n")
    store = ParamStore()
    store.add("heads.w", w)
    store.add_buffer("bn.running_mean", np.zeros(2))
    save_checkpoint(d / "align.ckpt", store, "hash",
                    config={"seed": 1, "align": {"temperature": 0.7}},
                    extra={"stage": stage})
    (d / "sub").mkdir()
    (d / "sub" / "note.txt").write_text("same\n")


def write_model_ckpt(d: Path, init=None):
    """A model.ckpt warm-started from d/align.ckpt: `extra.init` is that
    file's sha256 unless `init` is given."""
    if init is None:
        init = hashlib.sha256((d / "align.ckpt").read_bytes()).hexdigest()
    store = ParamStore()
    store.add("collab.w", W)
    save_checkpoint(d / "model.ckpt", store, "hash", config={"seed": 1},
                    extra={"stage": "finetune", "init": init})


def write_drifted_runs(tmp_path):
    """Two runs whose align.ckpt differ by one ulp in one tensor, each with
    a model.ckpt warm-started from its own align.ckpt."""
    w = W.copy()
    w[1, 0] = np.nextafter(w[1, 0], 4.0)
    write_run(tmp_path / "a")
    write_run(tmp_path / "b", w=w)
    write_model_ckpt(tmp_path / "a")
    write_model_ckpt(tmp_path / "b")
    return tmp_path / "a", tmp_path / "b"


def run(capsys, *argv):
    code = diff_runs.main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_identical_directories_match(tmp_path, capsys):
    write_run(tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    code, out = run(capsys, tmp_path / "a", tmp_path / "b")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "match"
    assert sorted(lines[:-1]) == [
        "identical align.ckpt", "identical curve.csv", "identical gap.json",
        "identical sub/note.txt"]


def test_one_ulp_in_a_csv_cell_is_flagged(tmp_path, capsys):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b", loss=float(np.nextafter(LOSS, 1.0)))
    code, out = run(capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert "DIFFERS   curve.csv" in out
    assert "column loss (1 cells): max abs 1.39e-17" in out
    assert "column lr" not in out and "column step" not in out
    assert out.splitlines()[-1] == "mismatch"
    code, out = run(capsys, tmp_path / "a", tmp_path / "b", "--rtol", "1e-15")
    assert code == 0
    assert "within    curve.csv" in out


def test_a_cell_of_numbers_is_compared_number_by_number(tmp_path, capsys):
    """projection.csv keeps its explained variance ratios in one cell."""
    ratios = [0.75, 0.25]
    for name, r in (("a", ratios[1]), ("b", float(np.nextafter(ratios[1], 1.0)))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "projection.csv").write_text(
            f"x,y\n1.0,2.0\n# explained_variance_ratio,{ratios[0]!r} {r!r}\n")
    code, out = run(capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert "column y (1 cells): max abs 5.55e-17" in out
    code, out = run(capsys, tmp_path / "a", tmp_path / "b", "--rtol", "1e-15")
    assert code == 0
    assert "within    projection.csv" in out
    # a cell whose count of numbers differs is not comparable
    (tmp_path / "b" / "projection.csv").write_text(
        "x,y\n1.0,2.0\n# explained_variance_ratio,0.75\n")
    code, out = run(capsys, tmp_path / "a", tmp_path / "b", "--rtol", "1.0")
    assert code == 1
    assert "column y: 1 non-numeric cells differ" in out


def test_one_ulp_in_a_checkpoint_tensor_is_flagged(tmp_path, capsys):
    write_run(tmp_path / "a")
    w = W.copy()
    w[1, 0] = np.nextafter(w[1, 0], 4.0)
    write_run(tmp_path / "b", w=w)
    code, out = run(capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert "DIFFERS   align.ckpt" in out
    assert "tensor heads.w: max abs 4.44e-16" in out
    assert "bn.running_mean" not in out and "key " not in out
    code, out = run(capsys, tmp_path / "a", tmp_path / "b", "--rtol", "1e-15")
    assert code == 0


def test_keys_that_differ_are_named_and_text_is_never_within(tmp_path, capsys):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b", head="cosine", stage="finetune")
    code, out = run(capsys, tmp_path / "a", tmp_path / "b", "--rtol", "1.0")
    assert code == 1
    assert "key head: 'maxsim' vs 'cosine'" in out
    assert "key extra.stage: 'align' vs 'finetune'" in out
    assert "post.gap" not in out and "config." not in out


def test_missing_files_and_unparsed_bytes_fail(tmp_path, capsys):
    write_run(tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "sub" / "note.txt").write_text("changed\n")
    (tmp_path / "b" / "extra.csv").write_text("x\n1\n")
    code, out = run(capsys, tmp_path / "a", tmp_path / "b", "--rtol", "1.0")
    assert code == 1
    assert "MISSING   extra.csv: only in B" in out
    assert "DIFFERS   sub/note.txt\n    bytes differ" in out


def test_rejects_a_missing_directory(tmp_path):
    with pytest.raises(SystemExit) as e:
        diff_runs.main([str(tmp_path), str(tmp_path / "nope")])
    assert e.value.code == 2


def test_init_digests_of_drifted_align_ckpts_are_derived_under_rtol(
        tmp_path, capsys):
    a, b = write_drifted_runs(tmp_path)
    code, out = run(capsys, a, b, "--rtol", "1e-15")
    assert code == 0
    assert ("within    model.ckpt\n"
            "    key extra.init: derived from align.ckpt") in out
    # the align.ckpt pair itself is beyond this tolerance
    code, out = run(capsys, a, b, "--rtol", "1e-17")
    assert code == 1
    assert "DIFFERS   align.ckpt" in out and "DIFFERS   model.ckpt" in out
    assert "key extra.init: '" in out


def test_init_digests_without_rtol_still_fail(tmp_path, capsys):
    a, b = write_drifted_runs(tmp_path)
    code, out = run(capsys, a, b)
    assert code == 1
    assert "DIFFERS   model.ckpt" in out and "key extra.init: '" in out
    assert "derived" not in out


def test_init_digest_that_is_not_its_siblings_still_fails(tmp_path, capsys):
    a, b = write_drifted_runs(tmp_path)
    write_model_ckpt(b, init=hashlib.sha256(b"other").hexdigest())
    code, out = run(capsys, a, b, "--rtol", "1e-15")
    assert code == 1
    assert "DIFFERS   model.ckpt" in out and "key extra.init: '" in out
    assert "derived" not in out
