"""The scripts under scripts/ parse their arguments, and each experiment
config under configs/ loads and prepares a work directory through `ctrl`."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctrl.cli import main
from ctrl.config import RunConfig, load_config

ROOT = Path(__file__).resolve().parent.parent

# the README's gen-synthetic flags for each config's recipe, at fewer rows
RECIPE_DATA = {
    "two_stage": ["--fields", "10", "--vocab", "50", "--noise", "0.15",
                  "--history", "3", "--seed", "13"],
    "ablation": ["--fields", "10", "--vocab", "50", "--noise", "0.15",
                 "--history", "3", "--seed", "13"],
    "sweep": ["--fields", "6", "--vocab", "40", "--noise", "0.1",
              "--history", "3", "--seed", "7"],
}


def _identity_runs():
    spec = importlib.util.spec_from_file_location(
        "identity_runs", ROOT / "scripts" / "identity_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", ["diff_runs.py", "identity_runs.py"])
def test_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--help"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ("--rtol" if script == "diff_runs.py" else "--out") in proc.stdout


def test_experiment_configs_load_and_prepare(tmp_path):
    paths = sorted((ROOT / "configs").glob("*.json"))
    assert [p.stem for p in paths] == sorted(RECIPE_DATA)
    for path in paths:
        cfg = load_config(path)
        assert cfg != RunConfig()
        data, work = tmp_path / path.stem, tmp_path / f"{path.stem}_work"
        assert main(["gen-synthetic", "--out", str(data), "--rows", "200",
                     *RECIPE_DATA[path.stem]]) == 0
        assert main(["prepare", "--data", str(data / "data.csv"),
                     "--schema", str(data / "schema.json"),
                     "--config", str(path), "--out", str(work)]) == 0
        assert load_config(work / "config.json") == cfg


@pytest.mark.filterwarnings("ignore")  # the runs' own warnings
def test_identity_runs_record_reports_what_it_changed(tmp_path, monkeypatch,
                                                      capsys):
    ir = _identity_runs()
    golden = tmp_path / "golden" / "identity.sha256"
    golden.parent.mkdir()
    golden.write_bytes(ir.GOLDEN.read_bytes())
    monkeypatch.setattr(ir, "GOLDEN", golden)
    # record once, so the copy holds this environment's digests
    assert ir.main(["--record", "--out", str(tmp_path / "first")]) == 0
    fresh = golden.read_text(encoding="utf-8")
    env, sums = ir.read_golden(golden)
    rel = "dcn-maxsim/model.ckpt"
    sums[rel] = "0" * 64
    ir.write_golden(golden, env, sums)
    capsys.readouterr()
    assert ir.main(["--record", "--out", str(tmp_path / "second")]) == 0
    report = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith(("changed: ", "added: ", "removed: ",
                                  "environment ", "recorded "))]
    assert report == [f"changed: {rel}", "environment unchanged",
                      f"recorded {golden}"]
    assert golden.read_text(encoding="utf-8") == fresh
