"""The scripts under scripts/ parse their arguments, and each experiment
config under configs/ loads and prepares a work directory through `ctrl`."""

import importlib.util
import json
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


# each script's help names this flag
HELP_FLAGS = {"diff_runs.py": "--rtol", "identity_runs.py": "--out",
              "paired_runs.py": "--seeds"}


@pytest.mark.parametrize("script", sorted(HELP_FLAGS))
def test_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--help"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert HELP_FLAGS[script] in proc.stdout


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


# A stand-in perfbench/run.py: it logs its side and seed to the file beside
# its checkout, and prints the result line of its checkout's STUB.json, each
# metric times the seed's factor in its optional "scale" map.
STUB_RUN = """\
import argparse, json, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds"):
    ap.add_argument(flag)
args = ap.parse_args()
here = pathlib.Path(__file__).resolve().parent.parent
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{here.name} {args.seed} {args.workload}\\n")
print("perfbench: environment record")
stub = json.loads((here / "STUB.json").read_text())
scale = stub.pop("scale", {}).get(args.seed, 1)
for metric in stub["metrics"].values():
    metric["value"] *= scale
print(json.dumps(stub))
"""


# the stand-in benchmark declaration; setup_s is a metric no run reports,
# and traced.calls one it does not name
STUB_BENCHMARK = {
    "end_to_end": [{"name": "rows_per_s", "better": "higher", "bound": 0.25},
                   {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                   {"name": "setup_s", "better": "lower", "bound": 0.25}],
    "per_layer": [{"name": "step.p50_ms", "better": "lower"}]}


def _stub_checkout(root: Path, name: str, rate: float, correct=True,
                   failed=0, rss=100.0, scale=None) -> Path:
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB_RUN)
    (checkout / "BENCHMARK.json").write_text(json.dumps(STUB_BENCHMARK))
    (checkout / "STUB.json").write_text(json.dumps({
        "correct": correct, "attempted": 3, "failed": failed,
        "metrics": {"rows_per_s": {"value": rate, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"},
                    "step.p50_ms": {"value": 1000.0 / rate, "unit": "ms"},
                    "traced.calls": {"value": rate, "unit": "count"}},
        "scale": scale or {}}))
    return checkout


def _paired_runs(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "paired_runs.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=60)


def test_paired_runs_alternate_sides_and_report_medians(tmp_path):
    parent = _stub_checkout(tmp_path, "parent", 100.0)
    change = _stub_checkout(tmp_path, "change", 110.0)
    proc = _paired_runs(parent, change, "--workload", "gap-score",
                        "--seeds", "0-2,0-2", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 0 gap-score", "change 0 gap-score",
                     "change 1 gap-score", "parent 1 gap-score",
                     "parent 2 gap-score", "change 2 gap-score",
                     "change 0 gap-score", "parent 0 gap-score",
                     "parent 1 gap-score", "change 1 gap-score",
                     "change 2 gap-score", "parent 2 gap-score"]
    out = proc.stdout.splitlines()
    assert "  rows_per_s: 100 -> 110 (+10.00%)" in out
    assert "median relative change over 6 pairs" in out
    assert "  rows_per_s: +10.00% (min +10.00%, max +10.00%)" in out
    assert "  peak_rss_mb: +0.00% (min +0.00%, max +0.00%)" in out


def test_paired_runs_count_the_pairs_the_change_won(tmp_path):
    """Each metric's direction comes from the parent's BENCHMARK.json,
    which is read and left as it was; a tie wins nothing, and a metric the
    file does not name gets no count."""
    parent = _stub_checkout(tmp_path, "parent", 100.0)
    change = _stub_checkout(tmp_path, "change", 90.0, rss=80.0)
    declared = (parent / "BENCHMARK.json").read_bytes()
    proc = _paired_runs(parent, change, "--workload", "gap-score",
                        "--seeds", "0-2", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    counts = out[out.index("pairs the change won, of 3") + 1:]
    assert counts == ["  peak_rss_mb: 3", "  rows_per_s: 0",
                      "  step.p50_ms: 0", "  traced.calls: -"]
    tied = _paired_runs(parent, parent, "--workload", "gap-score",
                        "--seeds", "0", "--seconds", "1").stdout.splitlines()
    assert tied[tied.index("pairs the change won, of 1") + 1:] == [
        "  peak_rss_mb: 0", "  rows_per_s: 0", "  step.p50_ms: 0",
        "  traced.calls: -"]
    assert (parent / "BENCHMARK.json").read_bytes() == declared


def test_paired_runs_report_each_sides_median_and_quartiles(tmp_path):
    scale = {"0": 1, "1": 2, "2": 3, "3": 4}
    parent = _stub_checkout(tmp_path, "parent", 100.0, scale=scale)
    change = _stub_checkout(tmp_path, "change", 110.0, scale=scale)
    proc = _paired_runs(parent, change, "--workload", "gap-score",
                        "--seeds", "0-3", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    head = out.index("median and interquartile range of each side over "
                     "4 pairs")
    assert out[head + 1:head + 3] == [
        "  peak_rss_mb: parent 250 (IQR 175 to 325); "
        "change 250 (IQR 175 to 325)",
        "  rows_per_s: parent 250 (IQR 175 to 325); "
        "change 275 (IQR 192.5 to 357.5)"]
    one = _paired_runs(parent, change, "--workload", "gap-score",
                       "--seeds", "3", "--seconds", "1").stdout.splitlines()
    assert "  rows_per_s: parent 400 (IQR 400 to 400); " \
           "change 440 (IQR 440 to 440)" in one


def _verdicts(parent, change, seeds: str) -> list:
    proc = _paired_runs(parent, change, "--workload", "gap-score",
                        "--seeds", seeds, "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    head = out.index("verdict on each end-to-end metric with a bound")
    end = next(i for i, line in enumerate(out)
               if line.startswith("pairs the change won"))
    return out[head + 1:end]


def test_paired_runs_say_a_change_within_its_bounds(tmp_path):
    """Only the bounded metrics some run reports get a verdict: not
    setup_s, which no run reports, nor the per-layer step.p50_ms."""
    parent = _stub_checkout(tmp_path, "parent", 100.0)
    change = _stub_checkout(tmp_path, "change", 80.0, rss=109.0)
    assert _verdicts(parent, change, "0-2") == [
        "  peak_rss_mb: within its bound (10%)",
        "  rows_per_s: within its bound (25%)"]


def test_paired_runs_say_a_change_worse_past_its_bound(tmp_path):
    parent = _stub_checkout(tmp_path, "parent", 100.0)
    change = _stub_checkout(tmp_path, "change", 74.0, rss=111.0)
    assert _verdicts(parent, change, "0-2") == [
        "  peak_rss_mb: worse past its bound (10%)",
        "  rows_per_s: worse past its bound (25%)"]


def test_paired_runs_leave_a_noisy_parent_unresolved(tmp_path):
    """The parent's rows_per_s reads 100 to 400 over the seeds, an
    interquartile range of 60% of its median, wider than either bound.
    A change that reads 10% better is unresolved; one whose every run
    reads better than every parent run is within its bound. On
    peak_rss_mb that change's worst run only ties the parent's best, which
    leaves it unresolved."""
    scale = {"0": 1, "1": 2, "2": 3, "3": 4}
    parent = _stub_checkout(tmp_path, "parent", 100.0, scale=scale)
    change = _stub_checkout(tmp_path, "change", 110.0, scale=scale)
    assert _verdicts(parent, change, "0-3") == [
        "  peak_rss_mb: unresolved (10%)", "  rows_per_s: unresolved (25%)"]
    fast = _stub_checkout(tmp_path, "fast", 401.0, rss=25.0, scale=scale)
    assert _verdicts(parent, fast, "0-3") == [
        "  peak_rss_mb: unresolved (10%)",
        "  rows_per_s: within its bound (25%)"]


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 1)])
def test_paired_runs_refuse_a_run_that_failed(tmp_path, correct, failed):
    parent = _stub_checkout(tmp_path, "parent", 100.0)
    change = _stub_checkout(tmp_path, "change", 110.0, correct, failed)
    proc = _paired_runs(parent, change, "--workload", "finetune",
                        "--seeds", "0", "--seconds", "1")
    assert proc.returncode == 1
    assert f"correct={correct} failed={failed}" in proc.stderr
    assert "median" not in proc.stdout
