import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ctrl import orchestrate
from ctrl.checkpoint import load_checkpoint
from ctrl.cli import main
from ctrl.config import (AlignConfig, FinetuneConfig, ModelConfig, RunConfig,
                         TextConfig)
from ctrl.exceptions import UsageError
from ctrl.metrics import relaimpr
from ctrl.orchestrate import (align_stage, evaluate_ckpt, end_to_end_stage,
                              finetune_stage, fit_tokenizer,
                              load_alignment_model, load_prepared,
                              prepare_workdir, run_ablation, run_arm,
                              run_sweep)
from ctrl.synthetic import SyntheticSpec, generate

# zero-norm sub-representations are routine right after initialization
# (dead relu row + zero projection bias) and are left as zero vectors
pytestmark = pytest.mark.filterwarnings("ignore:l2_normalize")


def small_config(seed=3, **model_kw):
    return RunConfig(
        seed=seed,
        model=ModelConfig(backbone="mlp", d=4, hidden=(16, 8), **model_kw),
        text=TextConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16,
                        max_tokens=48),
        align=AlignConfig(batch_size=16, m_subspaces=2, d_proj=8, epochs=1,
                          warmup_steps=8, start_lr=1e-4, peak_lr=1e-3),
        finetune=FinetuneConfig(lr=0.01, batch_size=32, epochs=2, patience=2),
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("work")
    rows, schema, _ = generate(SyntheticSpec(
        n_rows=200, n_fields=4, vocab_size=5, rule="logistic",
        flip_noise=0.1, seed=3, history_len=2))
    cfg = small_config()
    prepared = prepare_workdir(out, rows, schema, cfg)
    return out, cfg, prepared


def test_prepare_and_load_round_trip(workdir):
    out, cfg, prepared = workdir
    assert prepared.train.n == 160
    assert prepared.val.n == 20 and prepared.test.n == 20
    assert prepared.schema.fitted
    for name in ("config.json", "schema.json", "train.csv", "val.csv",
                 "test.csv"):
        assert (out / name).exists()
    cfg2, again = load_prepared(out)
    assert cfg2 == cfg
    assert np.array_equal(again.train.labels, prepared.train.labels)
    assert again.train.raw_rows == prepared.train.raw_rows
    assert again.hash == prepared.hash


def test_load_prepared_holds_each_distinct_cell_once(tmp_path):
    """Every split keeps its rows for the whole process. On 2,000 rows of the
    criterion-6 data they kept 1,339 bytes a row with a string per cell, and
    824 with each file's equal cells one string."""
    rows, schema, _ = generate(SyntheticSpec(
        n_rows=2000, n_fields=10, vocab_size=50, rule="logistic",
        flip_noise=0.15, seed=1, history_len=3))
    prepare_workdir(tmp_path, rows, schema, RunConfig())
    del rows
    tracemalloc.start()
    try:
        _, prepared = load_prepared(tmp_path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(s.n for s in (prepared.train, prepared.val, prepared.test)) \
        == 2000
    assert kept / 2000 < 1050, kept / 2000


def test_split_name_validation(workdir):
    _, _, prepared = workdir
    with pytest.raises(UsageError):
        prepared.split("dev")


def test_align_stage_artifacts_and_determinism(workdir, tmp_path):
    out, cfg, prepared = workdir
    a, b = tmp_path / "a", tmp_path / "b"
    summary = align_stage(prepared, cfg, a)
    align_stage(prepared, cfg, b)
    # one epoch of drop-last batches over 160 rows at batch 16
    assert summary["steps"] == 10
    assert not summary["diverged"]
    assert isinstance(summary["pre_gap"], float)
    assert sorted(p.name for p in a.iterdir()) == [
        "align.ckpt", "curve.csv", "gap.json"]
    curve = (a / "curve.csv").read_text().splitlines()
    assert curve[0] == "step,lr,loss,l_t2t,l_tab2text"
    assert len(curve) == 11
    assert (a / "align.ckpt").read_bytes() == (b / "align.ckpt").read_bytes()
    assert (a / "curve.csv").read_text() == (b / "curve.csv").read_text()
    gap = json.loads((a / "gap.json").read_text())
    assert set(gap) == {"pre", "post", "head", "split"}


def test_align_stage_rejects_oversized_batch(workdir, tmp_path):
    """The batch size is checked before any work, so a refused stage (a
    failed sweep cell) leaves no directory or curve behind."""
    out, cfg, prepared = workdir
    from dataclasses import replace
    for batch in (prepared.train.n + 1, 4096):
        big = replace(cfg, align=replace(cfg.align, batch_size=batch))
        with pytest.raises(UsageError, match="alignment batch"):
            align_stage(prepared, big, tmp_path / "oversized")
        assert not (tmp_path / "oversized").exists()


def test_warm_start_checkpoint_does_not_depend_on_directory(workdir,
                                                           tmp_path):
    _, cfg, prepared = workdir
    runs = [tmp_path / "first", tmp_path / "a_second_run"]
    for d in runs:
        align_stage(prepared, cfg, d)
        finetune_stage(prepared, cfg, d, init_ckpt=d / "align.ckpt")
    for name in ("align.ckpt", "history.csv", "model.ckpt"):
        assert (runs[0] / name).read_bytes() == \
            (runs[1] / name).read_bytes(), name


def test_finetune_stage_warm_start_and_guards(workdir, tmp_path):
    out, cfg, prepared = workdir
    stage1 = tmp_path / "stage1"
    align_stage(prepared, cfg, stage1)

    cold = tmp_path / "cold"
    warm = tmp_path / "warm"
    res_cold = finetune_stage(prepared, cfg, cold)
    res_warm = finetune_stage(prepared, cfg, warm,
                              init_ckpt=stage1 / "align.ckpt")
    assert (cold / "model.ckpt").exists() and (cold / "history.csv").exists()
    ck_cold = load_checkpoint(cold / "model.ckpt")
    ck_warm = load_checkpoint(warm / "model.ckpt")
    assert ck_cold.extra["init"] == ""
    init_bytes = (stage1 / "align.ckpt").read_bytes()
    assert ck_warm.extra["init"] == hashlib.sha256(init_bytes).hexdigest()
    # warm start actually changed the starting point
    assert not np.array_equal(ck_cold.params["collab.mlp.l0.w"],
                              ck_warm.params["collab.mlp.l0.w"])

    # tower settings must match the checkpoint they warm start from
    other = small_config(seed=3, batch_norm=False)
    with pytest.raises(UsageError, match="do not match"):
        finetune_stage(prepared, other, tmp_path / "bad",
                       init_ckpt=stage1 / "align.ckpt")


def test_warm_start_records_the_digest_of_the_bytes_it_restored(
        workdir, tmp_path, monkeypatch):
    """The init checkpoint is read once: a file replaced after loading does
    not lend its digest to model.ckpt, as a second read of it did."""
    _, cfg, prepared = workdir
    init = tmp_path / "align.ckpt"
    align_stage(prepared, cfg, tmp_path)
    loaded = init.read_bytes()

    def load_then_replace(path, **kw):
        ckpt = load_checkpoint(path, **kw)
        Path(path).write_bytes(b"replaced after loading")
        return ckpt
    monkeypatch.setattr(orchestrate, "load_checkpoint", load_then_replace)
    finetune_stage(prepared, cfg, tmp_path / "warm", init_ckpt=init)
    monkeypatch.undo()
    extra = load_checkpoint(tmp_path / "warm" / "model.ckpt").extra
    assert extra["init"] == hashlib.sha256(loaded).hexdigest()


def test_evaluate_ckpt_report_and_stage1_rejection(workdir, tmp_path):
    out, cfg, prepared = workdir
    d = tmp_path / "run"
    align_stage(prepared, cfg, d)
    finetune_stage(prepared, cfg, d, init_ckpt=d / "align.ckpt")
    report = evaluate_ckpt(prepared, d / "model.ckpt", split="test",
                           report_path=d / "report.json")
    assert 0.0 <= report.auc <= 1.0
    assert report.n_examples == 20
    blob = json.loads((d / "report.json").read_text())
    assert blob["auc"] == report.auc
    with pytest.raises(UsageError, match="stage-1"):
        evaluate_ckpt(prepared, d / "align.ckpt")


def test_evaluate_is_deterministic(workdir, tmp_path):
    out, cfg, prepared = workdir
    d = tmp_path / "run"
    finetune_stage(prepared, cfg, d)
    r1 = evaluate_ckpt(prepared, d / "model.ckpt")
    r2 = evaluate_ckpt(prepared, d / "model.ckpt")
    assert r1 == r2


EVAL_CHILD = textwrap.dedent("""
    import resource
    import sys

    from ctrl.checkpoint import save_checkpoint
    from ctrl.config import ModelConfig, RunConfig
    from ctrl.data import build_vocab, encode
    from ctrl.orchestrate import Prepared, _fresh_ctr_model, evaluate_ckpt
    from ctrl.synthetic import SyntheticSpec, generate

    rows, schema, _ = generate(SyntheticSpec(
        n_rows=60000, n_fields=10, vocab_size=50, rule="logistic",
        flip_noise=0.1, seed=0, history_len=3))
    fitted = build_vocab(rows, schema)
    split = encode(rows, fitted)
    del rows
    prepared = Prepared(fitted, split, split, split)
    cfg = RunConfig(model=ModelConfig(backbone="dcn", d=8, hidden=(64, 32),
                                      cross_layers=3))
    store, _, _ = _fresh_ctr_model(prepared, cfg)
    save_checkpoint(sys.argv[1], store, prepared.hash, cfg.to_dict(), extra={})
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = evaluate_ckpt(prepared, sys.argv[1])
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert report.n_examples == 60000
    print((after - before) / 1024.0)
""")


def test_evaluate_memory_is_bounded_by_the_batch(tmp_path):
    # The perfbench tower (dcn, d = 8, hidden (64, 32), 3 cross layers) on
    # 60,000 rows of 11 fields. Scored in batches of 4,096 rows, as
    # evaluate_ckpt does, peak RSS grew by ~24 MB; one forward pass over the
    # whole split grew it by ~271 MB (both measured on 2 vCPUs, numpy 2.4).
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", EVAL_CHILD,
                           str(tmp_path / "model.ckpt")], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    growth_mb = float(proc.stdout.strip().splitlines()[-1])
    assert growth_mb < 100.0, f"peak RSS grew by {growth_mb:.1f} MB"


def test_load_alignment_model_restores_tensors(workdir, tmp_path):
    out, cfg, prepared = workdir
    d = tmp_path / "run"
    align_stage(prepared, cfg, d)
    model, tok = load_alignment_model(prepared, d / "align.ckpt")
    ckpt = load_checkpoint(d / "align.ckpt")
    assert model.cfg == cfg
    assert tok.vocab == fit_tokenizer(prepared, cfg).vocab
    for name in ("collab.mlp.l0.w", "text.tok_emb", "heads.tab_proj.w"):
        assert np.array_equal(model.store[name].data, ckpt.params[name]), name


def test_run_arm_rejects_unknown(workdir, tmp_path):
    out, cfg, prepared = workdir
    with pytest.raises(UsageError, match="unknown arm"):
        run_arm("mystery", prepared, cfg, tmp_path)


def test_run_ablation_two_arms(workdir, tmp_path):
    out, cfg, prepared = workdir
    blob = run_ablation(prepared, cfg, tmp_path / "abl",
                        arms=("no_align", "ctrl"))
    assert [r["arm"] for r in blob["arms"]] == ["no_align", "ctrl"]
    by_arm = {r["arm"]: r for r in blob["arms"]}
    assert by_arm["no_align"]["relaimpr_vs_no_align_pct"] is None
    base = by_arm["no_align"]["auc"]
    got = by_arm["ctrl"]["relaimpr_vs_no_align_pct"]
    if base > 0.5:
        assert got == relaimpr(by_arm["ctrl"]["auc"], base)
    lines = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()
    assert lines[0] == "arm,auc,logloss,relaimpr_vs_no_align_pct"
    assert len(lines) == 3
    assert (tmp_path / "abl" / "no_align" / "model.ckpt").exists()
    assert (tmp_path / "abl" / "ctrl" / "align.ckpt").exists()


def test_end_to_end_stage_checkpoint_evaluates(workdir, tmp_path):
    out, cfg, prepared = workdir
    d = tmp_path / "e2e"
    res = end_to_end_stage(prepared, cfg, d)
    assert not res.diverged
    ckpt = load_checkpoint(d / "model.ckpt")
    assert ckpt.extra["stage"] == "end_to_end"
    assert any(n.startswith("text.") for n in ckpt.params)
    report = evaluate_ckpt(prepared, d / "model.ckpt")
    assert report.n_examples == 20


@pytest.mark.filterwarnings("ignore:1 sweep cell")
def test_run_sweep_grid_dedup_and_failures(workdir, tmp_path):
    out, cfg, prepared = workdir
    sweep_dir = tmp_path / "sweep"
    with pytest.warns(UserWarning, match="duplicate sweep cell"):
        rows, failures = run_sweep(out, cfg, taus=[0.7, 0.7],
                                   batch_sizes=[16, 4096],
                                   out_dir=sweep_dir)
    # 16 succeeds; 4096 exceeds the train split and is recorded as a failure
    assert [(r["tau"], r["batch"]) for r in rows] == [(0.7, 16)]
    assert [(f["tau"], f["batch"]) for f in failures] == [(0.7, 4096)]
    assert "UsageError" in failures[0]["error"]
    lines = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,batch,auc,logloss"
    assert len(lines) == 2
    assert json.loads((sweep_dir / "sweep_failures.json").read_text())
    assert sorted(p.name for p in sweep_dir.iterdir()) == [
        "cell_tau0.7_bs16", "sweep.csv", "sweep_failures.json"]


def test_run_sweep_rejects_temperatures_that_share_a_cell_directory(
        workdir, tmp_path):
    out, cfg, _ = workdir
    sweep_dir = tmp_path / "sweep"
    # both format as 0.1, so both cells would write cell_tau0.1_bs16
    with pytest.raises(UsageError, match=r"0\.1 and 0\.1000001"):
        run_sweep(out, cfg, taus=[0.1, 0.1000001], batch_sizes=[16],
                  out_dir=sweep_dir)
    assert not list(sweep_dir.glob("cell_*"))
    assert main(["sweep", "--out", str(out), "--taus", "0.1,0.1000001",
                 "--batch-sizes", "16"]) == 1


@pytest.mark.filterwarnings("ignore:1 sweep cell")
def test_a_serial_sweep_reads_each_split_once(workdir, tmp_path, monkeypatch):
    out, _, _ = workdir
    work = tmp_path / "work"
    work.mkdir()
    for name in ("config.json", "schema.json", "train.csv", "val.csv",
                 "test.csv"):
        shutil.copy(out / name, work / name)
    reads, read_csv_rows = [], orchestrate.read_csv_rows
    monkeypatch.setattr(orchestrate, "read_csv_rows", lambda path, schema: (
        reads.append(Path(path).name) or read_csv_rows(path, schema)))
    # batch 4096 exceeds the train split, so that cell fails
    assert main(["sweep", "--out", str(work), "--taus", "0.7",
                 "--batch-sizes", "16,4096"]) == 0
    assert sorted(reads) == ["test.csv", "train.csv", "val.csv"]
    assert (work / "sweep" / "cell_tau0.7_bs16" / "report.json").is_file()


@pytest.mark.filterwarnings("ignore:2 sweep cell")
def test_run_sweep_parallel_matches_serial(workdir, tmp_path):
    out, cfg, _ = workdir
    results = []
    for parallel in (1, 2):
        sweep_dir = tmp_path / f"parallel{parallel}"
        # batch 4096 exceeds the train split, so both of its cells fail
        rows, failures = run_sweep(out, cfg, taus=[0.5, 0.7],
                                   batch_sizes=[16, 4096], out_dir=sweep_dir,
                                   parallel=parallel)
        results.append(((sweep_dir / "sweep.csv").read_bytes(), rows,
                        failures))
    (csv1, rows1, failures1), (csv2, rows2, failures2) = results
    assert [(r["tau"], r["batch"]) for r in rows1] == [(0.5, 16), (0.7, 16)]
    assert [(f["tau"], f["batch"]) for f in failures1] == [(0.5, 4096),
                                                          (0.7, 4096)]
    assert csv2 == csv1
    assert rows2 == rows1
    assert failures2 == failures1
