"""End-to-end acceptance checks, one test per promised behavior.

Each test pins the promise at its stated tolerance and runtime budget, so
the -v output reads as a one-line pass/fail verdict per item. Slow items
(5, 6) exercise whole pipelines on synthetic data; the rest are oracles.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import ctrl.autodiff as ad
from ctrl.align import (AlignmentModel, Linear, SubspaceHead,
                        infonce)
from ctrl.autodiff import DTensor
from ctrl.checkpoint import load_checkpoint, save_checkpoint
from ctrl.config import (AlignConfig, FinetuneConfig, ModelConfig, RunConfig,
                         TextConfig)
from ctrl.data import batches
from ctrl.encoders import CollaborativeEncoder, TextEncoder
from ctrl.exceptions import CheckpointError, DataError
from ctrl.finetune import bce_loss
from ctrl.metrics import auc, logloss, relaimpr
from ctrl.orchestrate import (ARM_NAMES, align_stage, evaluate_ckpt,
                              finetune_stage, fit_tokenizer,
                              load_alignment_model, prepare_workdir,
                              run_ablation, run_sweep)
from ctrl.params import ParamStore, rng_for
from ctrl.prompt import PromptTemplate, build_prompt
from ctrl.synthetic import SyntheticSpec, generate

from helpers import (auc_bruteforce, check_grads, maxsim, store_grad_check,
                     tiny_pipeline)
from test_data import movie_schema
from test_encoders import batch_for, cat_schema
from test_prompt import MOVIE_ROW, MOVIE_TEMPLATE

pytestmark = pytest.mark.filterwarnings("ignore:l2_normalize")


def test_criterion_1_auc_and_logloss_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            scores = rng.integers(0, 4, size=n) / 4.0  # heavy ties
        else:
            scores = rng.random(n)
        assert auc(scores, labels) == auc_bruteforce(scores, labels)
    labels = rng.integers(0, 2, size=64).astype(np.float64)
    assert abs(logloss(np.full(64, 0.5), labels) - math.log(2.0)) < 1e-12
    assert time.monotonic() - t0 < 10.0


def test_criterion_2_relative_improvement_arithmetic():
    t0 = time.monotonic()
    for measured, base, expected_pct in [(0.8376, 0.8290, 2.61),
                                         (0.7074, 0.7012, 3.08),
                                         (0.6338, 0.6281, 4.45)]:
        assert abs(relaimpr(measured, base) - expected_pct) < 0.005
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_contrastive_loss_oracles():
    # identity similarity at tau=1: every row reduces to log(1 + e^-1)
    assert abs(infonce(DTensor(np.eye(2)), temperature=1.0).item()
               - math.log(1.0 + math.exp(-1.0))) < 1e-10
    # a single pair has no negatives to lose against
    assert infonce(DTensor([[3.7]]), temperature=0.5).item() == 0.0

    # the combined objective is the mean of the two directional losses
    model, tokenizer, (train, _, _), _ = tiny_pipeline(seed=5)
    batch = next(batches(train, 4, "eval"))
    prompts = [build_prompt(r, model.collab.schema, model.template)
               for r in batch.raw_rows]
    ids, mask = tokenizer.encode_batch(prompts)
    loss, l_t2t, l_tab2text = model.ccl(batch, ids, mask)
    assert abs(loss.item() - 0.5 * (l_t2t.item() + l_tab2text.item())) < 1e-12

    # late interaction hand examples: max(0.6, 1.0) + max(0.8, 0.0) = 1.8,
    # and swapping the argument order changes the score
    i_subs = np.array([[1.0, 0.0], [0.0, 1.0]])
    j_subs = np.array([[0.6, 0.8], [1.0, 0.0]])
    assert abs(maxsim(i_subs, j_subs).item() - 1.8) < 1e-12
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0], [0.6, 0.8]])
    assert abs(maxsim(a, b).item() - 1.2) < 1e-12
    assert abs(maxsim(b, a).item() - 0.6) < 1e-12


def _pick(names, r, k):
    names = sorted(names)
    idx = r.choice(len(names), size=min(k, len(names)), replace=False)
    return [names[i] for i in idx]


def test_criterion_4_gradient_suite():
    """Tape gradients match central differences (h=1e-6, rel err < 1e-4) for
    every backbone, the text tower, both alignment heads, the contrastive
    objective, and the supervised loss, on randomized shapes over 20 seeds."""
    t0 = time.monotonic()
    for seed in range(20):
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 6))
        dims = dict(d=int(r.integers(2, 5)),
                    hidden=(int(r.integers(4, 9)), int(r.integers(3, 7))),
                    attn_layers=1, attn_heads=2,
                    attn_head_dim=int(r.integers(2, 4)),
                    cross_layers=2)
        schema = cat_schema(int(r.integers(2, 4)), vocab=int(r.integers(2, 4)))
        batch = batch_for(schema, n=n, seed=seed)
        for backbone in ("autoint", "dcn", "mlp"):
            store = ParamStore()
            enc = CollaborativeEncoder(store, schema,
                                       ModelConfig(backbone=backbone, **dims),
                                       rng_for(seed, "collab"))
            w = DTensor(rng_for(seed, "loss.w").normal(size=(n, enc.out_dim)))

            def forward():
                return ad.sum_(ad.mul(enc(batch, train=True), w))

            store_grad_check(store, forward, names=_pick(store.names(), r, 5),
                             sample=2, rng=r)

        store = ParamStore()
        d_model = 2 * int(r.integers(1, 3))
        text = TextEncoder(store, int(r.integers(5, 9)),
                           TextConfig(d_model=d_model, n_layers=1, n_heads=2,
                                      d_ff=int(r.integers(4, 9)), max_tokens=8),
                           rng_for(seed, "text"))
        length = int(r.integers(2, 5))
        ids = r.integers(0, 5, size=(n, length))
        mask = (r.random((n, length)) < 0.8).astype(np.float64)
        mask[:, 0] = 1.0  # no fully padded rows
        wt = DTensor(rng_for(seed, "loss.t").normal(size=(n, d_model)))

        def forward_text():
            return ad.sum_(ad.mul(text(ids, mask), wt))

        store_grad_check(store, forward_text, names=_pick(store.names(), r, 5),
                         sample=2, rng=r)

        store = ParamStore()
        d_in = int(r.integers(3, 7))
        d_out = 2 * int(r.integers(2, 5))
        proj = Linear(store, "p", d_in, d_out, rng_for(seed, "p"))
        sub = SubspaceHead(store, "s", d_out, 2, rng_for(seed, "s"))
        x = DTensor(rng_for(seed, "x").normal(size=(n, d_in)))
        wh = DTensor(rng_for(seed, "loss.h").normal(size=(n, 2, d_out // 2)))

        def forward_heads():
            return ad.sum_(ad.mul(sub(proj(x)), wh))

        store_grad_check(store, forward_heads, sample=2, rng=r)

        backbone = ("autoint", "dcn", "mlp")[seed % 3]
        sim = ("maxsim", "cosine")[seed % 2]
        model, tokenizer, (train, _, _), _ = tiny_pipeline(
            seed=seed, backbone=backbone, similarity=sim)
        cbatch = next(batches(train, 3, "eval"))
        prompts = [build_prompt(row, model.collab.schema, model.template)
                   for row in cbatch.raw_rows]
        tids, tmask = tokenizer.encode_batch(prompts)

        def forward_ccl():
            return model.ccl(cbatch, tids, tmask, train=True)[0]

        store_grad_check(model.store, forward_ccl,
                         names=_pick(model.store.names(), r, 4),
                         sample=2, rng=r)

        y = r.integers(0, 2, size=n).astype(np.float64)
        logits = rng_for(seed, "logits").normal(size=(n,))

        def build_bce(tensors):
            return bce_loss(ad.sigmoid(tensors["z"]), y)

        check_grads(build_bce, {"z": logits}, rng=r)
    assert time.monotonic() - t0 < 120.0


def test_criterion_5_alignment_separates_pairs_on_heldout_rows(tmp_path):
    t0 = time.monotonic()
    rows, schema, _ = generate(SyntheticSpec(n_rows=512, n_fields=6,
                                             vocab_size=40, rule="logistic",
                                             flip_noise=0.0, seed=7,
                                             history_len=3))
    cfg = RunConfig(seed=0)  # stock settings end to end
    prepared = prepare_workdir(tmp_path, rows, schema, cfg)
    summary = align_stage(prepared, cfg, tmp_path)
    assert summary["gap_split"] == "val"
    assert summary["pre_gap"] < 0.1
    assert summary["post_gap"] > 0.2
    assert time.monotonic() - t0 < 300.0


def test_criterion_6_two_stage_matches_or_beats_baseline(tmp_path):
    """Aligned warm start vs identically seeded supervised-only training,
    mean validation AUC over 5 seeds; the aligned arm must not lose by more
    than 0.002. The four-arm ablation must complete and report every arm
    (its ordering is printed, not asserted)."""
    t0 = time.monotonic()
    rows, schema, _ = generate(SyntheticSpec(n_rows=20000, n_fields=10,
                                             vocab_size=50, rule="logistic",
                                             flip_noise=0.15, seed=13,
                                             history_len=3))
    cfg = RunConfig(
        seed=0,
        model=ModelConfig(backbone="dcn", d=8, hidden=(64, 32), cross_layers=3),
        text=TextConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64,
                        max_tokens=96),
        align=AlignConfig(batch_size=128, epochs=2, warmup_steps=20,
                          start_lr=1e-5, peak_lr=1e-3),
        finetune=FinetuneConfig(lr=1e-2, batch_size=256, epochs=12, patience=4),
    )
    prepared = prepare_workdir(tmp_path / "data", rows, schema, cfg)

    per_seed = []
    for seed in range(5):
        scfg = replace(cfg, seed=seed)
        ctrl_dir = tmp_path / f"two_stage_{seed}"
        align_stage(prepared, scfg, ctrl_dir)
        two_stage = finetune_stage(prepared, scfg, ctrl_dir,
                                   init_ckpt=ctrl_dir / "align.ckpt")
        baseline = finetune_stage(prepared, scfg, tmp_path / f"baseline_{seed}")
        per_seed.append({"seed": seed,
                         "two_stage_val_auc": two_stage.best_val_auc,
                         "baseline_val_auc": baseline.best_val_auc})
    two_stage_mean = float(np.mean([p["two_stage_val_auc"] for p in per_seed]))
    baseline_mean = float(np.mean([p["baseline_val_auc"] for p in per_seed]))
    report = {"per_seed": per_seed,
              "two_stage_mean": two_stage_mean,
              "baseline_mean": baseline_mean,
              "mean_gap": two_stage_mean - baseline_mean}
    with open(tmp_path / "gap_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("two-stage vs baseline:", json.dumps(report, sort_keys=True))
    assert two_stage_mean - baseline_mean >= -0.002, report

    ablation_cfg = replace(cfg, finetune=replace(cfg.finetune,
                                                 epochs=8, patience=3))
    blob = run_ablation(prepared, ablation_cfg, tmp_path / "ablation")
    arms = {row["arm"]: row for row in blob["arms"]}
    assert set(arms) == set(ARM_NAMES)
    for row in blob["arms"]:
        assert 0.0 <= row["auc"] <= 1.0
        assert math.isfinite(row["logloss"])
    order = sorted(arms, key=lambda a: -arms[a]["auc"])
    print("ablation order (reported, not asserted):",
          " > ".join(f"{a}={arms[a]['auc']:.4f}" for a in order))
    assert time.monotonic() - t0 < 1800.0


def test_criterion_7_prompt_conformance():
    schema = movie_schema()
    text = build_prompt(MOVIE_ROW, schema, MOVIE_TEMPLATE)
    assert text == ("This is a user, gender is female, age is 18, "
                    "occupation is doctor, who has recently watched "
                    "Titanic|Avatar. This is a movie, title is The Terminator, "
                    "genre is Sci-FI, director is Camelon.")

    field_names = [f.name for f in schema.fields]
    rng = np.random.default_rng(71)
    alphabet = list("abcdefghijklmnopqrstuvwxyz0123456789")

    def rand_value():
        k = int(rng.integers(1, 9))
        return "".join(rng.choice(alphabet, size=k))

    checked = 0
    for _ in range(1000):
        row = {name: "" for name in field_names}
        for name in field_names:
            if name != "history" and rng.random() < 0.7:
                row[name] = rand_value()
        if rng.random() < 0.8:
            row["history"] = "|".join(
                rand_value() for _ in range(int(rng.integers(1, 5))))
        rendered = sum(1 for name in field_names if row[name])
        if rendered == 0:
            with pytest.raises(DataError):
                build_prompt(row, schema, MOVIE_TEMPLATE)
            continue
        text = build_prompt(row, schema, MOVIE_TEMPLATE)
        assert text.count(",") == rendered  # one per rendered feature
        assert text.count(".") == 2
        assert text.endswith(".")
        checked += 1
    assert checked > 800

    v3 = build_prompt(MOVIE_ROW, schema, PromptTemplate(variant=3))
    tokens = set(v3.replace(",", " ").replace(".", " ").split())
    assert all(name not in tokens for name in field_names)
    v4 = build_prompt(MOVIE_ROW, schema, PromptTemplate(variant=4))
    assert v4.count("Field-") == 7
    assert all(name not in v4 for name in field_names)


def test_criterion_8_determinism_and_persistence(tmp_path):
    rows, schema, _ = generate(SyntheticSpec(n_rows=200, n_fields=4,
                                             vocab_size=6, rule="logistic",
                                             flip_noise=0.1, seed=3,
                                             history_len=2))
    cfg = RunConfig(
        seed=4,
        model=ModelConfig(backbone="mlp", d=4, hidden=(16, 8), attn_layers=1,
                          attn_heads=2, attn_head_dim=4, cross_layers=2),
        text=TextConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32,
                        max_tokens=64),
        align=AlignConfig(batch_size=32, epochs=2, warmup_steps=8,
                          start_lr=1e-4, peak_lr=1e-3, m_subspaces=2,
                          d_proj=16),
        finetune=FinetuneConfig(lr=1e-2, batch_size=32, epochs=3, patience=3),
    )
    runs = []
    for name in ("a", "b"):
        d = tmp_path / name
        prepared = prepare_workdir(d, rows, schema, cfg)
        align_stage(prepared, cfg, d)
        finetune_stage(prepared, cfg, d, init_ckpt=d / "align.ckpt")
        runs.append((d, prepared,
                     evaluate_ckpt(prepared, d / "model.ckpt", split="test")))
    (da, prepared, ra), (db, _, rb) = runs
    assert (da / "curve.csv").read_bytes() == (db / "curve.csv").read_bytes()
    assert (da / "history.csv").read_bytes() == (db / "history.csv").read_bytes()
    assert ra == rb

    # save -> load -> save reproduces a stage checkpoint byte for byte
    ckpt = load_checkpoint(da / "align.ckpt")
    model, _ = load_alignment_model(prepared, da / "align.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, model.store, ckpt.schema_hash, ckpt.config,
                    extra=ckpt.extra)
    assert resaved.read_bytes() == (da / "align.ckpt").read_bytes()

    with pytest.raises(CheckpointError):
        load_checkpoint(da / "align.ckpt", expect_schema_hash="not-that-data")


def test_criterion_9_temperature_batch_sweep(tmp_path):
    rows, schema, _ = generate(SyntheticSpec(n_rows=512, n_fields=6,
                                             vocab_size=40, rule="logistic",
                                             flip_noise=0.0, seed=7,
                                             history_len=3))
    cfg = RunConfig(
        seed=1,
        model=ModelConfig(backbone="mlp", d=4, hidden=(16, 8), attn_layers=1,
                          attn_heads=2, attn_head_dim=4, cross_layers=2),
        text=TextConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32,
                        max_tokens=64),
        align=AlignConfig(batch_size=64, epochs=2, warmup_steps=10,
                          start_lr=1e-5, peak_lr=1e-3, m_subspaces=2,
                          d_proj=32),
        finetune=FinetuneConfig(lr=1e-2, batch_size=64, epochs=3, patience=3),
    )
    work = tmp_path / "work"
    prepare_workdir(work, rows, schema, cfg)
    taus = (0.1, 0.3, 0.7, 1.0, 2.0)
    sizes = (32, 128)
    rows_out, failures = run_sweep(work, cfg, taus, sizes, tmp_path / "sweep")
    assert failures == []
    assert len(rows_out) == 10
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "tau,batch,auc,logloss"
    assert len(lines) == 11
    cells = set()
    for line in lines[1:]:
        tau, batch, a, ll = line.split(",")
        cells.add((float(tau), int(batch)))
        assert 0.0 <= float(a) <= 1.0
        assert math.isfinite(float(ll))
    assert cells == {(t, b) for t in taus for b in sizes}
