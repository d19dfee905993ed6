"""Stage runners that tie the library together around one working directory.

`prepare_workdir` materializes everything later stages need as plain files:

    config.json                  run settings
    schema.json                  schema with fitted vocabularies
    train.csv / val.csv / test.csv

so every stage can resume from disk. Stage outputs land in the same
directory: align.ckpt, curve.csv, gap.json (stage 1), model.ckpt,
history.csv (stage 2), report.json, ablation.csv/.json, sweep.csv,
embeddings.csv, projection.csv. Each is written through `ctrl.artifacts`, so
an interrupted stage leaves every file as it was or whole.

Checkpoints embed their own RunConfig, and loaders rebuild model topology
from that embedded copy, so a checkpoint remains readable after the
directory's config.json is edited; their trailing digest (see
`ctrl.checkpoint`) refuses a changed copy. No tokenizer is stored: readers
refit it from the train split and the checkpoint's config.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .align import AlignmentModel, align_train
from .artifacts import write_csv, write_json
from .checkpoint import load_checkpoint, restore_into, save_checkpoint
from .config import RunConfig, load_config, save_config
from .data import (EncodedSplit, FeatureSchema, encode, load_schema,
                   prepare_splits, read_csv_rows, save_schema, schema_hash,
                   write_csv_rows)
from .encoders import CollaborativeEncoder
from .exceptions import CheckpointError, DataError, UsageError
from .finetune import (CtrHead, end_to_end_train, finetune, predict_scores)
from .metrics import EvalReport, auc, logloss, relaimpr
from .params import ParamStore, rng_for
from .prompt import Tokenizer, fit_tokenizer
from .viz import head_gap, tower_representations

ARM_NAMES = ("ctrl", "cosine_sim", "no_align", "end_to_end")

SPLIT_FILES = ("train", "val", "test")


@dataclass
class Prepared:
    """Fitted schema plus the three encoded splits."""
    schema: FeatureSchema
    train: EncodedSplit
    val: EncodedSplit
    test: EncodedSplit

    @property
    def hash(self) -> str:
        return schema_hash(self.schema)

    def split(self, name: str) -> EncodedSplit:
        if name not in SPLIT_FILES:
            raise UsageError(f"split must be one of {SPLIT_FILES}, got '{name}'")
        return getattr(self, name)


def prepare_workdir(out_dir, rows, schema: FeatureSchema,
                    cfg: RunConfig) -> Prepared:
    """Time-split raw rows, fit vocabularies on train, write all artifacts."""
    out = Path(out_dir)
    *splits, fitted = prepare_splits(rows, schema, cfg.split_ratios)
    save_schema(fitted, out / "schema.json")
    save_config(cfg, out / "config.json")
    for name, split in zip(SPLIT_FILES, splits):
        write_csv_rows(split.raw_rows, fitted, out / f"{name}.csv")
    return Prepared(fitted, *splits)


def load_prepared(work_dir) -> tuple[RunConfig, Prepared]:
    work = Path(work_dir)
    cfg = load_config(work / "config.json")
    fitted = load_schema(work / "schema.json")
    if not fitted.fitted:
        raise DataError(f"{work / 'schema.json'}: vocabularies are not fitted; "
                        "run prepare first")
    splits = [encode(read_csv_rows(work / f"{n}.csv", fitted), fitted)
              for n in SPLIT_FILES]
    return cfg, Prepared(fitted, *splits)


def alignment_gap(model: AlignmentModel, split: EncodedSplit,
                  tokenizer: Tokenizer, batch_size: int = 256):
    """(paired, unpaired, gap) mean cross-tower similarity over a split.

    Scored with the model's own head: the per-subspace mean of best-match
    cosines, which for the cosine head (one unit sub-space) is plain cosine.
    Sub-representations are unit vectors, so it lands in [-1, 1] and the
    paired-minus-unpaired gap is comparable across the two modes. Nothing is
    taped, and the scoring works in tiles of ``batch_size`` rows."""
    h_text, h_tab = tower_representations(model, split, tokenizer, batch_size)
    return head_gap(model, h_text, h_tab, batch_size)


def align_stage(prepared: Prepared, cfg: RunConfig, out_dir) -> dict:
    """Stage 1: fit the tokenizer, contrastively train both towers, measure the
    paired-vs-unpaired gap on the val split under the model's similarity head
    before and after, checkpoint everything. A divergence at the first step
    leaves the initial state checkpointed, with no final loss."""
    if prepared.train.n < cfg.align.batch_size:
        raise UsageError("train split is smaller than one alignment batch; "
                         "lower align.batch_size")
    out = Path(out_dir)
    model, tokenizer = _alignment_model(prepared, cfg)
    pre = alignment_gap(model, prepared.val, tokenizer, cfg.align.batch_size)
    result = align_train(model, prepared.train, tokenizer, cfg.align,
                         cfg.seed, curve_path=out / "curve.csv")
    post = alignment_gap(model, prepared.val, tokenizer, cfg.align.batch_size)
    summary = {
        "steps": result.steps,
        "diverged": result.diverged,
        "final_loss": result.curve[-1][2] if result.curve else None,
        "pre_gap": pre[2],
        "post_gap": post[2],
        "gap_split": "val",
    }
    write_json(out / "gap.json", json.dumps(
        {"pre": {"paired": pre[0], "unpaired": pre[1], "gap": pre[2]},
         "post": {"paired": post[0], "unpaired": post[1], "gap": post[2]},
         "head": cfg.align.similarity, "split": "val"}, sort_keys=True))
    save_checkpoint(out / "align.ckpt", model.store, prepared.hash,
                    cfg.to_dict(), extra={"stage": "align", **summary})
    return summary


def _alignment_model(prepared: Prepared, cfg: RunConfig):
    """A freshly initialized AlignmentModel of `cfg` on its own store, and the
    tokenizer it reads: fit on `prepared`'s train split. Returns
    (model, tokenizer)."""
    tokenizer = fit_tokenizer(prepared, cfg)
    return AlignmentModel(ParamStore(), prepared.schema, tokenizer.vocab_size,
                          cfg), tokenizer


def _load_run_checkpoint(prepared: Prepared, ckpt_path):
    """A checkpoint of `prepared`'s schema and its embedded RunConfig; an
    invalid config is a CheckpointError naming the file, as any fault of it."""
    ckpt = load_checkpoint(ckpt_path, expect_schema_hash=prepared.hash)
    try:
        return ckpt, RunConfig.from_dict(ckpt.config)
    except UsageError as e:
        raise CheckpointError(f"{ckpt_path}: {e}") from e


def load_alignment_model(prepared: Prepared, ckpt_path):
    """Rebuild an AlignmentModel from its checkpoint's embedded config, and
    refit the tokenizer it was trained with. Returns (model, tokenizer); the
    config is `model.cfg`."""
    ckpt, cfg = _load_run_checkpoint(prepared, ckpt_path)
    model, tokenizer = _alignment_model(prepared, cfg)
    restore_into(model.store, ckpt)
    return model, tokenizer


def _fresh_ctr_model(prepared: Prepared, cfg: RunConfig):
    """Collaborative tower + CTR head on their own store. Uses the same rng
    streams as AlignmentModel, so arms with and without stage 1 share the
    tabular tower's initialization."""
    store = ParamStore()
    enc = CollaborativeEncoder(store, prepared.schema, cfg.model,
                               rng_for(cfg.seed, "collab"))
    head = CtrHead(store, enc.out_dim, rng_for(cfg.seed, "ctr"))
    return store, enc, head


def finetune_stage(prepared: Prepared, cfg: RunConfig, out_dir,
                   init_ckpt=None) -> "FinetuneResult":
    """Stage 2: supervised training of the collaborative tower and CTR head.
    `init_ckpt` warm-starts the tower from a stage-1 checkpoint; model.ckpt
    records the sha256 of the bytes it restored, not the file's path."""
    out = Path(out_dir)
    store, enc, head = _fresh_ctr_model(prepared, cfg)
    init_digest = ""
    if init_ckpt is not None:
        ckpt, init_cfg = _load_run_checkpoint(prepared, init_ckpt)
        init_digest = ckpt.sha256
        if init_cfg.model != cfg.model:
            raise UsageError(
                f"{init_ckpt}: tower settings in the checkpoint ({init_cfg.model}) "
                f"do not match the requested ones ({cfg.model})")
        restore_into(store, ckpt, "collab.")
    result = finetune(enc, head, prepared.train, prepared.val, cfg.finetune,
                      cfg.seed, history_path=out / "history.csv")
    save_checkpoint(out / "model.ckpt", store, prepared.hash, cfg.to_dict(),
                    extra={"stage": "finetune",
                           "init": init_digest,
                           "best_epoch": result.best_epoch,
                           "best_val_auc": result.best_val_auc,
                           "diverged": result.diverged})
    return result


def end_to_end_stage(prepared: Prepared, cfg: RunConfig,
                     out_dir) -> "FinetuneResult":
    """Single-stage arm: supervised loss plus weighted contrastive loss,
    trained jointly from scratch."""
    out = Path(out_dir)
    model, tokenizer = _alignment_model(prepared, cfg)
    head = CtrHead(model.store, model.collab.out_dim, rng_for(cfg.seed, "ctr"))
    result = end_to_end_train(model, head, prepared.train, prepared.val,
                              tokenizer, cfg.finetune, cfg.seed,
                              history_path=out / "history.csv")
    save_checkpoint(out / "model.ckpt", model.store, prepared.hash,
                    cfg.to_dict(),
                    extra={"stage": "end_to_end",
                           "lambda_ccl": cfg.finetune.lambda_ccl,
                           "best_epoch": result.best_epoch,
                           "best_val_auc": result.best_val_auc,
                           "diverged": result.diverged})
    return result


def evaluate_ckpt(prepared: Prepared, ckpt_path, split: str = "test",
                  report_path=None) -> EvalReport:
    """Deployment-style evaluation: only the collaborative tower and CTR head
    are rebuilt from the checkpoint; text-tower tensors are ignored."""
    ckpt, cfg = _load_run_checkpoint(prepared, ckpt_path)
    store, enc, head = _fresh_ctr_model(prepared, cfg)
    if not any(n.startswith(CtrHead.prefix) for n in ckpt.params):
        raise UsageError(f"{ckpt_path}: checkpoint has no CTR head "
                         f"({CtrHead.prefix}); is this a stage-1 checkpoint?")
    restore_into(store, ckpt)
    data = prepared.split(split)
    scores = predict_scores(enc, head, data)
    report = EvalReport(auc=auc(scores, data.labels),
                        logloss=logloss(scores, data.labels),
                        n_examples=data.n, seed=cfg.seed)
    if report_path is not None:
        write_json(report_path, report.to_json())
    return report


def _arm_config(arm: str, cfg: RunConfig) -> RunConfig:
    if arm == "cosine_sim":
        return replace(cfg, align=replace(cfg.align, similarity="cosine"))
    if arm == "ctrl":
        return replace(cfg, align=replace(cfg.align, similarity="maxsim"))
    return cfg


def run_arm(arm: str, prepared: Prepared, cfg: RunConfig, out_dir) -> EvalReport:
    """One ablation arm end to end; artifacts land under out_dir."""
    if arm not in ARM_NAMES:
        raise UsageError(f"unknown arm '{arm}', expected one of {ARM_NAMES}")
    arm_cfg = _arm_config(arm, cfg)
    out = Path(out_dir)
    if arm in ("ctrl", "cosine_sim"):
        align_stage(prepared, arm_cfg, out)
        finetune_stage(prepared, arm_cfg, out, init_ckpt=out / "align.ckpt")
    elif arm == "no_align":
        finetune_stage(prepared, arm_cfg, out)
    else:
        end_to_end_stage(prepared, arm_cfg, out)
    return evaluate_ckpt(prepared, out / "model.ckpt",
                         report_path=out / "report.json")


def run_ablation(prepared: Prepared, cfg: RunConfig, out_dir,
                 arms=ARM_NAMES) -> dict:
    """All requested arms with a shared stage-2 recipe; scores are reported
    as lift over the no-alignment baseline when it is present."""
    out = Path(out_dir)
    arms = tuple(arms)
    if not arms:
        raise UsageError(f"no arm to run; expected some of {ARM_NAMES}")
    for i, arm in enumerate(arms):
        if arm not in ARM_NAMES:
            raise UsageError(f"unknown arm '{arm}', expected one of {ARM_NAMES}")
        if arm in arms[:i]:
            raise UsageError(f"arm '{arm}' is listed more than once")
    reports = {arm: run_arm(arm, prepared, cfg, out / arm) for arm in arms}

    base = reports.get("no_align")
    rows = []
    for arm in arms:
        rep = reports[arm]
        rel = None
        if base is not None and arm != "no_align":
            if base.auc > 0.5:
                rel = relaimpr(rep.auc, base.auc)
            else:
                warnings.warn("baseline AUC is not above 0.5; lift over it "
                              "is undefined and left blank")
        rows.append({"arm": arm, "auc": rep.auc, "logloss": rep.logloss,
                     "relaimpr_vs_no_align_pct": rel})

    write_csv(out / "ablation.csv",
              ["arm", "auc", "logloss", "relaimpr_vs_no_align_pct"],
              ([r["arm"], repr(r["auc"]), repr(r["logloss"]),
                "" if r["relaimpr_vs_no_align_pct"] is None
                else repr(r["relaimpr_vs_no_align_pct"])] for r in rows))
    blob = {"seed": cfg.seed, "arms": rows}
    write_json(out / "ablation.json", json.dumps(blob, sort_keys=True, indent=2))
    return blob


def _sweep_cell(prepared: Prepared, cell_dir: str, cfg_dict: dict,
                tau: float, batch: int) -> dict:
    """One sweep cell, self-contained so it can run in a child process."""
    cfg = RunConfig.from_dict(cfg_dict)
    cfg = replace(cfg, align=replace(cfg.align, temperature=tau,
                                     batch_size=batch))
    arm = "ctrl" if cfg.align.similarity == "maxsim" else "cosine_sim"
    report = run_arm(arm, prepared, cfg, cell_dir)
    return {"tau": tau, "batch": batch,
            "auc": report.auc, "logloss": report.logloss}


def run_sweep(work_dir, cfg: RunConfig, taus, batch_sizes, out_dir,
              parallel: int = 1) -> tuple[list, list]:
    """Temperature x batch-size grid, each cell a full stage-1 + stage-2 run.

    Cells run in grid order (temperature outer loop). Failed cells are
    recorded and skipped rather than aborting the grid. Returns
    (rows, failures) and writes sweep.csv (+ sweep_failures.json if any).
    """
    if parallel < 1:
        raise UsageError("--parallel must be >= 1")
    out = Path(out_dir)
    grid = {}  # cell directory name -> (tau, batch)
    for tau in taus:
        for batch in batch_sizes:
            cell = (float(tau), int(batch))
            name = f"cell_tau{cell[0]:g}_bs{cell[1]}"
            if grid.get(name) == cell:
                warnings.warn(f"duplicate sweep cell (tau={cell[0]:g}, "
                              f"batch={cell[1]}) ignored")
                continue
            if name in grid:
                raise UsageError(f"sweep temperatures {grid[name][0]!r} and "
                                 f"{cell[0]!r} would share {name}")
            grid[name] = cell
    if not grid:
        raise UsageError("sweep grid is empty")

    _, prepared = load_prepared(work_dir)  # once, shared by every cell
    rows, failures = [], []
    workers = min(parallel, len(grid))
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        # Calling an entry returns its cell's row: a worker's future result,
        # or the cell run here when there is no pool.
        results = []
        for name, (tau, batch) in grid.items():
            args = (prepared, str(out / name), cfg.to_dict(), tau, batch)
            results.append(pool.submit(_sweep_cell, *args).result if pool
                           else partial(_sweep_cell, *args))
        for (tau, batch), result in zip(grid.values(), results):
            try:
                rows.append(result())
            except Exception as e:  # noqa: BLE001 - cell isolation
                failures.append({"tau": tau, "batch": batch,
                                 "error": f"{type(e).__name__}: {e}"})

    write_csv(out / "sweep.csv", ["tau", "batch", "auc", "logloss"],
              ([f"{r['tau']:g}", r["batch"], repr(r["auc"]),
                repr(r["logloss"])] for r in rows))
    if failures:
        warnings.warn(f"{len(failures)} sweep cell(s) failed; see "
                      f"{out / 'sweep_failures.json'}")
        write_json(out / "sweep_failures.json", json.dumps(failures, indent=2))
    return rows, failures
