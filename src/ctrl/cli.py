"""Command-line entry point.

Subcommands operate on a working directory created by `prepare` (or
`gen-synthetic` + `prepare`), so a full experiment reads:

    ctrl gen-synthetic --out data/ --rows 20000 --fields 10 --vocab 50
    ctrl prepare --data data/data.csv --schema data/schema.json --out run/
    ctrl align --out run/
    ctrl finetune --out run/ --init run/align.ckpt
    ctrl evaluate --out run/

Exit codes: 0 success, 1 bad usage, 2 unreadable/invalid data or
checkpoint, 3 numeric failure (non-finite loss).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .artifacts import write_json
from .config import BACKBONES, PROMPT_VARIANTS, SIMILARITIES, RunConfig, load_config
from .data import load_schema, read_csv_rows, save_schema, write_csv_rows
from .exceptions import (CheckpointError, DataError, NumericError, UsageError)
from .orchestrate import (ARM_NAMES, align_stage, evaluate_ckpt,
                          end_to_end_stage, finetune_stage,
                          load_alignment_model, load_prepared,
                          prepare_workdir, run_ablation, run_sweep)
from .synthetic import SyntheticSpec, generate
from .viz import (dump_embeddings, head_gap, project_2d, read_embeddings,
                  write_projection)

DEFAULT_TAUS = (0.1, 0.3, 0.7, 1.0, 2.0)
DEFAULT_SWEEP_BATCHES = (32, 128)


def _add_overrides(sp) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    sp.add_argument("--backbone", choices=BACKBONES, default=None,
                    help="override the tabular tower backbone")
    sp.add_argument("--prompt-variant", type=int, choices=PROMPT_VARIANTS,
                    default=None, help="override the prompt template variant")
    sp.add_argument("--similarity", choices=SIMILARITIES, default=None,
                    help="override the stage-1 similarity function")


def apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "backbone", None):
        cfg = replace(cfg, model=replace(cfg.model, backbone=args.backbone))
    if getattr(args, "prompt_variant", None) is not None:
        cfg = replace(cfg, prompt_variant=args.prompt_variant)
    if getattr(args, "similarity", None):
        cfg = replace(cfg, align=replace(cfg.align,
                                         similarity=args.similarity))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ctrl",
        description="Two-stage CTR training: contrastive text/tabular "
                    "alignment, then supervised fine-tuning.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="split a CSV and fit vocabularies")
    sp.add_argument("--data", required=True, help="raw interaction CSV")
    sp.add_argument("--schema", required=True, help="field schema JSON")
    sp.add_argument("--config", default=None,
                    help="run config JSON (defaults apply when omitted)")
    sp.add_argument("--out", required=True, help="working directory")
    _add_overrides(sp)

    sp = sub.add_parser("align", help="stage 1: contrastive tower alignment")
    sp.add_argument("--out", required=True, help="prepared working directory")
    _add_overrides(sp)

    sp = sub.add_parser("finetune", help="stage 2: supervised CTR training")
    sp.add_argument("--out", required=True, help="prepared working directory")
    sp.add_argument("--init", default=None,
                    help="stage-1 checkpoint to warm-start the tower from")
    sp.add_argument("--end-to-end", action="store_true",
                    help="train both objectives jointly instead of two stages")
    _add_overrides(sp)

    sp = sub.add_parser("evaluate", help="score a checkpoint on a split")
    sp.add_argument("--out", required=True, help="prepared working directory")
    sp.add_argument("--ckpt", default=None,
                    help="checkpoint path (default: OUT/model.ckpt)")
    sp.add_argument("--split", choices=("train", "val", "test"),
                    default="test")

    sp = sub.add_parser("ablate", help="run arms and compare against the "
                                       "no-alignment baseline")
    sp.add_argument("--out", required=True, help="prepared working directory")
    sp.add_argument("--arms", default=",".join(ARM_NAMES),
                    help=f"comma list from {ARM_NAMES}")
    _add_overrides(sp)

    sp = sub.add_parser("sweep", help="temperature x batch-size grid")
    sp.add_argument("--out", required=True, help="prepared working directory")
    sp.add_argument("--taus", default=",".join(str(t) for t in DEFAULT_TAUS),
                    help="comma list of stage-1 temperatures")
    sp.add_argument("--batch-sizes",
                    default=",".join(str(b) for b in DEFAULT_SWEEP_BATCHES),
                    help="comma list of stage-1 batch sizes")
    sp.add_argument("--parallel", type=int, default=1,
                    help="worker processes, at most one per grid cell")
    _add_overrides(sp)

    sp = sub.add_parser("dump-embeddings",
                        help="write both towers' projected representations")
    sp.add_argument("--out", required=True, help="prepared working directory")
    sp.add_argument("--ckpt", default=None,
                    help="stage-1 checkpoint (default: OUT/align.ckpt)")
    sp.add_argument("--split", choices=("train", "val", "test"),
                    default="test")
    sp.add_argument("--dest", default=None,
                    help="output CSV (default: OUT/embeddings.csv)")

    sp = sub.add_parser("project2d",
                        help="2-D PCA projection of an embedding dump")
    sp.add_argument("--embeddings", required=True, help="embedding dump CSV")
    sp.add_argument("--dest", default=None,
                    help="output CSV (default: alongside the dump)")

    sp = sub.add_parser("gen-synthetic", help="write a synthetic dataset")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--rows", type=int, default=1000)
    sp.add_argument("--fields", type=int, default=4)
    sp.add_argument("--vocab", type=int, default=8)
    sp.add_argument("--rule", choices=("xor", "logistic"), default="logistic")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="label flip probability")
    sp.add_argument("--history", type=int, default=0,
                    help="length of the behavior-sequence field (0 = none)")
    sp.add_argument("--seed", type=int, default=0)
    return p


def _load_workdir(args):
    cfg, prepared = load_prepared(args.out)
    return apply_overrides(cfg, args), prepared


def cmd_prepare(args) -> int:
    schema = load_schema(args.schema)
    rows = read_csv_rows(args.data, schema)
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg = apply_overrides(cfg, args)
    prepared = prepare_workdir(args.out, rows, schema, cfg)
    print(f"prepared {args.out}: train={prepared.train.n} "
          f"val={prepared.val.n} test={prepared.test.n}")
    return 0


def cmd_align(args) -> int:
    cfg, prepared = _load_workdir(args)
    summary = align_stage(prepared, cfg, args.out)
    loss = summary["final_loss"]
    loss_s = f"{loss:.4f}" if loss is not None else "-"
    print(f"aligned in {summary['steps']} steps; final loss {loss_s}; "
          f"{cfg.align.similarity} gap "
          f"{summary['pre_gap']:.4f} -> {summary['post_gap']:.4f}")
    if summary["diverged"]:
        print("alignment diverged; last good state was checkpointed",
              file=sys.stderr)
        return 3
    return 0


def cmd_finetune(args) -> int:
    cfg, prepared = _load_workdir(args)
    if args.end_to_end:
        if args.init:
            raise UsageError("--end-to-end trains from scratch; "
                             "--init is not applicable")
        result = end_to_end_stage(prepared, cfg, args.out)
    else:
        result = finetune_stage(prepared, cfg, args.out, init_ckpt=args.init)
    auc_s = "-" if result.best_val_auc is None else f"{result.best_val_auc:.4f}"
    print(f"best epoch {result.best_epoch}: val AUC {auc_s}")
    if result.diverged:
        stage = "single-stage training" if args.end_to_end else "fine-tuning"
        print(f"{stage} diverged; best earlier state was checkpointed",
              file=sys.stderr)
        return 3
    return 0


def cmd_evaluate(args) -> int:
    _, prepared = load_prepared(args.out)
    ckpt = args.ckpt or str(Path(args.out) / "model.ckpt")
    report = evaluate_ckpt(prepared, ckpt, split=args.split,
                           report_path=Path(args.out) / "report.json")
    print(report.table())
    return 0


def cmd_ablate(args) -> int:
    cfg, prepared = _load_workdir(args)
    arms = tuple(a.strip() for a in args.arms.split(",") if a.strip())
    blob = run_ablation(prepared, cfg, args.out, arms=arms)
    for row in blob["arms"]:
        rel = row["relaimpr_vs_no_align_pct"]
        rel_s = f"{rel:+.2f}%" if rel is not None else "-"
        print(f"{row['arm']:<12} auc {row['auc']:.4f}  "
              f"logloss {row['logloss']:.4f}  lift {rel_s}")
    return 0


def _parse_list(text: str, cast, flag: str) -> list:
    try:
        return [cast(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag}: expected a comma list of numbers, "
                         f"got {text!r}") from None


def cmd_sweep(args) -> int:
    cfg = apply_overrides(load_config(Path(args.out) / "config.json"), args)
    taus = _parse_list(args.taus, float, "--taus")
    batches = _parse_list(args.batch_sizes, int, "--batch-sizes")
    rows, failures = run_sweep(args.out, cfg, taus, batches,
                               Path(args.out) / "sweep",
                               parallel=args.parallel)
    for r in rows:
        print(f"tau {r['tau']:<4g} batch {r['batch']:<4d} "
              f"auc {r['auc']:.4f} logloss {r['logloss']:.4f}")
    if not rows:
        print("every sweep cell failed", file=sys.stderr)
        return 1
    return 0


def cmd_dump_embeddings(args) -> int:
    _, prepared = load_prepared(args.out)
    ckpt = args.ckpt or str(Path(args.out) / "align.ckpt")
    model, tokenizer = load_alignment_model(prepared, ckpt)
    cfg = model.cfg
    dest = args.dest or str(Path(args.out) / "embeddings.csv")
    h_text, h_tab = dump_embeddings(model, prepared.split(args.split),
                                    tokenizer, dest)
    paired, unpaired, gap = head_gap(model, h_text, h_tab, cfg.align.batch_size)
    print(f"wrote {dest}: {2 * h_tab.shape[0]} records; "
          f"{cfg.align.similarity} gap {gap!r} "
          f"(paired {paired:.4f}, unpaired {unpaired:.4f})")
    return 0


def cmd_project2d(args) -> int:
    _, _, vecs = read_embeddings(args.embeddings)
    coords, ratios, deficient = project_2d(vecs)
    dest = args.dest or str(Path(args.embeddings).with_name("projection.csv"))
    write_projection(coords, ratios, dest)
    note = " (rank deficient)" if deficient else ""
    print(f"wrote {dest}: explained variance "
          f"{ratios[0]:.3f}/{ratios[1]:.3f}{note}")
    return 0


def cmd_gen_synthetic(args) -> int:
    spec = SyntheticSpec(n_rows=args.rows, n_fields=args.fields,
                         vocab_size=args.vocab, rule=args.rule,
                         flip_noise=args.noise, seed=args.seed,
                         history_len=args.history)
    rows, schema, meta = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_rows(rows, schema, out / "data.csv")
    save_schema(schema, out / "schema.json")
    write_json(out / "meta.json", json.dumps(meta, sort_keys=True))
    print(f"wrote {out / 'data.csv'}: {meta['n_rows']} rows, "
          f"positive rate {meta['positive_rate']:.3f}, "
          f"best AUC {meta['best_auc']:g}")
    return 0


COMMANDS = {
    "prepare": cmd_prepare,
    "align": cmd_align,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "sweep": cmd_sweep,
    "dump-embeddings": cmd_dump_embeddings,
    "project2d": cmd_project2d,
    "gen-synthetic": cmd_gen_synthetic,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags and 0 on --help; fold into our codes
        return 0 if e.code == 0 else 1
    try:
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
