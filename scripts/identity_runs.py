"""Write the byte-identity runs into fixed subdirectories of --out.

Every run uses the data and config of the determinism criterion
(`test_criterion_8_determinism_and_persistence` in tests/test_acceptance.py):
200 synthetic rows, seed 4, a small text tower, maxsim with M = 2.

- autoint-maxsim/, dcn-maxsim/, mlp-maxsim/, mlp-cosine/: prepare, align,
  fine-tune warm-started from align.ckpt, evaluate on test (report.json);
- end-to-end/: prepare, the single-stage arm at lambda_ccl = 0.5, evaluate;
- cli/: the same config through the `ctrl` command line, in process:
  gen-synthetic, prepare, align, ablate (no_align and cosine_sim), a 2 x 2
  sweep whose batch size of 1000 is larger than the train split, so two
  cells fail, dump-embeddings and project2d. This covers the files only the
  command line writes: meta.json, data.csv, ablation.csv/.json, sweep.csv,
  sweep_failures.json, embeddings.csv and projection.csv.

Run it at two commits into two directories, then compare them:

    python scripts/identity_runs.py --out /tmp/parent
    python scripts/identity_runs.py --out /tmp/change
    python scripts/diff_runs.py /tmp/parent /tmp/change
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from ctrl.cli import main as ctrl_main
from ctrl.config import (AlignConfig, FinetuneConfig, ModelConfig, RunConfig,
                         TextConfig, save_config)
from ctrl.orchestrate import (align_stage, end_to_end_stage, evaluate_ckpt,
                              finetune_stage, prepare_workdir)
from ctrl.synthetic import SyntheticSpec, generate

TWO_STAGE = (("autoint", "maxsim"), ("dcn", "maxsim"), ("mlp", "maxsim"),
             ("mlp", "cosine"))


def criterion_8_config() -> RunConfig:
    return RunConfig(
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


def cli_runs(out: Path, cfg: RunConfig) -> None:
    data, work = out / "data", out / "work"
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.json")
    commands = [
        ["gen-synthetic", "--out", data, "--rows", "200", "--fields", "4",
         "--vocab", "6", "--noise", "0.1", "--history", "2", "--seed", "3"],
        ["prepare", "--data", data / "data.csv", "--schema",
         data / "schema.json", "--config", out / "config.json",
         "--out", work],
        ["align", "--out", work],
        ["ablate", "--out", work, "--arms", "no_align,cosine_sim"],
        ["sweep", "--out", work, "--taus", "0.5,1.0",
         "--batch-sizes", "32,1000"],
        ["dump-embeddings", "--out", work],
        ["project2d", "--embeddings", work / "embeddings.csv"],
    ]
    for argv in commands:
        code = ctrl_main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"ctrl {argv[0]} exited {code}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    rows, schema, _ = generate(SyntheticSpec(n_rows=200, n_fields=4,
                                             vocab_size=6, rule="logistic",
                                             flip_noise=0.1, seed=3,
                                             history_len=2))
    base = criterion_8_config()
    for backbone, similarity in TWO_STAGE:
        t0 = time.perf_counter()
        cfg = replace(base, model=replace(base.model, backbone=backbone),
                      align=replace(base.align, similarity=similarity))
        d = args.out / f"{backbone}-{similarity}"
        prepared = prepare_workdir(d, rows, schema, cfg)
        align_stage(prepared, cfg, d)
        finetune_stage(prepared, cfg, d, init_ckpt=d / "align.ckpt")
        evaluate_ckpt(prepared, d / "model.ckpt", report_path=d / "report.json")
        print(f"{d.name}: {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    cfg = replace(base, finetune=replace(base.finetune, lambda_ccl=0.5))
    d = args.out / "end-to-end"
    prepared = prepare_workdir(d, rows, schema, cfg)
    end_to_end_stage(prepared, cfg, d)
    evaluate_ckpt(prepared, d / "model.ckpt", report_path=d / "report.json")
    print(f"{d.name}: {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    cli_runs(args.out / "cli", base)
    print(f"cli: {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
