"""Tracing must not change what the library computes, and must leave no
wrapper behind. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctrl import align, orchestrate, synthetic  # noqa: E402
from ctrl.config import (AlignConfig, FinetuneConfig, ModelConfig,  # noqa: E402
                         RunConfig, TextConfig)
from ctrl.params import ParamStore  # noqa: E402

import tracer as tracing  # noqa: E402


def _small_run(out: Path, tr=None) -> None:
    """Stage 1 on a small split, then stage 2 and evaluation, optionally
    under a tracer."""
    rows, schema, _ = synthetic.generate(synthetic.SyntheticSpec(
        n_rows=400, n_fields=4, vocab_size=8, rule="logistic",
        flip_noise=0.1, seed=3, history_len=2))
    cfg = RunConfig(
        seed=1,
        model=ModelConfig(backbone="dcn", d=4, hidden=(8,), cross_layers=1),
        text=TextConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16,
                        max_tokens=32),
        align=AlignConfig(batch_size=32, epochs=2, warmup_steps=2,
                          d_proj=8, m_subspaces=2),
        finetune=FinetuneConfig(lr=1e-2, batch_size=64, epochs=2, patience=2),
    )
    prepared = orchestrate.prepare_workdir(out / "data", rows, schema, cfg)
    tok = orchestrate.fit_tokenizer(prepared, cfg)
    model = align.AlignmentModel(ParamStore(), prepared.schema,
                                 tok.vocab_size, cfg)

    def stages():
        align.align_train(model, prepared.train, tok, cfg.align, cfg.seed,
                          curve_path=out / "curve.csv")
        orchestrate.alignment_gap(model, prepared.val, tok)
        orchestrate.finetune_stage(prepared, cfg, out)
        orchestrate.evaluate_ckpt(prepared, out / "model.ckpt")

    if tr is None:
        stages()
    else:
        with tr.installed():
            stages()


def _targets():
    """Every (owner, attribute) the tracer patches, with its original."""
    found = {}
    for _, mod_name, name in tracing.FUNCTIONS:
        original = getattr(sys.modules[mod_name], name)
        for mod in tracing.ctrl_modules():
            for attr, val in vars(mod).items():
                if val is original:
                    found[(mod.__name__, attr)] = original
    for _, mod_name, cls_name, meth in tracing.METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        found[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return found


def test_tracing_keeps_artifacts_byte_identical_and_restores(tmp_path):
    before = _targets()
    # functions are looked up where they are imported, not only where defined
    assert ("ctrl.align", "build_prompt") in before
    assert ("ctrl.viz", "build_prompt") in before
    assert ("ctrl.orchestrate", "tower_representations") in before
    assert ("ctrl.finetune", "batches") in before

    _small_run(tmp_path / "plain")
    tr = tracing.Tracer()
    _small_run(tmp_path / "traced", tr)

    for name in ("curve.csv", "history.csv", "model.ckpt"):
        plain = (tmp_path / "plain" / name).read_bytes()
        assert plain == (tmp_path / "traced" / name).read_bytes(), name

    assert tracing.leftover_wrappers() == []
    assert _targets() == before

    m = tr.metrics(units=1)
    for layer in ("data.batch", "prompt.render", "prompt.encode",
                  "encoders.text", "encoders.collab", "align.forward",
                  "align.sim", "align.infonce", "autodiff.backward",
                  "optim.step", "params.snapshot", "viz.represent",
                  "orchestrate.gap", "finetune.predict", "finetune.bce",
                  "metrics.auc", "checkpoint.save", "checkpoint.load"):
        assert m[f"{layer}.calls"]["value"] > 0, layer
        assert 0 <= m[f"{layer}.self_ms"]["value"] \
            <= m[f"{layer}.total_ms"]["value"] + 1e-9, layer
    # 320 train rows: 2 align epochs of 10 steps, 2 finetune epochs of 5
    assert m["step.calls"]["value"] == 30
    assert m["autodiff.tape_nodes"]["value"] > 0
    assert m["checkpoint.bytes"]["value"] > 0
    assert 0 < m["prompt.render_reuse"]["value"] < 1


def test_traced_metrics_match_the_benchmark_definition():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    produced = {k: v["unit"] for k, v in tracing.Tracer().metrics(1).items()}
    produced["traced.rows_per_s"] = "1/s"
    produced["traced.peak_rss_mb"] = "MB"
    assert produced == declared
