"""The three benchmark workloads: set-up, one unit of work, output checks.

All three use the criterion-6 data and config of `tests/test_acceptance.py`
(20k synthetic rows, `dcn` tower, text tower d_model 32, maxsim M=4). The
workload seed is both the data seed and the config seed. Library calls go
through module attributes (`orchestrate.alignment_gap`, not a name imported
here), so a traced run sees them.

A unit is the operation a run repeats until its time is up:

- align-train: one `align.align_train` call, 2 epochs = 250 steps of 128.
- gap-score:   one `orchestrate.alignment_gap` call on the 2,000-row val split.
- finetune:    one `orchestrate.finetune_stage` (8 epochs, batch 256, lr 1e-2,
               patience 8) plus `orchestrate.evaluate_ckpt` on test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ctrl import align, orchestrate, synthetic
from ctrl.config import (AlignConfig, FinetuneConfig, ModelConfig, RunConfig,
                         TextConfig)
from ctrl.params import ParamStore

WORKLOADS = ("align-train", "gap-score", "finetune")
REFERENCES = Path(__file__).resolve().parent / "references.json"

ALIGN_EPOCHS = 2
FINETUNE_EPOCHS = 8

# Tolerances against recorded reference values, fixed before recording.
# They admit float64 reordering drift (a different BLAS blocking, a fused
# op), not a change in what is computed.
GAP_ATOL = 1e-9
LOSS_RTOL = 1e-6
AUC_ATOL = 1e-4
# The gap oracle recomputes the same sums in another order.
ORACLE_ATOL = 1e-12


def data_spec(seed: int) -> synthetic.SyntheticSpec:
    return synthetic.SyntheticSpec(n_rows=20000, n_fields=10, vocab_size=50,
                                   rule="logistic", flip_noise=0.15,
                                   seed=seed, history_len=3)


def run_config(seed: int) -> RunConfig:
    return RunConfig(
        seed=seed,
        model=ModelConfig(backbone="dcn", d=8, hidden=(64, 32), cross_layers=3),
        text=TextConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64,
                        max_tokens=96),
        align=AlignConfig(batch_size=128, epochs=ALIGN_EPOCHS, warmup_steps=20,
                          start_lr=1e-5, peak_lr=1e-3),
        finetune=FinetuneConfig(lr=1e-2, batch_size=256,
                                epochs=FINETUNE_EPOCHS,
                                patience=FINETUNE_EPOCHS),
    )


@dataclass
class State:
    """What set-up leaves for the units of one workload."""
    workload: str
    seed: int
    work: Path
    cfg: RunConfig
    prepared: orchestrate.Prepared
    tokenizer: object = None
    model: align.AlignmentModel = None
    init: tuple = None  # the model's freshly initialized parameters
    outputs: list = field(default_factory=list)  # one per unit


def setup(workload: str, seed: int, work: Path) -> State:
    """Data generation, `prepare_workdir`, and for the text-tower workloads
    tokenizer fit and model build."""
    cfg = run_config(seed)
    rows, schema, _ = synthetic.generate(data_spec(seed))
    prepared = orchestrate.prepare_workdir(work / "data", rows, schema, cfg)
    state = State(workload, seed, work, cfg, prepared)
    if workload != "finetune":
        state.tokenizer = orchestrate.fit_tokenizer(prepared, cfg)
        store = ParamStore()
        state.model = align.AlignmentModel(store, prepared.schema,
                                           state.tokenizer.vocab_size, cfg)
        state.init = store.snapshot()
    return state


def run_unit(state: State) -> int:
    """One unit of work; returns the rows it consumed or scored."""
    n = len(state.outputs)
    if state.workload == "align-train":
        state.model.store.restore(state.init)  # every unit trains from init
        res = align.align_train(state.model, state.prepared.train,
                                state.tokenizer, state.cfg.align, state.seed,
                                curve_path=state.work / f"curve{n}.csv")
        state.outputs.append(res)
        return res.steps * state.cfg.align.batch_size
    if state.workload == "gap-score":
        triple = orchestrate.alignment_gap(state.model, state.prepared.val,
                                           state.tokenizer,
                                           state.cfg.align.batch_size)
        state.outputs.append(triple)
        return state.prepared.val.n
    out = state.work / f"finetune{n}"
    res = orchestrate.finetune_stage(state.prepared, state.cfg, out)
    report = orchestrate.evaluate_ckpt(state.prepared, out / "model.ckpt")
    state.outputs.append((res, report))
    return len(res.history) * state.prepared.train.n


# -- output checks -------------------------------------------------------

def summary(state: State, i: int = 0) -> dict:
    """The checked output values of unit i, as recorded in references.json."""
    out = state.outputs[i]
    if state.workload == "align-train":
        return {"steps": out.steps, "diverged": out.diverged,
                "final_loss": out.curve[-1][2] if out.curve else None}
    if state.workload == "gap-score":
        return dict(zip(("paired", "unpaired", "gap"), out))
    res, report = out
    return {"epochs": len(res.history), "diverged": res.diverged,
            "test_auc": report.auc}


def load_reference(workload: str, seed: int):
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        refs = json.load(fh)
    return refs.get(workload, {}).get(str(seed))


def _gap_oracle(state: State) -> tuple:
    """The maxsim gap recomputed in plain numpy, block by block, from the
    tower outputs and the sub-space head weights."""
    model, cfg = state.model, state.cfg.align
    h_text, h_tab = orchestrate.tower_representations(
        model, state.prepared.val, state.tokenizer, cfg.batch_size)
    store, m = model.store, cfg.m_subspaces

    def subs(h, prefix):
        z = h @ store[f"{prefix}.w"].data + store[f"{prefix}.b"].data
        z = z.reshape(h.shape[0], m, -1)
        return z / np.linalg.norm(z, axis=2, keepdims=True)

    a, b = subs(h_text, "heads.text_sub"), subs(h_tab, "heads.tab_sub")
    n, d = a.shape[0], a.shape[2]
    b_flat = b.reshape(n * m, d).T
    trace, total = 0.0, 0.0
    for i0 in range(0, n, 250):
        blk = a[i0:i0 + 250]
        k = blk.shape[0]
        s = (blk.reshape(k * m, d) @ b_flat).reshape(k, m, n, m)
        s = s.max(axis=3).sum(axis=1) / m  # (k, n), rows = text
        total += s.sum()
        trace += np.trace(s[:, i0:i0 + k])
    paired = trace / n
    unpaired = (total - trace) / (n * (n - 1))
    return paired, unpaired, paired - unpaired


def check(state: State, reference=None) -> list:
    """Problems with the outputs of every unit run; empty when all pass.
    Every unit must equal the first (the library is deterministic), the
    first must pass the workload's invariants, and it must match
    `reference` (this seed's recorded values) when one is given."""
    if not state.outputs:
        return ["no unit completed"]
    problems = []
    first = summary(state)
    for i in range(1, len(state.outputs)):
        if summary(state, i) != first:
            problems.append(f"unit {i} differs from unit 0: "
                            f"{summary(state, i)} != {first}")
    if state.workload == "align-train":
        steps = ALIGN_EPOCHS * (state.prepared.train.n
                                // state.cfg.align.batch_size)
        curve = state.outputs[0].curve
        if first["steps"] != steps or first["diverged"]:
            problems.append(f"expected {steps} steps without divergence, "
                            f"got {first}")
        elif not all(math.isfinite(v) for row in curve for v in row[1:]):
            problems.append("non-finite value in the loss curve")
        elif not first["final_loss"] < curve[0][2]:
            problems.append(f"loss did not fall: {curve[0][2]} -> "
                            f"{first['final_loss']}")
    elif state.workload == "gap-score":
        oracle = _gap_oracle(state)
        got = state.outputs[0]
        if not all(abs(x - y) <= ORACLE_ATOL for x, y in zip(got, oracle)):
            problems.append(f"gap {got} differs from the numpy oracle {oracle}")
        if not all(-1.0 <= x <= 1.0 for x in got[:2]):
            problems.append(f"similarities outside [-1, 1]: {got}")
    else:
        if first["epochs"] != FINETUNE_EPOCHS or first["diverged"]:
            problems.append(f"expected {FINETUNE_EPOCHS} epochs without "
                            f"divergence, got {first}")
        if not first["test_auc"] > 0.5:
            problems.append(f"test AUC {first['test_auc']} is not above 0.5")

    if reference is not None:
        problems += _against_reference(first, reference)
    return problems


def _against_reference(got: dict, ref: dict) -> list:
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if key in ("paired", "unpaired", "gap"):
            ok = abs(have - want) <= GAP_ATOL
        elif key == "final_loss":
            ok = abs(have - want) <= LOSS_RTOL * abs(want)
        elif key == "test_auc":
            ok = abs(have - want) <= AUC_ATOL
        else:
            ok = have == want
        if not ok:
            problems.append(f"{key} = {have!r}, recorded {want!r}")
    return problems
