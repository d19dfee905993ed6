"""Deterministic synthetic CTR datasets with a computable best-case AUC.

Two label rules:

  xor       two binary fields (one user-side, one item-side); the clean label
            is their XOR. Balanced by construction, so with flip noise p the
            best achievable AUC is exactly 1 - p.
  logistic  k fields with vocab V; each (field, value) carries a latent
            normal score and the clean label is the sign of the summed
            user-item interaction products over field pairs (0,1), (2,3), ...
            Near-balanced, so 1 - p approximates the best AUC.

Label noise flips the clean label independently with probability p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSchema, FieldSpec
from .exceptions import UsageError
from .params import rng_for

RULES = ("xor", "logistic")


@dataclass(frozen=True)
class SyntheticSpec:
    n_rows: int = 1000
    n_fields: int = 4
    vocab_size: int = 8
    rule: str = "logistic"
    flip_noise: float = 0.0
    seed: int = 0
    history_len: int = 0  # > 0 adds a user-side behavior sequence field

    def __post_init__(self):
        if self.rule not in RULES:
            raise UsageError(f"rule must be one of {RULES}")
        if self.n_rows < 10:
            raise UsageError("n_rows must be >= 10")
        if not (0.0 <= self.flip_noise < 0.5):
            raise UsageError("flip_noise must be in [0, 0.5)")
        if self.rule == "xor":
            if self.n_fields != 2:
                raise UsageError("xor rule uses exactly 2 fields")
        else:
            if self.n_fields < 2 or self.n_fields % 2 != 0:
                raise UsageError("logistic rule needs an even field count >= 2")
        if self.vocab_size < 2:
            raise UsageError("vocab_size must be >= 2")
        if self.history_len < 0:
            raise UsageError("history_len must be >= 0")


def _field_name(i: int) -> str:
    return f"f{i}"


def synthetic_schema(spec: SyntheticSpec) -> FeatureSchema:
    """Even-indexed fields are user-side, odd item-side, so the label rule's
    (0,1), (2,3), ... pairs are user-item interactions."""
    fields = []
    for i in range(spec.n_fields):
        side = "user" if i % 2 == 0 else "item"
        fields.append(FieldSpec(_field_name(i), "categorical", side))
    if spec.history_len > 0:
        fields.append(FieldSpec("history", "sequence", "user",
                                seq_phrase="who has recently used"))
    return FeatureSchema(fields=tuple(fields))


def generate(spec: SyntheticSpec):
    """Returns (rows, schema, meta). Rows carry string cells plus integer
    label and timestamp; same spec -> identical rows.

    Every row's keys come from one list of field names, and every categorical
    cell holding a value is one string object: a split keeps its rows for the
    whole process, so a fresh string per key and cell would be held that
    long."""
    rng = rng_for(spec.seed, "synthetic.values")
    flip_rng = rng_for(spec.seed, "synthetic.flips")
    vocab = 2 if spec.rule == "xor" else spec.vocab_size
    values = rng.integers(0, vocab, size=(spec.n_rows, spec.n_fields))

    if spec.rule == "xor":
        clean = (values[:, 0] != values[:, 1]).astype(np.int64)
    else:
        latent_rng = rng_for(spec.seed, "synthetic.latent")
        latents = latent_rng.normal(size=(spec.n_fields, vocab))
        score = np.zeros(spec.n_rows)
        for a in range(0, spec.n_fields - 1, 2):
            score += latents[a, values[:, a]] * latents[a + 1, values[:, a + 1]]
        clean = (score > 0).astype(np.int64)

    flips = flip_rng.random(spec.n_rows) < spec.flip_noise
    labels = np.where(flips, 1 - clean, clean)

    history = None
    if spec.history_len > 0:
        hist_rng = rng_for(spec.seed, "synthetic.history")
        history = hist_rng.integers(0, vocab,
                                    size=(spec.n_rows, spec.history_len))

    names = [_field_name(j) for j in range(spec.n_fields)]
    cells = [f"v{v}" for v in range(vocab)]
    rows = []
    # one row's values at a time: whole-array lists, built and freed among
    # the rows, left perfbench's peak RSS ~4 MB higher
    for i in range(spec.n_rows):
        row = {name: cells[v] for name, v in zip(names, values[i].tolist())}
        if history is not None:
            row["history"] = "|".join(cells[h] for h in history[i].tolist())
        row["label"] = int(labels[i])
        row["timestamp"] = i
        rows.append(row)

    meta = {
        "rule": spec.rule,
        "n_rows": spec.n_rows,
        "flip_noise": spec.flip_noise,
        "best_auc": 1.0 - spec.flip_noise,
        "best_auc_exact": spec.rule == "xor",  # logistic rule is near-balanced
        "positive_rate": float(labels.mean()),
        "seed": spec.seed,
    }
    return rows, synthetic_schema(spec), meta
