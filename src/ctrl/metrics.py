"""Evaluation metrics: AUC (rank-based, ties count half), logloss, and
relative improvement over a base run."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, UsageError

LOG_EPS = 1e-12


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UsageError(f"scores and labels must be equal-length 1-D arrays, "
                         f"got {scores.shape} and {labels.shape}")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise UsageError("labels must be 0 or 1")
    return scores, labels


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, with
    ties counted as half. Computed from average ranks; agrees exactly with
    brute-force pair counting (both numerators are multiples of 1/2)."""
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative label")
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    base_ranks = np.arange(1, s.size + 1, dtype=np.float64)
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    group_sums = np.bincount(inverse, weights=base_ranks)
    ranks = (group_sums / counts)[inverse]  # average rank within tie groups
    pos_rank_sum = ranks[labels[order] == 1.0].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores, labels) -> float:
    """Mean binary cross entropy with 1e-12 clamping inside the logs."""
    scores, labels = _check_scores_labels(scores, labels)
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise UsageError("scores must lie in [0, 1]")
    p = np.clip(scores, LOG_EPS, 1.0 - LOG_EPS)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def relaimpr(measured_auc: float, baseline_auc: float) -> float:
    """Relative improvement in percent over a baseline run, with 0.5 (random
    ranking) as the floor of both."""
    if baseline_auc <= 0.5:
        raise UsageError(f"base AUC must exceed 0.5, got {baseline_auc}")
    return ((measured_auc - 0.5) / (baseline_auc - 0.5) - 1.0) * 100.0


@dataclass(frozen=True)
class EvalReport:
    auc: float
    logloss: float
    n_examples: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.auc <= 1.0):
            raise UsageError(f"auc out of range: {self.auc}")
        if self.logloss < 0.0:
            raise UsageError(f"negative logloss: {self.logloss}")

    def to_json(self) -> str:
        payload = {"auc": self.auc, "logloss": self.logloss,
                   "n_examples": self.n_examples, "seed": self.seed}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def table(self) -> str:
        rows = [("auc", f"{self.auc:.6f}"),
                ("logloss", f"{self.logloss:.6f}"),
                ("n_examples", str(self.n_examples)),
                ("seed", str(self.seed))]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)
