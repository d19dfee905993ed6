"""Stage 2: supervised CTR training of the collaborative tower.

Only the collaborative encoder and a freshly initialized linear+sigmoid head
are trained and deployed; the text tower is not needed here. The single-stage
variant (end_to_end_train) instead minimizes the supervised loss plus a
weighted contrastive term with the text tower attached.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .artifacts import write_csv
from .autodiff import DTensor
from .config import FinetuneConfig
from .data import EncodedSplit, batches, epoch_seed
from .encoders import CollaborativeEncoder, Linear
from .exceptions import NumericError, UsageError
from .metrics import LOG_EPS, auc, logloss
from .optim import AdamW
from .params import ParamStore, rng_for
from .prompt import build_prompt


class CtrHead:
    """Randomly initialized linear layer to one logit, plus sigmoid."""

    prefix = "ctr.out"

    def __init__(self, store: ParamStore, d_in: int, rng):
        self.lin = Linear(store, self.prefix, d_in, 1, rng)

    def __call__(self, h: DTensor) -> DTensor:
        logits = self.lin(h)
        return ad.sigmoid(ad.reshape(logits, (h.shape[0],)))


def bce_loss(preds: DTensor, labels) -> DTensor:
    """Mean binary cross entropy. Probabilities are clamped away from 0 and 1
    by 1e-12 using relu (gradients are exact inside the clamp range). One
    taped op, with the float operations of the composed primitives' chain."""
    y = np.asarray(labels, dtype=np.float64)
    if preds.shape != y.shape:
        raise UsageError(f"preds shape {preds.shape} != labels shape {y.shape}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise UsageError("labels must be 0 or 1")
    if preds.data.min() < 0.0 or preds.data.max() > 1.0:
        raise UsageError("predictions must lie in [0, 1]")
    p_in, q_in = preds.data - LOG_EPS, (1.0 - preds.data) - LOG_EPS
    p_clamped, q_clamped = (np.maximum(p_in, 0.0) + LOG_EPS,
                            np.maximum(q_in, 0.0) + LOG_EPS)
    terms = y * np.log(p_clamped) + (1.0 - y) * np.log(q_clamped)

    def bwd(g):
        g = np.broadcast_to(-g, y.shape) / y.size
        return ((g * y / p_clamped) * (p_in > 0.0)
                - (g * (1.0 - y) / q_clamped) * (q_in > 0.0),)

    return ad.apply_op("bce", (preds,), -terms.mean(), bwd)


def predict_scores(encoder: CollaborativeEncoder, head: CtrHead,
                   split: EncodedSplit, batch_size: int = 4096) -> np.ndarray:
    out = []
    for batch in batches(split, batch_size, "eval"):
        out.append(ad.run_pass(lambda: head(encoder(batch, train=False))).data)
    return np.concatenate(out)


@dataclass
class FinetuneResult:
    history: list  # rows of (epoch, train_loss, val_auc, val_logloss)
    best_epoch: int
    best_val_auc: float | None  # None when no epoch completed
    diverged: bool


def write_history(history, path) -> None:
    write_csv(path, ["epoch", "train_loss", "val_auc", "val_logloss"],
              ([row[0]] + [repr(float(v)) for v in row[1:]] for row in history))


def _train(opt: AdamW, batch_loss, encoder, head: CtrHead,
           train_split: EncodedSplit, val_split: EncodedSplit,
           cfg: FinetuneConfig, seed: int, label: str,
           history_path=None) -> FinetuneResult:
    """The supervised loop: one taped step of `batch_loss(batch, dropout_rng)
    -> (loss to minimize, supervised loss to record)` per shuffled batch,
    validation AUC/logloss of `head(encoder(.))` after every epoch, early
    stopping on AUC. The best-epoch state of `opt.store` is restored before
    returning; a non-finite step stops training."""
    store = opt.store
    drop_rng = rng_for(seed, "finetune.dropout")
    history = []
    best = store.snapshot()
    best_auc, best_epoch, bad_epochs = -np.inf, -1, 0
    diverged = False
    for epoch in range(cfg.epochs):
        losses = []
        try:
            for batch in batches(train_split, cfg.batch_size, "train",
                                 seed=epoch_seed(seed, epoch)):
                _, supervised = opt.minimize(
                    cfg.lr, lambda: batch_loss(batch, drop_rng), drop_rng)
                losses.append(supervised.item())
        except NumericError as e:
            warnings.warn(f"{label} diverged in epoch {epoch} ({e}); "
                          "restoring best state")
            diverged = True
            break
        val_scores = predict_scores(encoder, head, val_split)
        val_auc = auc(val_scores, val_split.labels)
        val_ll = logloss(val_scores, val_split.labels)
        history.append((epoch, float(np.mean(losses)), val_auc, val_ll))
        if val_auc > best_auc:
            best_auc, best_epoch, bad_epochs = val_auc, epoch, 0
            best = store.snapshot()
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    store.restore(best)
    if history_path is not None:
        write_history(history, history_path)
    return FinetuneResult(history=history, best_epoch=best_epoch,
                          best_val_auc=float(best_auc) if history else None,
                          diverged=diverged)


def finetune(encoder: CollaborativeEncoder, head: CtrHead,
             train_split: EncodedSplit, val_split: EncodedSplit,
             cfg: FinetuneConfig, seed: int,
             history_path=None) -> FinetuneResult:
    """Adam over encoder + head parameters with early stopping on validation
    AUC; the best-epoch parameter state is restored before returning."""
    store = encoder.store
    names = encoder.param_names() + [n for n in store.names()
                                     if n.startswith(head.prefix)]
    opt = AdamW(store, names=names, weight_decay=0.0)

    def batch_loss(batch, rng):
        preds = head(encoder(batch, train=True, rng=rng))
        loss = bce_loss(preds, batch.labels)
        return loss, loss

    return _train(opt, batch_loss, encoder, head, train_split, val_split,
                  cfg, seed, "fine-tuning", history_path)


def end_to_end_train(model, head: CtrHead, train_split: EncodedSplit,
                     val_split: EncodedSplit, tokenizer, cfg: FinetuneConfig,
                     seed: int, history_path=None) -> FinetuneResult:
    """Single-stage variant: minimize supervised loss + lambda * contrastive
    loss jointly over both towers and all heads. With lambda = 0 the
    supervised trajectory matches plain fine-tuning step for step."""
    encoder = model.collab

    def batch_loss(batch, rng):
        prompts = [build_prompt(r, encoder.schema, model.template)
                   for r in batch.raw_rows]
        ids, mask = tokenizer.encode_batch(prompts)
        h_col = encoder(batch, train=True, rng=rng)
        l_ctr = bce_loss(head(h_col), batch.labels)
        l_ccl = model.ccl(batch, ids, mask, h_col=h_col)[0]
        loss = ad.add(l_ctr, ad.mul(DTensor(cfg.lambda_ccl), l_ccl))
        return loss, l_ctr

    opt = AdamW(model.store, weight_decay=0.0)
    return _train(opt, batch_loss, encoder, head, train_split, val_split,
                  cfg, seed, "single-stage training", history_path)
