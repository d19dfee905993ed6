"""Shared test oracles, kept independent of the code paths they check.

- finite-difference gradient checking (central differences, h=1e-6)
- brute-force pairwise AUC
- the alignment gap from the full all-pairs similarity matrix, and the
  all-pairs cosine matrix it uses for the cosine head
- the reverse sweep as written before leaf adjoints shared one accumulator
- the single-stage training loop as written before it was merged
- the engine compositions that attention and the maxsim op fused:
  one-direction late interaction and masked attention
- the late interaction kernel as one product against every sub-space,
  as written before it took one product per sub-space
- the pairwise late interaction and cosine scores of one row against one row
- layer and batch normalization forward passes as written before they
  reused the centered input (numpy's `var` recomputes the mean)
- the residual add and layer norm as two taped ops, as written before they
  were fused
- the mean contrastive loss over a split, in eval mode
- ops no model path records: softmax, slicing and negation, each one taped
  op
- the engine primitives that only composed oracles use, moved here from
  `ctrl.autodiff` as they were: sub, exp, log, mean, max (first maximum
  takes a tie) and logsumexp composed from them
- a schema's field by name
- the two row-range cuts that `data.row_tiles` replaced: eval-mode
  `batches` and viz's tiles, each as written before
- the field embeddings as one lookup per field and a taped masked mean per
  sequence field, binary cross entropy and InfoNCE composed from taped
  primitives, and AdamW updating one parameter at a time, each as written
  before it was fused into one op or one pass
- the digest that ends a checkpoint, for checkpoint bytes a test builds or
  rewrites
- the tokenizer fit on every rendered prompt of a split, as
  `fit_tokenizer` fit it before it walked each distinct cell once
"""

from __future__ import annotations

import hashlib

import numpy as np

import ctrl.autodiff as ad
from ctrl.autodiff import DTensor, Tape
from ctrl.exceptions import ShapeError

FD_H = 1e-6
FD_RTOL = 1e-4
# central differences cannot resolve differences below roundoff(f)/h
FD_ATOL = 1e-7


def numeric_grad(f, x: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x, coordinatewise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def check_grads(build_loss, leaves: dict[str, np.ndarray], rtol: float = FD_RTOL,
                h: float = FD_H, sample: int | None = None,
                rng: np.random.Generator | None = None) -> None:
    """Compare taped gradients of build_loss against central differences.

    ``build_loss`` receives {name: DTensor} and returns a scalar DTensor;
    ``leaves`` holds the arrays whose gradients are checked. ``sample``
    limits the number of coordinates checked per leaf.
    """
    tensors = {k: DTensor(v, requires_grad=True) for k, v in leaves.items()}
    with Tape() as tape:
        loss = build_loss(tensors)
    tape.backward(loss)
    analytic = {k: t.grad.copy() for k, t in tensors.items()}

    def eval_loss(arrays: dict[str, np.ndarray]) -> float:
        ts = {k: DTensor(v) for k, v in arrays.items()}
        return build_loss(ts).item()

    for name, base in leaves.items():
        base = np.asarray(base, dtype=np.float64)
        coords = np.arange(base.size)
        if sample is not None and base.size > sample:
            r = rng or np.random.default_rng(0)
            coords = r.choice(base.size, size=sample, replace=False)
        num = np.zeros(base.size)
        ana = analytic[name].reshape(-1)
        work = {k: v.copy() for k, v in leaves.items()}
        flat = work[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = eval_loss(work)
            flat[i] = orig - h
            fm = eval_loss(work)
            flat[i] = orig
            num[i] = (fp - fm) / (2.0 * h)
        picked_num = num[coords]
        picked_ana = ana[coords]
        scale = max(np.abs(picked_num).max(initial=0.0),
                    np.abs(picked_ana).max(initial=0.0), 1e-8)
        diff = np.abs(picked_ana - picked_num).max(initial=0.0)
        assert diff < FD_ATOL + rtol * scale, (
            f"gradient mismatch for '{name}': abs diff {diff:.3e}, "
            f"rel err {diff / scale:.3e} "
            f"(analytic {picked_ana[:4]}, numeric {picked_num[:4]})")


def auc_bruteforce(scores, labels) -> float:
    """O(P*N) pair counting: wins + half ties over all pos-neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative")
    diff = pos[:, None] - neg[None, :]
    wins = (diff > 0).sum()
    ties = (diff == 0).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def allpairs_gap(model, h_text, h_tab):
    """(paired, unpaired, gap) from the model head's full (N, N) similarity
    matrix, built through the engine with every row against every row."""
    a = model.cfg.align
    if a.similarity == "maxsim":
        scores = maxsim_matrix(model.text_sub(DTensor(h_text)),
                               model.tab_sub(DTensor(h_tab))).data
        scores = scores / a.m_subspaces
    else:
        scores = cosine_matrix(DTensor(h_text), DTensor(h_tab)).data
    n = scores.shape[0]
    paired = float(np.trace(scores) / n)
    unpaired = float((scores.sum() - np.trace(scores)) / (n * (n - 1)))
    return paired, unpaired, paired - unpaired


def cosine_matrix(h_a: DTensor, h_b: DTensor) -> DTensor:
    """All-pairs cosine of (N, d) rows against (Nb, d) rows, (N, Nb)."""
    a = ad.l2_normalize(h_a, axis=1)
    b = ad.l2_normalize(h_b, axis=1)
    return ad.matmul(a, ad.transpose(b, (1, 0)))


def reference_backward(tape: Tape, loss: DTensor) -> None:
    """`Tape.backward` as written before leaf adjoints shared the
    intermediates' accumulator: leaves are found in a pre-pass, zeroed, and
    summed into `grad` during the sweep. It reads the tape and leaves it
    whole. A node input is the index of the node that made it, the leaf
    itself, or None."""
    leaves, seen = [], set()
    for node in tape.nodes:
        for k in node.inputs:
            if isinstance(k, DTensor) and id(k) not in seen:
                seen.add(id(k))
                leaves.append(k)
    for t in leaves:
        t.grad = np.zeros_like(t.data)
    grads = {tape.key(loss): np.ones_like(loss.data)}
    for i in reversed(range(len(tape.nodes))):
        g = grads.pop(i, None)
        if g is None:
            continue
        for k, ig in zip(tape.nodes[i].inputs, tape.nodes[i].backward(g)):
            if ig is None or k is None:
                continue
            if isinstance(k, DTensor):
                k.grad = k.grad + ig
            else:
                acc = grads.get(k)
                grads[k] = ig if acc is None else acc + ig


def maxsim_matrix(subs_a: DTensor, subs_b: DTensor) -> DTensor:
    """One direction of all-pairs late interaction from the engine's
    primitives. subs_a, subs_b: (N, M, d). Returns (N, N) with rows indexed
    by subs_a."""
    n, m, d = subs_a.shape
    nb, mb, db = subs_b.shape
    if d != db:
        raise ShapeError("sub-representation widths differ")
    flat_a = ad.reshape(subs_a, (n * m, d))
    flat_b = ad.reshape(subs_b, (nb * mb, d))
    sims = ad.matmul(flat_a, ad.transpose(flat_b, (1, 0)))  # (n*m, nb*mb)
    sims = ad.reshape(sims, (n, m, nb, mb))
    best = max_(sims, axis=3)  # (n, m, nb)
    return ad.sum_(best, axis=1)  # (n, nb)


def one_product_late_interaction(a: np.ndarray, b: np.ndarray):
    """`align.late_interaction` from one (N·M, d)×(d, Nb·Mb) product and a
    max over the Mb axis of its (N, M, Nb, Mb) similarities. a: (N, M, d);
    b: (Nb, Mb, d). Returns the (N, Nb) scores."""
    n, m, d = a.shape
    nb, mb, _ = b.shape
    sims = a.reshape(n * m, d) @ b.reshape(nb * mb, d).T
    return sims.reshape(n, m, nb, mb).max(axis=3).sum(axis=1)


def maxsim(subs_i, subs_j) -> DTensor:
    """Late interaction score between two sub-representation sets (M_i, d) and
    (M_j, d): sum over rows of subs_i of the max inner product with subs_j."""
    a = subs_i if isinstance(subs_i, DTensor) else DTensor(subs_i)
    b = subs_j if isinstance(subs_j, DTensor) else DTensor(subs_j)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError("maxsim expects (M_i, d) and (M_j, d)")
    sims = ad.matmul(a, ad.transpose(b, (1, 0)))
    return ad.sum_(max_(sims, axis=1))


def cosine(h_i, h_j) -> DTensor:
    """Cosine similarity between two vectors; zero vectors score 0 (warned)."""
    a = h_i if isinstance(h_i, DTensor) else DTensor(h_i)
    b = h_j if isinstance(h_j, DTensor) else DTensor(h_j)
    an = ad.l2_normalize(ad.reshape(a, (1, a.data.size)), axis=1)
    bn = ad.l2_normalize(ad.reshape(b, (1, b.data.size)), axis=1)
    return ad.sum_(ad.mul(an, bn))


def reference_layer_norm(x, gamma, beta, eps: float = 1e-5) -> np.ndarray:
    """Layer normalization forward over the last axis, variance from
    `np.var`."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    return gamma * ((x - mu) / std) + beta


def composed_layer_norm(x: DTensor, f: DTensor, gamma: DTensor,
                        beta: DTensor) -> DTensor:
    """Layer norm of x + f as a taped `add` followed by a taped layer norm
    over the last axis."""
    s = ad.add(x, f)
    xc = s.data - s.data.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + 1e-5)
    xhat = xc / std
    out = gamma.data * xhat + beta.data

    def bwd(g):
        axes = tuple(range(s.ndim - 1))
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        dxhat = g * gamma.data
        dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / std
        return dx, dgamma, dbeta

    return ad.apply_op("layer_norm", (s, gamma, beta), out, bwd)


def reference_batch_norm(x, gamma, beta, running_mean, running_var,
                         train: bool, momentum: float = 0.9,
                         eps: float = 1e-5) -> np.ndarray:
    """Batch normalization forward over axis 0, variance from `np.var`;
    updates the running statistics in place in train mode."""
    if train:
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mu = running_mean
        var = running_var
    std = np.sqrt(var + eps)
    return gamma * ((x - mu) / std) + beta


def softmax(a: DTensor, axis: int = -1) -> DTensor:
    """Softmax along `axis` as one taped op."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return ad.apply_op("softmax", (a,), out, bwd)


def slice_(a: DTensor, key) -> DTensor:
    """`a.data[key]` as one taped op; the backward scatters the adjoint
    into zeros of `a`'s shape."""
    out = a.data[key]

    def bwd(g):
        z = np.zeros_like(a.data)
        np.add.at(z, key, g)
        return (z,)

    return ad.apply_op("slice", (a,), out, bwd)


def neg(a: DTensor) -> DTensor:
    """`-a` as one taped op."""
    return ad.apply_op("neg", (a,), -a.data, lambda g: (-g,))


def sub(a: DTensor, b: DTensor) -> DTensor:
    return ad._binary("sub", a, b, a.data - b.data, ad._same, np.negative)


def exp(a: DTensor) -> DTensor:
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return ad.apply_op("exp", (a,), out, bwd)


def log(a: DTensor) -> DTensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)

    def bwd(g):
        return (g / a.data,)

    return ad.apply_op("log", (a,), out, bwd)


def mean(a: DTensor) -> DTensor:
    """Mean over every element."""
    n, shape = a.size, a.shape
    out = a.data.mean()

    def bwd(g):
        return (np.broadcast_to(g, shape) / n,)

    return ad.apply_op("mean", (a,), out, bwd)


def max_(a: DTensor, axis: int, keepdims: bool = False) -> DTensor:
    out = a.data.max(axis=axis, keepdims=keepdims)

    def bwd(g):
        # Ties route the full gradient to the first maximal entry, which is
        # the one argmax picks. Built here so an untaped max never pays.
        first = np.zeros(a.shape, dtype=bool)
        np.put_along_axis(first, np.expand_dims(a.data.argmax(axis=axis), axis),
                          True, axis=axis)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (first * g,)

    return ad.apply_op("max", (a,), out, bwd)


def logsumexp(a: DTensor, axis: int) -> DTensor:
    """Numerically stable log-sum-exp, composed from taped primitives."""
    m = max_(a, axis=axis, keepdims=True)
    s = log(ad.sum_(exp(sub(a, m)), axis=axis, keepdims=True))
    out = ad.add(s, m)
    return ad.reshape(out, tuple(np.delete(out.shape, axis)))


def composed_infonce(s: DTensor, temperature: float) -> DTensor:
    """`align.infonce` as 12 taped primitives, as written before it was one
    op: the mean over rows of logsumexp(s/τ) minus the diagonal of s/τ."""
    n = s.shape[0]
    if n == 1:
        return DTensor(np.zeros(()))
    logits = ad.mul(s, DTensor(1.0 / temperature))
    lse = logsumexp(logits, axis=1)  # (N,)
    diag = ad.sum_(ad.mul(logits, DTensor(np.eye(n))), axis=1)
    return mean(sub(lse, diag))


def composed_field_embeddings(encoder, batch) -> DTensor:
    """`CollaborativeEncoder.field_embeddings` from the engine's primitives:
    one embedding lookup per field, a taped masked mean per sequence field,
    and a concat of the (N, d) fields into (N, F * d)."""
    out = []
    for f, cols in zip(encoder.schema.fields, columns(encoder.schema)):
        table = encoder.store[f"{encoder.prefix}.emb.{f.name}"]
        ids = batch.ids[:, cols]
        if f.kind == "categorical":
            out.append(ad.embedding_lookup(table, ids[:, 0]))
        else:
            mask = batch.valid[:, cols].astype(np.float64)
            n, length = ids.shape
            rows = ad.embedding_lookup(table, ids.reshape(-1))
            rows = ad.reshape(rows, (n, length, encoder.cfg.d))
            masked = ad.mul(rows, DTensor(mask[:, :, None]))
            summed = ad.sum_(masked, axis=1)
            count = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
            out.append(ad.div(summed, DTensor(count)))
    return ad.concat(out, axis=1)


def composed_bce(preds: DTensor, labels) -> DTensor:
    """Mean binary cross entropy clamped by 1e-12 through relu, as 14 taped
    primitives."""
    y = np.asarray(labels, dtype=np.float64)
    eps = DTensor(1e-12)
    log_p = log(ad.add(ad.relu(sub(preds, eps)), eps))
    one_minus = sub(DTensor(1.0), preds)
    log_q = log(ad.add(ad.relu(sub(one_minus, eps)), eps))
    terms = ad.add(ad.mul(DTensor(y), log_p),
                   ad.mul(DTensor(1.0 - y), log_q))
    return neg(mean(terms))


class ReferenceAdamW:
    """AdamW updating each parameter of `store` in sorted name order with its
    own moment arrays, replacing it with a new DTensor as it goes."""

    def __init__(self, store, weight_decay: float):
        self.store, self.weight_decay, self.t = store, weight_decay, 0
        self.names = store.names()
        self._m = {n: np.zeros(store[n].shape) for n in self.names}
        self._v = {n: np.zeros(store[n].shape) for n in self.names}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in self.names:
            p = self.store[name]
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            new = p.data - lr * (mhat / (np.sqrt(vhat) + 1e-8))
            if self.weight_decay:
                new = new - lr * self.weight_decay * p.data
            self.store.replace(name, DTensor(new, requires_grad=True))


def field(schema, name: str):
    """The FieldSpec called `name` in `schema`."""
    for f in schema.fields:
        if f.name == name:
            return f
    raise KeyError(name)


def eval_batch_cut(n: int, size: int) -> list:
    """Row ranges of eval-mode `data.batches` before `data.row_tiles`: the
    batch starts, less the last one when it would hold a single row."""
    starts = list(range(0, n, size))
    if n > size > 1 and n % size == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def viz_tile_cut(n: int, size: int) -> list:
    """Row ranges of viz's tiles before `data.row_tiles`: starts short of
    the last row, or one tile of all n."""
    starts = list(range(0, n - 1, size)) or [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def columns(schema) -> list:
    """Each field's slice of an encoded split's id columns, in schema order."""
    ends = np.cumsum(schema.widths)
    return [slice(int(e) - w, int(e)) for e, w in zip(ends, schema.widths)]


def field_ids(split, name: str):
    """(ids, valid) of the field called `name` in an encoded split, read
    through the schema's columns: (N,) for a categorical field, (N,
    max_seq_len) for a sequence field."""
    i = [f.name for f in split.schema.fields].index(name)
    cols = columns(split.schema)[i]
    ids, valid = split.ids[:, cols], split.valid[:, cols]
    if split.schema.fields[i].kind == "categorical":
        return ids[:, 0], valid[:, 0]
    return ids, valid


def composed_attention(q: DTensor, k: DTensor, v: DTensor,
                       additive_mask=None):
    """Scaled dot-product attention from the engine's primitives: matmul,
    scale, mask, softmax, matmul. Returns (context, weights), both taped."""
    d_head = q.shape[-1]
    axes = tuple(range(k.data.ndim - 2)) + (k.data.ndim - 1, k.data.ndim - 2)
    scores = ad.matmul(q, ad.transpose(k, axes))
    scores = ad.mul(scores, DTensor(1.0 / np.sqrt(d_head)))
    if additive_mask is not None:
        scores = ad.add(scores, DTensor(additive_mask))
    weights = softmax(scores, axis=scores.data.ndim - 1)
    return ad.matmul(weights, v), weights


def evaluate_ccl(model, split, tokenizer, cfg, seed: int = 0) -> float:
    """Mean contrastive loss over the split in eval mode (no updates)."""
    from ctrl.data import batches, epoch_seed
    from ctrl.prompt import build_prompt
    total, count = 0.0, 0
    for batch in batches(split, cfg.batch_size, "align", seed=epoch_seed(seed, 0)):
        prompts = [build_prompt(r, model.collab.schema, model.template)
                   for r in batch.raw_rows]
        ids, mask = tokenizer.encode_batch(prompts)
        loss, _, _ = model.ccl(batch, ids, mask, train=False)
        total += loss.item()
        count += 1
    assert count > 0, "split has fewer rows than one alignment batch"
    return total / count


def store_grad_check(store, forward, names=None, sample: int | None = 5,
                     rtol: float = FD_RTOL, rng=None) -> None:
    """FD-check a store-backed model: `forward()` must rebuild the scalar loss
    from the store's current parameter tensors on every call."""
    names = list(names) if names is not None else store.names()
    leaves = {n: np.asarray(store[n].data).copy() for n in names}

    def build(tensors):
        for n, t in tensors.items():
            store.replace(n, t)
        return forward()

    check_grads(build, leaves, rtol=rtol, sample=sample, rng=rng)


def tiny_run_config(seed: int = 0, backbone: str = "autoint",
                    similarity: str = "maxsim", dropout: float = 0.0,
                    **align_overrides):
    """A full RunConfig small enough for finite-difference checks."""
    from ctrl.config import (AlignConfig, FinetuneConfig, ModelConfig,
                             RunConfig, TextConfig)
    align_kwargs = dict(temperature=0.7, batch_size=4, similarity=similarity,
                        m_subspaces=2, d_proj=8, epochs=1, warmup_steps=4,
                        start_lr=1e-4, peak_lr=1e-3)
    align_kwargs.update(align_overrides)
    return RunConfig(
        seed=seed,
        model=ModelConfig(backbone=backbone, d=4, hidden=(8, 6),
                          attn_layers=1, attn_heads=2, attn_head_dim=3,
                          cross_layers=2, dropout=dropout),
        text=TextConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16,
                        max_tokens=32),
        align=AlignConfig(**align_kwargs),
        finetune=FinetuneConfig(lr=1e-3, batch_size=8, epochs=2, patience=2),
    )


def tiny_pipeline(seed: int = 0, backbone: str = "autoint",
                  similarity: str = "maxsim", n_rows: int = 24,
                  history_len: int = 2, dropout: float = 0.0,
                  **align_overrides):
    """Synthetic rows -> splits -> tokenizer -> AlignmentModel, all tiny.

    Returns (model, tokenizer, splits, cfg) where splits is
    (train, val, test) EncodedSplits.
    """
    from ctrl.align import AlignmentModel
    from ctrl.data import prepare_splits
    from ctrl.params import ParamStore
    from ctrl.synthetic import SyntheticSpec, generate

    rows, schema, _ = generate(SyntheticSpec(
        n_rows=n_rows, n_fields=2, vocab_size=3, rule="logistic",
        flip_noise=0.0, seed=seed, history_len=history_len))
    train, val, test, fitted = prepare_splits(rows, schema)
    cfg = tiny_run_config(seed=seed, backbone=backbone, similarity=similarity,
                          dropout=dropout, **align_overrides)
    store = ParamStore()
    model = AlignmentModel(store, fitted, vocab_size=64, cfg=cfg)
    tokenizer = fit_on_prompts(train.raw_rows, fitted, cfg)
    assert tokenizer.vocab_size <= 64
    return model, tokenizer, (train, val, test), cfg


def fit_on_prompts(rows, schema, cfg):
    """The Tokenizer fit on the prompt of every row in `rows`, rendered with
    `cfg`'s template and capped at its `text.max_tokens`."""
    from ctrl.prompt import Tokenizer, build_prompt, template_from
    template = template_from(cfg)
    return Tokenizer.fit([build_prompt(r, schema, template) for r in rows],
                         max_tokens=cfg.text.max_tokens)


def reference_end_to_end_train(model, head, train_split, val_split, tokenizer,
                               cfg, seed: int):
    """The single-stage loop as it was written before it shared fine-tuning's
    loop: its own epoch loop and its own copy of the contrastive objective.
    Returns (history, best_epoch, best_val_auc, diverged)."""
    import warnings

    import ctrl.autodiff as ad
    from ctrl.align import infonce
    from ctrl.data import batches
    from ctrl.exceptions import NumericError
    from ctrl.finetune import bce_loss, predict_scores
    from ctrl.metrics import auc, logloss
    from ctrl.optim import AdamW
    from ctrl.params import rng_for
    from ctrl.prompt import build_prompt

    store = model.store
    opt = AdamW(store, weight_decay=0.0)
    lam = cfg.lambda_ccl
    tau = model.cfg.align.temperature
    drop_rng = rng_for(seed, "finetune.dropout")
    history = []
    best = store.snapshot()
    best_auc, best_epoch, bad_epochs = -np.inf, -1, 0
    diverged = False
    encoder = model.collab
    for epoch in range(cfg.epochs):
        losses = []
        try:
            for batch in batches(train_split, cfg.batch_size, "train",
                                 seed=seed * 1_000_003 + epoch):
                prompts = [build_prompt(r, encoder.schema, model.template)
                           for r in batch.raw_rows]
                ids, mask = tokenizer.encode_batch(prompts)
                with Tape() as tape:
                    h_col = encoder(batch, train=True, rng=drop_rng)
                    preds = head(h_col)
                    l_ctr = bce_loss(preds, batch.labels)
                    h_tab = model.tab_proj(h_col)
                    h_text = model.text_proj(model.text(ids, mask))
                    s_text, s_tab = model.similarity_matrices(h_text, h_tab)
                    l_ccl = ad.mul(ad.add(infonce(s_text, tau),
                                          infonce(s_tab, tau)),
                                   DTensor(0.5))
                    loss = ad.add(l_ctr, ad.mul(DTensor(lam), l_ccl))
                tape.backward(loss)
                opt.step(cfg.lr)
                losses.append((loss.item(), l_ctr.item(), l_ccl.item()))
        except NumericError as e:
            warnings.warn(f"single-stage training diverged in epoch {epoch} "
                          f"({e}); restoring best state")
            diverged = True
            break
        val_scores = predict_scores(encoder, head, val_split)
        val_auc = auc(val_scores, val_split.labels)
        val_ll = logloss(val_scores, val_split.labels)
        mean_ctr = float(np.mean([l[1] for l in losses]))
        history.append((epoch, mean_ctr, val_auc, val_ll))
        if val_auc > best_auc:
            best_auc, best_epoch, bad_epochs = val_auc, epoch, 0
            best = store.snapshot()
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    store.restore(best)
    return history, best_epoch, float(best_auc), diverged


def sealed(body: bytes) -> bytes:
    """Checkpoint bytes a test built or rewrote, ended with the sha256 of
    all of them as `save_checkpoint` ends a file, so that loading them
    reaches the check the test is about instead of refusing the digest."""
    return body + hashlib.sha256(body).digest()
