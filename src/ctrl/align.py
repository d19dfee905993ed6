"""Stage 1: cross-modal contrastive alignment of the two towers.

Each tower's output is projected to a shared width, and a sub-space head
turns each projected row into M sub-representations. Similarity between a
text row and a tabular row is their late interaction score: the sum over one
side's sub-representations of the maximum inner product against the other
side's (asymmetric by construction). Cosine is late interaction over one
unit sub-space (M = 1), the parameter-free head `unit_rows`. The training
loss is the mean of the two directional InfoNCE losses over the in-batch
similarity matrix, diagonal = positive pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .artifacts import write_csv
from .autodiff import DTensor
from .config import AlignConfig, RunConfig
from .data import EncodedSplit, batches, epoch_seed
from .encoders import CollaborativeEncoder, Linear, TextEncoder
from .exceptions import NumericError, ShapeError, UsageError
from .optim import AdamW
from .params import ParamStore, rng_for
from .prompt import Tokenizer, build_prompt, template_from


class SubspaceHead:
    """M affine maps to width d_sub = d_proj / M, stored as one matrix.
    Sub-representations are L2-normalized, as ColBERT's are, which bounds
    the late interaction score in [-M, M] and decouples it from
    representation scale."""

    def __init__(self, store, prefix, d_proj, m, rng):
        if m < 1:
            raise UsageError("m_subspaces must be >= 1")
        if d_proj % m != 0:
            raise UsageError("m_subspaces must divide d_proj")
        self.m = m
        self.d_sub = d_proj // m
        self.lin = Linear(store, prefix, d_proj, m * self.d_sub, rng)

    def __call__(self, h: DTensor) -> DTensor:
        z = ad.reshape(self.lin(h), (h.shape[0], self.m, self.d_sub))
        return ad.l2_normalize(z, axis=2)


def late_interaction(a: np.ndarray, b: np.ndarray):
    """The maxsim scores on plain arrays, untaped. a: (N, M, d); b: (Nb, Mb,
    d). Returns the (N, Nb) scores, the sum over M of the best inner product
    over Mb. It takes one (N·M, d)×(d, Nb) product per sub-space r of b and
    folds each into a running elementwise maximum, in order of r, so its
    working set is two (N·M, Nb) blocks: it never forms the (N, M, Mb, Nb)
    similarities."""
    n, m, d = a.shape
    a2 = a.reshape(n * m, d)
    best = a2 @ b[:, 0].T
    block = np.empty_like(best)
    for r in range(1, b.shape[1]):
        np.maximum(best, np.matmul(a2, b[:, r].T, out=block), out=best)
    return best.reshape(n, m, -1).sum(axis=1)


def maxsim(subs_a: DTensor, subs_b: DTensor) -> DTensor:
    """All-pairs late interaction scores of subs_a: (N, M, d) against
    subs_b: (Nb, Mb, d), (N, Nb) with rows indexed by subs_a, the bits of
    `late_interaction`. Only the index of the first sub-space reaching each
    best match, the one argmax picks, stays on the tape (in the narrowest
    dtype that holds Mb - 1); the backward takes two products per sub-space
    on it."""
    n, m, d = subs_a.shape
    nb, mb, db = subs_b.shape
    if d != db:
        raise ShapeError("sub-representation widths differ")
    a2, b = subs_a.data.reshape(n * m, d), subs_b.data
    best = a2 @ b[:, 0].T
    block = np.empty_like(best)
    first = np.zeros(best.shape, dtype=np.min_scalar_type(mb - 1))
    gain = np.empty(best.shape, dtype=bool)
    for r in range(1, mb):
        np.matmul(a2, b[:, r].T, out=block)
        np.greater(block, best, out=gain)
        np.maximum(best, block, out=best)
        # r only grows, so the latest gain holds the first maximal index
        np.maximum(first, gain * first.dtype.type(r), out=first)
    scores = best.reshape(n, m, nb).sum(axis=1)

    def bwd(g):
        hits = first.reshape(n, m, nb)
        ga, gb = np.zeros((n * m, d)), np.empty((nb, mb, d))
        for r in range(mb):
            gs = np.where(hits == r, g[:, None], 0.0).reshape(n * m, nb)
            ga += gs @ b[:, r]
            gb[:, r] = gs.T @ a2
        return ga.reshape(n, m, d), gb

    return ad.apply_op("maxsim", (subs_a, subs_b), scores, bwd)


def unit_rows(h: DTensor) -> DTensor:
    """The cosine head: each (N, d) row as one unit-norm sub-representation,
    (N, 1, d). It has no parameters."""
    return ad.l2_normalize(ad.reshape(h, (h.shape[0], 1, h.shape[1])), axis=2)


def infonce(s: DTensor, temperature: float) -> DTensor:
    """Softmax cross-entropy over one direction of the similarity matrix, as
    one op. Rows are anchors; the diagonal holds the positive pairs. Forward
    and adjoint (softmax minus identity, over N·τ) repeat in order the float
    operations of the chain mean(logsumexp(s/τ) - diag(s/τ)), whose
    logsumexp shifts each row by its first maximum, and keep its bits."""
    if temperature <= 0:
        raise UsageError("temperature must be > 0")
    if s.data.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"similarity matrix must be square, got {s.shape}")
    n = s.shape[0]
    if n == 1:
        return DTensor(np.zeros(()))
    scale = 1.0 / temperature
    logits = s.data * scale
    first = logits.argmax(axis=1)[:, None]
    m = np.take_along_axis(logits, first, axis=1)
    e = np.exp(logits - m)
    total = e.sum(axis=1, keepdims=True)
    loss = ((np.log(total) + m).reshape(n) - logits.diagonal()).mean()

    def bwd(g):
        gd = np.broadcast_to(g, (n,)) / n  # mean
        gl = e * (gd[:, None] / total)  # log, sum, exp
        gm = gd[:, None] - gl.sum(axis=1, keepdims=True)  # into the row max
        # the diagonal term; off the diagonal the chain adds (-g/n)·0, which
        # changes no bit when g >= 0, as a loss's adjoint is
        gl.flat[::n + 1] -= gd
        gl[np.arange(n)[:, None], first] += gm  # ties: the first maximum
        gl *= scale
        return (gl,)

    return ad.apply_op("infonce", (s,), loss, bwd)


class AlignmentModel:
    """Both towers plus projection and sub-space heads, sharing one
    ParamStore. The similarity setting only picks the sub-space heads."""

    def __init__(self, store: ParamStore, schema, vocab_size: int,
                 cfg: RunConfig):
        a = cfg.align
        self.cfg = cfg
        self.store = store
        self.template = template_from(cfg)
        self.collab = CollaborativeEncoder(store, schema, cfg.model,
                                           rng_for(cfg.seed, "collab"))
        self.text = TextEncoder(store, vocab_size, cfg.text,
                                rng_for(cfg.seed, "text"))
        self.tab_proj = Linear(store, "heads.tab_proj",
                               self.collab.out_dim, a.d_proj,
                               rng_for(cfg.seed, "heads.tab_proj"))
        self.text_proj = Linear(store, "heads.text_proj",
                                self.text.out_dim, a.d_proj,
                                rng_for(cfg.seed, "heads.text_proj"))
        if a.similarity == "maxsim":
            self.tab_sub = SubspaceHead(store, "heads.tab_sub", a.d_proj,
                                        a.m_subspaces,
                                        rng_for(cfg.seed, "heads.tab_sub"))
            self.text_sub = SubspaceHead(store, "heads.text_sub", a.d_proj,
                                         a.m_subspaces,
                                         rng_for(cfg.seed, "heads.text_sub"))
        else:
            self.tab_sub = self.text_sub = unit_rows

    def projected(self, batch, token_ids, mask, train: bool = False,
                  h_col: DTensor = None):
        if h_col is None:
            h_col = self.collab(batch, train=train)
        h_tab = self.tab_proj(h_col)
        h_text = self.text_proj(self.text(token_ids, mask))
        return h_text, h_tab

    def similarity_matrices(self, h_text: DTensor, h_tab: DTensor):
        """Returns (rows=text matrix, rows=tabular matrix)."""
        text, tab = self.text_sub(h_text), self.tab_sub(h_tab)
        return maxsim(text, tab), maxsim(tab, text)

    def ccl(self, batch, token_ids, mask, train: bool = False,
            h_col: DTensor = None):
        """Returns (loss, text-to-tabular term, tabular-to-text term).
        `h_col` is the collaborative tower's output for `batch` when the
        caller has already computed it; the tower is not run again."""
        h_text, h_tab = self.projected(batch, token_ids, mask, train=train,
                                       h_col=h_col)
        s_text, s_tab = self.similarity_matrices(h_text, h_tab)
        tau = self.cfg.align.temperature
        l_t2t = infonce(s_text, tau)
        l_tab2text = infonce(s_tab, tau)
        loss = ad.mul(ad.add(l_t2t, l_tab2text), DTensor(0.5))
        return loss, l_t2t, l_tab2text


@dataclass
class AlignResult:
    curve: list  # rows of (step, lr, loss, l_t2t, l_tab2text)
    steps: int
    diverged: bool


def write_curve(curve, path) -> None:
    write_csv(path, ["step", "lr", "loss", "l_t2t", "l_tab2text"],
              ([row[0]] + [repr(float(v)) for v in row[1:]] for row in curve))


def align_train(model: AlignmentModel, split: EncodedSplit,
                tokenizer: Tokenizer, cfg: AlignConfig, seed: int,
                curve_path=None) -> AlignResult:
    """Minimize the contrastive loss over every parameter of both towers and
    all heads. On a non-finite loss the last good parameter state is restored
    and training stops."""
    store = model.store
    opt = AdamW(store, weight_decay=cfg.weight_decay)
    curve = []
    step = 0
    diverged = False
    last_good = store.snapshot()
    for epoch in range(cfg.epochs):
        for batch in batches(split, cfg.batch_size, "align",
                             seed=epoch_seed(seed, epoch)):
            prompts = [build_prompt(r, model.collab.schema, model.template)
                       for r in batch.raw_rows]
            ids, mask = tokenizer.encode_batch(prompts)
            lr = cfg.lr_at(step)
            # a state is only known good once its forward pass came out finite
            pre_step = store.snapshot()
            try:
                loss, l_t2t, l_tab2text = opt.minimize(lr, lambda: model.ccl(
                    batch, ids, mask, train=True))
            except NumericError as e:
                warnings.warn(f"alignment diverged at step {step} ({e}); "
                              "restoring last good state")
                store.restore(last_good)
                diverged = True
                break
            curve.append((step, lr, loss.item(), l_t2t.item(), l_tab2text.item()))
            last_good = pre_step
            step += 1
        if diverged:
            break
    if curve_path is not None:
        write_curve(curve, curve_path)
    return AlignResult(curve=curve, steps=step, diverged=diverged)
