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
from .autodiff import DTensor, Tape
from .config import AlignConfig, RunConfig
from .data import EncodedSplit, batches, epoch_seed
from .encoders import CollaborativeEncoder, Linear, TextEncoder
from .exceptions import NumericError, ShapeError, UsageError
from .optim import AdamW, WarmupSchedule
from .params import ParamStore, rng_for
from .prompt import Tokenizer, build_prompt, template_from


class SubspaceHead:
    """M affine maps to width d_sub = d_proj / M, stored as one matrix.
    Sub-representations are optionally L2-normalized, which bounds the late
    interaction score in [-M, M] and decouples it from representation scale."""

    def __init__(self, store, prefix, d_proj, m, rng, normalize: bool = True):
        if m < 1:
            raise UsageError("m_subspaces must be >= 1")
        if d_proj % m != 0:
            raise UsageError("m_subspaces must divide d_proj")
        self.m = m
        self.d_sub = d_proj // m
        self.normalize = normalize
        self.lin = Linear(store, prefix, d_proj, m * self.d_sub, rng)

    def __call__(self, h: DTensor) -> DTensor:
        z = self.lin(h)
        z = ad.reshape(z, (h.shape[0], self.m, self.d_sub))
        if self.normalize:
            z = ad.l2_normalize(z, axis=2)
        return z


def _summed_best(sims: DTensor, axes: tuple) -> DTensor:
    """Late interaction scores from one view of the sub-space similarities.

    With x = sims.data.transpose(axes), shaped (rows, M, cols, M'), returns
    the (rows, cols) sum over x's axis 1 of its max over axis 3. The max is
    the elementwise max of the M' slices, which is far cheaper than a
    reduction over a short last axis. The backward pass routes each adjoint
    to the first maximal slice, the entry argmax would pick, so ties match
    `ad.max_`."""
    x = sims.data.transpose(axes)
    best = x[..., 0].copy()
    for r in range(1, x.shape[3]):
        np.maximum(best, x[..., r], out=best)

    def bwd(g):
        gx = np.empty_like(sims.data)
        view = gx.transpose(axes)
        g = g[:, None, :]
        free = np.ones(best.shape, dtype=bool)
        for r in range(x.shape[3]):
            hit = x[..., r] == best
            hit &= free
            free ^= hit
            np.multiply(g, hit, out=view[..., r])
        return (gx,)

    return ad.apply_op("maxsim", (sims,), best.sum(axis=1), bwd)


def maxsim_pair(subs_a: DTensor, subs_b: DTensor):
    """All-pairs late interaction scores in both directions from one
    product. subs_a: (N, M, d), subs_b: (Nb, Mb, d). Returns the (N, Nb)
    scores with rows indexed by subs_a and the (Nb, N) scores with rows
    indexed by subs_b."""
    n, m, d = subs_a.shape
    nb, mb, db = subs_b.shape
    if d != db:
        raise ShapeError("sub-representation widths differ")
    flat_a = ad.reshape(subs_a, (n * m, d))
    flat_b = ad.reshape(subs_b, (nb * mb, d))
    sims = ad.matmul(flat_a, ad.transpose(flat_b, (1, 0)))  # (n*m, nb*mb)
    sims = ad.reshape(sims, (n, m, nb, mb))
    return _summed_best(sims, (0, 1, 2, 3)), _summed_best(sims, (2, 3, 0, 1))


def unit_rows(h: DTensor) -> DTensor:
    """The cosine head: each (N, d) row as one unit-norm sub-representation,
    (N, 1, d). It has no parameters."""
    return ad.l2_normalize(ad.reshape(h, (h.shape[0], 1, h.shape[1])), axis=2)


def infonce(s: DTensor, temperature: float) -> DTensor:
    """Softmax cross-entropy over one direction of the similarity matrix.
    Rows are anchors, the diagonal holds the positive pairs. Stabilized by
    row-max subtraction inside logsumexp."""
    if temperature <= 0:
        raise UsageError("temperature must be > 0")
    if s.data.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"similarity matrix must be square, got {s.shape}")
    n = s.shape[0]
    if n == 1:
        return DTensor(np.zeros(()))
    logits = ad.mul(s, DTensor(1.0 / temperature))
    lse = ad.logsumexp(logits, axis=1)  # (N,)
    diag = ad.sum_(ad.mul(logits, DTensor(np.eye(n))), axis=1)
    return ad.mean(ad.sub(lse, diag))


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
                                        rng_for(cfg.seed, "heads.tab_sub"),
                                        normalize=a.normalize_subreps)
            self.text_sub = SubspaceHead(store, "heads.text_sub", a.d_proj,
                                         a.m_subspaces,
                                         rng_for(cfg.seed, "heads.text_sub"),
                                         normalize=a.normalize_subreps)
        else:
            self.tab_sub = self.text_sub = unit_rows

    def projected(self, batch, token_ids, mask, train: bool = False, rng=None,
                  h_col: DTensor = None):
        if h_col is None:
            h_col = self.collab(batch, train=train, rng=rng)
        h_tab = self.tab_proj(h_col)
        h_text = self.text_proj(self.text(token_ids, mask))
        return h_text, h_tab

    def similarity_matrices(self, h_text: DTensor, h_tab: DTensor):
        """Returns (rows=text matrix, rows=tabular matrix)."""
        return maxsim_pair(self.text_sub(h_text), self.tab_sub(h_tab))

    def ccl(self, batch, token_ids, mask, train: bool = False, rng=None,
            h_col: DTensor = None):
        """Returns (loss, text-to-tabular term, tabular-to-text term).
        `h_col` is the collaborative tower's output for `batch` when the
        caller has already computed it; the tower is not run again."""
        h_text, h_tab = self.projected(batch, token_ids, mask, train=train,
                                       rng=rng, h_col=h_col)
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
    sched = WarmupSchedule(cfg.start_lr, cfg.peak_lr, cfg.warmup_steps)
    opt = AdamW(store, weight_decay=cfg.weight_decay)
    drop_rng = rng_for(seed, "align.dropout")
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
            lr = sched.lr_at(step)
            # a state is only known good once its forward pass came out finite
            pre_step = store.snapshot()
            try:
                with Tape() as tape:
                    loss, l_t2t, l_tab2text = ad.run_pass(lambda: model.ccl(
                        batch, ids, mask, train=True, rng=drop_rng), drop_rng)
                tape.backward(loss)
                opt.step(lr)
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
