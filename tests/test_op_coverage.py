"""Gate: every op a training step records has a finite-difference check.

The recorded ops come from one taped contrastive step and one taped BCE
step, in train mode with dropout, over every backbone and both similarity
heads. A new op (a fused kernel, say) that lands without a case in
FD_CASES fails here, and so does a case for an op no step records.
"""

import numpy as np
import pytest

import ctrl.autodiff as ad
from ctrl.align import maxsim_pair
from ctrl.autodiff import DTensor, Tape
from ctrl.data import batches
from ctrl.encoders import scaled_attention
from ctrl.finetune import CtrHead, bce_loss
from ctrl.params import rng_for
from ctrl.prompt import build_prompt

from helpers import check_grads, tiny_pipeline

# zero-norm sub-representations are routine right after initialization
pytestmark = pytest.mark.filterwarnings("ignore:l2_normalize")

_r = np.random.default_rng(41)
A, C = _r.normal(size=(3, 4)), _r.normal(size=(3, 4))
P = _r.uniform(1.0, 3.0, size=(3, 4))  # positive, for div and log


def _weighted(t: DTensor) -> DTensor:
    """A scalar whose gradient reaches every entry of `t` with its own
    weight."""
    w = DTensor(np.random.default_rng(t.size).normal(size=t.shape))
    return ad.sum_(ad.mul(t, w))


def _batch_norm(t):
    return ad.batch_norm(t["x"], t["g"], t["b"], np.zeros(3), np.ones(3),
                         train=True)


_MASK = (np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])[:, None, :] - 1.0) * 1e9

# op name -> (scalar loss over the leaves, leaves)
FD_CASES = {
    "add": (lambda t: _weighted(ad.add(t["a"], t["c"])), {"a": A, "c": C}),
    "sub": (lambda t: _weighted(ad.sub(t["a"], t["c"])), {"a": A, "c": C}),
    "mul": (lambda t: _weighted(ad.mul(t["a"], t["c"])), {"a": A, "c": C}),
    "div": (lambda t: _weighted(ad.div(t["a"], t["p"])), {"a": A, "p": P}),
    "neg": (lambda t: _weighted(ad.neg(t["a"])), {"a": A}),
    "relu": (lambda t: _weighted(ad.relu(t["a"])), {"a": A}),
    "exp": (lambda t: _weighted(ad.exp(t["a"])), {"a": A}),
    "log": (lambda t: _weighted(ad.log(t["p"])), {"p": P}),
    "sigmoid": (lambda t: _weighted(ad.sigmoid(t["a"])), {"a": A}),
    "matmul": (lambda t: _weighted(ad.matmul(t["a"], t["b"])),
               {"a": A, "b": _r.normal(size=(4, 5))}),
    "reshape": (lambda t: _weighted(ad.reshape(t["a"], (2, 6))), {"a": A}),
    "transpose": (lambda t: _weighted(ad.transpose(t["a"], (1, 0))),
                  {"a": A}),
    "concat": (lambda t: _weighted(ad.concat([t["a"], t["c"]], axis=1)),
               {"a": A, "c": C}),
    "sum": (lambda t: _weighted(ad.sum_(t["a"], axis=1)), {"a": A}),
    "mean": (lambda t: ad.mean(ad.mul(t["a"], t["c"])), {"a": A, "c": C}),
    "max": (lambda t: _weighted(ad.max_(t["a"], axis=1)), {"a": A}),
    "l2_normalize": (lambda t: _weighted(ad.l2_normalize(t["a"], axis=1)),
                     {"a": A}),
    "dropout": (lambda t: _weighted(ad.dropout(
        t["a"], 0.5, train=True, rng=np.random.default_rng(3))), {"a": A}),
    "embedding_lookup": (lambda t: _weighted(ad.embedding_lookup(
        t["table"], np.array([[0, 2], [2, 4]]))),
        {"table": _r.normal(size=(5, 3))}),
    "batch_norm": (lambda t: _weighted(_batch_norm(t)),
                   {"x": _r.normal(size=(6, 3)), "g": _r.normal(size=3) + 1.5,
                    "b": _r.normal(size=3)}),
    "layer_norm": (lambda t: _weighted(ad.layer_norm(t["x"], t["f"], t["g"],
                                                     t["b"])),
                   {"x": _r.normal(size=(4, 6)), "f": _r.normal(size=(4, 6)),
                    "g": _r.normal(size=6) + 1.0, "b": _r.normal(size=6)}),
    "attention": (lambda t: _weighted(scaled_attention(
        t["q"], t["k"], t["v"], additive_mask=_MASK[:, None])[0]),
        {n: _r.normal(size=(2, 2, 3, 4)) for n in ("q", "k", "v")}),
    "maxsim": (lambda t: ad.add(*map(_weighted, maxsim_pair(t["a"], t["b"]))),
               {"a": _r.normal(size=(3, 2, 4)), "b": _r.normal(size=(4, 2, 4))}),
}


def _recorded_ops(backbone: str, similarity: str) -> set:
    model, tokenizer, (train, _, _), _ = tiny_pipeline(
        backbone=backbone, similarity=similarity, dropout=0.1)
    batch = next(batches(train, 4, "align", seed=0))
    prompts = [build_prompt(r, model.collab.schema, model.template)
               for r in batch.raw_rows]
    ids, mask = tokenizer.encode_batch(prompts)
    rng = np.random.default_rng(0)
    with Tape() as ccl_tape:
        model.ccl(batch, ids, mask, train=True, rng=rng)
    head = CtrHead(model.store, model.collab.out_dim, rng_for(0, "ctr"))
    with Tape() as bce_tape:
        bce_loss(head(model.collab(batch, train=True, rng=rng)), batch.labels)
    return {n.op for n in ccl_tape.nodes + bce_tape.nodes}


def test_every_recorded_op_has_a_finite_difference_case():
    recorded = set()
    for backbone in ("autoint", "dcn", "mlp"):
        for similarity in ("maxsim", "cosine"):
            recorded |= _recorded_ops(backbone, similarity)
    assert recorded == set(FD_CASES), (
        f"recorded ops without an FD case: {sorted(recorded - set(FD_CASES))}; "
        f"FD cases no step records: {sorted(set(FD_CASES) - recorded)}")
    for op, (build, leaves) in FD_CASES.items():
        with Tape() as tape:
            build({k: DTensor(v, requires_grad=True) for k, v in leaves.items()})
        assert op in {n.op for n in tape.nodes}, f"the {op} case records no {op}"
        check_grads(build, leaves)
