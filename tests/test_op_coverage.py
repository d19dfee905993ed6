"""Gate: every op a training step records has a finite-difference check.

The recorded ops come from one taped contrastive step and one taped BCE
step, in train mode with dropout, over every backbone and both similarity
heads. A new op (a fused kernel, say) that lands without a case in
FD_CASES fails here, and so does a case for an op no step records.
"""

import numpy as np
import pytest

import ctrl.autodiff as ad
from ctrl.align import infonce, maxsim
from ctrl.autodiff import DTensor, Tape
from ctrl.config import ModelConfig
from ctrl.data import FeatureSchema, FieldSpec, batches, encode
from ctrl.exceptions import NumericError
from ctrl.encoders import CollaborativeEncoder, scaled_attention
from ctrl.finetune import CtrHead, bce_loss
from ctrl.params import ParamStore, rng_for
from ctrl.prompt import build_prompt

from helpers import check_grads, neg, tiny_pipeline

# zero-norm sub-representations are routine right after initialization
pytestmark = pytest.mark.filterwarnings("ignore:l2_normalize")

_r = np.random.default_rng(41)
A, C = _r.normal(size=(3, 4)), _r.normal(size=(3, 4))
P = _r.uniform(1.0, 3.0, size=(3, 4))  # positive, for div


def _weighted(t: DTensor) -> DTensor:
    """A scalar whose gradient reaches every entry of `t` with its own
    weight."""
    w = DTensor(np.random.default_rng(t.size).normal(size=t.shape))
    return ad.sum_(ad.mul(t, w))


def _batch_norm(t):
    return ad.batch_norm(t["x"], t["g"], t["b"], np.zeros(3), np.ones(3),
                         train=True)


# A categorical field and a sequence field; the second row's history is all
# padding and the first's has two valid positions.
_SCHEMA = FeatureSchema(fields=(
    FieldSpec("u", "categorical", "user", vocab={"a": 1, "b": 2}),
    FieldSpec("hist", "sequence", "item", vocab={"x": 1, "y": 2, "z": 3}),
), max_seq_len=3)
_FIELDS = encode([{"u": "a", "hist": "x|z", "label": 0, "timestamp": 0},
                  {"u": "b", "hist": "", "label": 1, "timestamp": 1},
                  {"u": "", "hist": "y|y|x", "label": 0, "timestamp": 2}],
                 _SCHEMA)


def _field_embeddings(tables: dict) -> DTensor:
    """The field embeddings of _FIELDS with the tables given by name."""
    enc = CollaborativeEncoder(ParamStore(), _SCHEMA,
                               ModelConfig(backbone="mlp", d=2, hidden=(3,)),
                               rng_for(0, "collab"))
    for name, table in tables.items():
        enc.store.replace(name, table)
    return enc.field_embeddings(_FIELDS)


_MASK = (np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])[:, None, :] - 1.0) * 1e9

# op name -> (scalar loss over the leaves, leaves)
FD_CASES = {
    "add": (lambda t: _weighted(ad.add(t["a"], t["c"])), {"a": A, "c": C}),
    "mul": (lambda t: _weighted(ad.mul(t["a"], t["c"])), {"a": A, "c": C}),
    "div": (lambda t: _weighted(ad.div(t["a"], t["p"])), {"a": A, "p": P}),
    "relu": (lambda t: _weighted(ad.relu(t["a"])), {"a": A}),
    "sigmoid": (lambda t: _weighted(ad.sigmoid(t["a"])), {"a": A}),
    "matmul": (lambda t: _weighted(ad.matmul(t["a"], t["b"])),
               {"a": A, "b": _r.normal(size=(4, 5))}),
    "reshape": (lambda t: _weighted(ad.reshape(t["a"], (2, 6))), {"a": A}),
    "transpose": (lambda t: _weighted(ad.transpose(t["a"], (1, 0))),
                  {"a": A}),
    "concat": (lambda t: _weighted(ad.concat([t["a"], t["c"]], axis=1)),
               {"a": A, "c": C}),
    "sum": (lambda t: _weighted(ad.sum_(t["a"], axis=1)), {"a": A}),
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
    "maxsim": (lambda t: _weighted(maxsim(t["a"], t["b"])),
               {"a": _r.normal(size=(3, 2, 4)), "b": _r.normal(size=(4, 2, 4))}),
    "field_embeddings": (lambda t: _weighted(_field_embeddings(t)),
                         {"collab.emb.u": _r.normal(size=(3, 2)),
                          "collab.emb.hist": _r.normal(size=(4, 2))}),
    "bce": (lambda t: bce_loss(t["p"], np.array([0, 1, 1, 0, 1, 0])),
            {"p": _r.uniform(0.2, 0.8, size=6)}),
    "infonce": (lambda t: infonce(t["s"], 0.7), {"s": _r.normal(size=(4, 4))}),
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


# Replay gate: an op either has a pass that overflows in it, whose replay
# must name it, or is shown to keep extreme finite inputs finite.
_MAX = np.finfo(np.float64).max
_ROOT = np.sqrt(_MAX)


def _big(shape=(2, 2), value=_MAX) -> DTensor:
    return DTensor(np.full(shape, value))


# op -> a pass whose first non-finite value is that op's output
OVERFLOW_CASES = {
    "add": lambda: ad.add(_big(), _big()),
    "mul": lambda: ad.mul(_big(), _big()),
    "div": lambda: ad.div(_big(), _big(value=0.5)),
    "matmul": lambda: ad.matmul(_big(), _big()),
    "sum": lambda: ad.sum_(_big(), axis=1),
    "dropout": lambda: ad.dropout(_big((4, 4)), 0.5, train=True,
                                  rng=np.random.default_rng(3)),
    "batch_norm": lambda: ad.batch_norm(_big((2, 3)), _big(3, 1.0),
                                        _big(3, 0.0), np.zeros(3),
                                        np.ones(3), train=True),
    "layer_norm": lambda: ad.layer_norm(_big(), _big(), _big(2, 1.0),
                                        _big(2, 0.0)),
    "attention": lambda: scaled_attention(*(_big((1, 1, 2, 2), 1e200),) * 3),
    # each product is finite; their sum over the M = 2 sub-spaces is not
    "maxsim": lambda: maxsim(_big((1, 2, 1), 0.9 * _ROOT),
                             _big((1, 2, 1), _ROOT)),
    # each row is finite; the first row's sum over its two valid positions
    # is not
    "field_embeddings": lambda: _field_embeddings(
        {"collab.emb.u": _big((3, 2), 1.0), "collab.emb.hist": _big((4, 2))}),
    # scores of 2 are finite; at τ = 1e-308 their logits are not
    "infonce": lambda: infonce(_big(value=2.0), 1e-308),
}

_EXTREMES = np.array([[_MAX, -_MAX, 0.0, 5e-324], [-_MAX, _MAX, 1.0, -1.0]])

# op -> the op on extreme finite inputs; its output must stay finite
CANNOT_OVERFLOW = {
    "relu": lambda x: ad.relu(x),
    "sigmoid": lambda x: ad.sigmoid(x),
    "reshape": lambda x: ad.reshape(x, (4, 2)),
    "transpose": lambda x: ad.transpose(x, (1, 0)),
    "concat": lambda x: ad.concat([x, x], axis=1),
    "embedding_lookup": lambda x: ad.embedding_lookup(x, np.array([1, 0, 1])),
    "l2_normalize": lambda x: ad.l2_normalize(x, axis=1),
    # probabilities must lie in [0, 1]: its extremes, and the smallest
    # positive float, against both labels
    "bce": lambda x: bce_loss(DTensor(np.clip(x.data, 0.0, 1.0)),
                              np.array([[1, 0, 1, 0], [0, 1, 0, 1]])),
}


def test_every_op_has_an_overflow_case_or_cannot_overflow():
    assert not set(OVERFLOW_CASES) & set(CANNOT_OVERFLOW)
    classed = set(OVERFLOW_CASES) | set(CANNOT_OVERFLOW)
    assert classed == set(FD_CASES), (
        f"ops with no overflow case: {sorted(set(FD_CASES) - classed)}; "
        f"cases for ops with no FD case: {sorted(classed - set(FD_CASES))}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op", sorted(OVERFLOW_CASES))
def test_replay_names_the_op_that_overflowed(op):
    runs = []

    def overflowing_pass():
        runs.append(ad.op_checks)
        out = OVERFLOW_CASES[op]()
        # a later op carries the non-finite value to the pass's output
        return tuple(neg(t) for t in
                     (out if isinstance(out, tuple) else (out,)))

    with pytest.raises(NumericError, match=f"^{op}: "):
        ad.run_pass(overflowing_pass)
    assert runs == [False, True]  # the unchecked pass, then its replay


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore:l2_normalize")
@pytest.mark.parametrize("op", sorted(CANNOT_OVERFLOW))
def test_op_keeps_extreme_finite_inputs_finite(op):
    out = CANNOT_OVERFLOW[op](DTensor(_EXTREMES))
    assert np.isfinite(out.data).all()
