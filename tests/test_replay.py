"""A pass checked once at its outputs, then replayed on failure, reports and
restores exactly what checking every op as it runs does.

Each case runs twice: as the program runs it (`ad.run_pass`), and with
`run_pass` replaced by a plain call, so every op checks its own output as
it is made. The divergence warning, the result record and every parameter
and buffer left in the store must be the same bytes.
"""

import warnings

import numpy as np
import pytest

import ctrl.autodiff as ad
from ctrl.align import align_train
from ctrl.autodiff import DTensor
from ctrl.config import FinetuneConfig
from ctrl.exceptions import NumericError
from ctrl.finetune import CtrHead, end_to_end_train, finetune, predict_scores
from ctrl.orchestrate import alignment_gap
from ctrl.params import rng_for

from helpers import tiny_pipeline

pytestmark = [pytest.mark.filterwarnings("ignore:l2_normalize"),
              pytest.mark.filterwarnings("ignore::RuntimeWarning")]


def _every_op_checked(fn):
    return fn()


def _train(kind, backbone, poison=None):
    """Train a tiny model until it diverges. Returns (divergence warnings,
    result, store bytes)."""
    if kind == "align":
        model, tok, (train, _, _), cfg = tiny_pipeline(
            seed=12, backbone=backbone, peak_lr=1e12,
            warmup_steps=0, epochs=3)
    else:
        model, tok, (train, val, _), cfg = tiny_pipeline(
            seed=11, n_rows=40, backbone=backbone)
        head = CtrHead(model.store, model.collab.out_dim, rng_for(11, "ctr"))
        ft_cfg = FinetuneConfig(lr=1e160, batch_size=8, epochs=3, patience=3,
                                lambda_ccl=0.5)
    if poison is not None:
        model.store.replace(poison, DTensor(
            np.full(model.store[poison].shape, 1e200), requires_grad=True))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if kind == "align":
            res = align_train(model, train, tok, cfg.align, seed=12)
        elif kind == "finetune":
            res = finetune(model.collab, head, train, val, ft_cfg, seed=11)
        else:
            res = end_to_end_train(model, head, train, val, tok, ft_cfg,
                                   seed=11)
    store = model.store
    state = ({n: store[n].data.tobytes() for n in store.names()},
             {n: store.buffer(n).tobytes() for n in store.buffer_names()})
    said = [str(w.message) for w in caught if "diverged" in str(w.message)]
    return said, res, state


@pytest.mark.parametrize("backbone", ["autoint", "dcn", "mlp"])
@pytest.mark.parametrize("kind", ["align", "finetune", "end_to_end"])
def test_divergence_matches_checking_every_op(monkeypatch, kind, backbone):
    said, res, state = _train(kind, backbone)
    assert res.diverged and len(said) == 1
    monkeypatch.setattr(ad, "run_pass", _every_op_checked)
    assert _train(kind, backbone) == (said, res, state)


def test_overflowing_weight_is_named_in_the_warning(monkeypatch):
    # dcn crosses x0 * (x w): 1e200 embeddings square past the float range
    got = _train("align", "dcn", poison="collab.emb.f0")
    assert got[0] == ["alignment diverged at step 0 (mul: produced "
                      "non-finite values); restoring last good state"]
    assert got[1].steps == 0 and got[1].curve == []
    monkeypatch.setattr(ad, "run_pass", _every_op_checked)
    assert _train("align", "dcn", poison="collab.emb.f0") == got


def _eval_errors(backbone):
    model, tok, (_, val, _), _ = tiny_pipeline(seed=11, n_rows=40,
                                               backbone=backbone)
    head = CtrHead(model.store, model.collab.out_dim, rng_for(11, "ctr"))
    name = "collab.emb.f0"
    model.store.replace(name, DTensor(np.full(model.store[name].shape, 1e200),
                                      requires_grad=True))
    errors = []
    for run in (lambda: predict_scores(model.collab, head, val),
                lambda: alignment_gap(model, val, tok)):
        with pytest.raises(NumericError) as err:
            run()
        errors.append(str(err.value))
    return errors


@pytest.mark.parametrize("backbone, message", [
    ("dcn", "mul: produced non-finite values"),
    ("autoint", "attention: scores are not finite"),
])
def test_evaluation_passes_name_the_overflowing_op(monkeypatch, backbone,
                                                   message):
    assert _eval_errors(backbone) == [message, message]
    monkeypatch.setattr(ad, "run_pass", _every_op_checked)
    assert _eval_errors(backbone) == [message, message]
