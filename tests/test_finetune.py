import csv

import numpy as np
import pytest

import ctrl.autodiff as ad
from ctrl.autodiff import DTensor, Tape
from ctrl.config import FinetuneConfig, ModelConfig
from ctrl.data import prepare_splits
from ctrl.encoders import CollaborativeEncoder
from ctrl.exceptions import UsageError
from ctrl.finetune import (CtrHead, bce_loss, end_to_end_train, finetune,
                           predict_scores, write_history)
from ctrl.metrics import auc
from ctrl.params import ParamStore, rng_for
from ctrl.synthetic import SyntheticSpec, generate

from helpers import (check_grads, composed_bce, reference_end_to_end_train,
                     tiny_pipeline)

LN2 = 0.6931471805599453


def test_bce_oracles():
    assert abs(bce_loss(DTensor([0.5, 0.5]), [1, 0]).item() - LN2) < 1e-12
    # both terms reduce to log(0.8)
    want = -np.log(0.8)
    assert abs(bce_loss(DTensor([0.8, 0.2]), [1, 0]).item() - want) < 1e-12


def test_bce_clamp_keeps_extremes_finite():
    assert bce_loss(DTensor([1.0, 0.0]), [1, 0]).item() < 1e-10
    worst = bce_loss(DTensor([0.0]), [1]).item()
    assert abs(worst - (-np.log(1e-12))) < 1e-9


def test_bce_validation():
    with pytest.raises(UsageError):
        bce_loss(DTensor([0.5, 0.5]), [1])
    with pytest.raises(UsageError):
        bce_loss(DTensor([0.5]), [2])
    with pytest.raises(UsageError):
        bce_loss(DTensor([-0.1]), [0])
    with pytest.raises(UsageError):
        bce_loss(DTensor([1.1]), [1])


def test_bce_gradient_is_p_minus_y_over_n():
    # with p = sigmoid(x): dL/dx = (p - y) / N
    rng = np.random.default_rng(0)
    x = DTensor(rng.normal(size=6), requires_grad=True)
    y = np.array([1, 0, 1, 1, 0, 0], dtype=float)
    with Tape() as tape:
        p = ad.sigmoid(x)
        loss = bce_loss(p, y)
    tape.backward(loss)
    want = (p.data - y) / 6.0
    assert np.allclose(x.grad, want, atol=1e-12)


def test_bce_matches_the_composed_oracle_bit_for_bit():
    eps = 1e-12
    # 0 and 1, the clamp edges at eps and 1 - eps and the floats beside
    # them, the smallest positive float, and interior values
    p = np.array([0.0, 1.0, 0.0, 1.0, eps, eps, 1.0 - eps, 1.0 - eps,
                  np.nextafter(eps, 0.0), np.nextafter(eps, 1.0),
                  np.nextafter(1.0 - eps, 0.0), np.nextafter(1.0 - eps, 1.0),
                  5e-324, 0.3, 0.7, 0.5])
    y = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1])
    results = []
    for bce in (bce_loss, composed_bce):
        x = DTensor(p, requires_grad=True)
        with Tape() as tape:
            loss = ad.mul(bce(x, y), DTensor(0.37))  # an adjoint other than 1
        tape.backward(loss)
        results.append((loss.data.tobytes(), x.grad.tobytes()))
    assert results[0] == results[1]


def test_bce_fd():
    rng = np.random.default_rng(1)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    check_grads(
        lambda t: bce_loss(ad.sigmoid(t["x"]), y),
        {"x": rng.normal(size=4)},
    )


def _xor_setup(seed=3, n_rows=120, batch_norm=False):
    rows, schema, meta = generate(SyntheticSpec(
        n_rows=n_rows, n_fields=2, rule="xor", flip_noise=0.0,
        seed=seed, history_len=0))
    train, val, test, fitted = prepare_splits(rows, schema)
    store = ParamStore()
    enc = CollaborativeEncoder(
        store, fitted,
        ModelConfig(backbone="mlp", d=4, hidden=(8, 8), batch_norm=batch_norm),
        rng_for(seed, "collab"))
    head = CtrHead(store, enc.out_dim, rng_for(seed, "ctr"))
    return enc, head, train, val, test


def test_predict_scores_batching_invariance():
    enc, head, train, val, _ = _xor_setup()
    a = predict_scores(enc, head, val, batch_size=3)
    b = predict_scores(enc, head, val, batch_size=4096)
    assert a.shape == (val.n,)
    assert np.array_equal(a, b)


def test_finetune_learns_separable_rule():
    enc, head, train, val, _ = _xor_setup()
    cfg = FinetuneConfig(lr=0.05, batch_size=16, epochs=30, patience=30)
    res = finetune(enc, head, train, val, cfg, seed=3)
    assert not res.diverged
    train_auc = auc(predict_scores(enc, head, train), train.labels)
    assert train_auc > 0.99


def test_finetune_bookkeeping_and_best_restore(tmp_path):
    enc, head, train, val, _ = _xor_setup(seed=5)
    cfg = FinetuneConfig(lr=0.02, batch_size=16, epochs=6, patience=2)
    hist_path = tmp_path / "history.csv"
    res = finetune(enc, head, train, val, cfg, seed=5,
                   history_path=hist_path)
    assert 0 < len(res.history) <= cfg.epochs
    aucs = [row[2] for row in res.history]
    assert res.best_val_auc == max(aucs)
    assert res.best_epoch == aucs.index(max(aucs))
    # parameters were rolled back to the best epoch
    restored_auc = auc(predict_scores(enc, head, val), val.labels)
    assert restored_auc == res.best_val_auc
    # early stopping never runs more than `patience` epochs past the best
    assert len(res.history) - 1 - res.best_epoch <= cfg.patience

    with open(hist_path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_auc", "val_logloss"]
    assert len(rows) == len(res.history) + 1
    assert float(rows[1][2]) == res.history[0][2]


def test_finetune_zero_lr_is_a_noop():
    # batch norm off: its running buffers would otherwise drift during
    # train-mode forwards even when no parameter moves
    enc, head, train, val, _ = _xor_setup(batch_norm=False)
    before = predict_scores(enc, head, val)
    w0 = enc.store["collab.mlp.l0.w"].data.copy()
    cfg = FinetuneConfig(lr=0.0, batch_size=16, epochs=2, patience=5)
    res = finetune(enc, head, train, val, cfg, seed=3)
    assert np.array_equal(enc.store["collab.mlp.l0.w"].data, w0)
    assert np.array_equal(predict_scores(enc, head, val), before)
    assert res.best_val_auc == auc(before, val.labels)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finetune_divergence_restores_initial_state():
    enc, head, train, val, _ = _xor_setup()
    snap_params = {n: enc.store[n].data.copy() for n in enc.store.names()}
    cfg = FinetuneConfig(lr=1e160, batch_size=16, epochs=3, patience=3)
    with pytest.warns(UserWarning, match="diverged"):
        res = finetune(enc, head, train, val, cfg, seed=3)
    assert res.diverged
    assert res.best_epoch == -1 and res.history == []
    for n, arr in snap_params.items():
        assert np.array_equal(enc.store[n].data, arr), n


def test_end_to_end_lambda_zero_matches_finetune():
    model, tokenizer, (train, val, _), cfg = tiny_pipeline(seed=11, n_rows=40)
    head = CtrHead(model.store, model.collab.out_dim, rng_for(11, "ctr"))
    start = model.store.snapshot()
    ft_cfg = FinetuneConfig(lr=1e-3, batch_size=8, epochs=2, patience=5,
                            lambda_ccl=0.0)

    end_to_end_train(model, head, train, val, tokenizer, ft_cfg, seed=11)
    joint = {n: model.store[n].data.copy() for n in model.store.names()}

    model.store.restore(start)
    finetune(model.collab, head, train, val, ft_cfg, seed=11)
    for n in model.store.names():
        if n.startswith("collab.") or n.startswith("ctr."):
            assert np.array_equal(model.store[n].data, joint[n]), n


def test_end_to_end_contrastive_term_changes_trajectory():
    model, tokenizer, (train, val, _), cfg = tiny_pipeline(seed=11, n_rows=40)
    head = CtrHead(model.store, model.collab.out_dim, rng_for(11, "ctr"))
    start = model.store.snapshot()
    base_cfg = FinetuneConfig(lr=1e-3, batch_size=8, epochs=1, patience=5,
                              lambda_ccl=0.0)

    end_to_end_train(model, head, train, val, tokenizer, base_cfg, seed=11)
    plain = {n: model.store[n].data.copy() for n in model.store.names()}

    model.store.restore(start)
    text_w0 = model.store["text.block0.q.w"].data.copy()
    heavy_cfg = FinetuneConfig(lr=1e-3, batch_size=8, epochs=1, patience=5,
                               lambda_ccl=5.0)
    end_to_end_train(model, head, train, val, tokenizer, heavy_cfg, seed=11)
    assert not np.array_equal(model.store["collab.out.w"].data,
                              plain["collab.out.w"])
    # the text tower only receives gradient through the contrastive term
    assert not np.array_equal(model.store["text.block0.q.w"].data, text_w0)


def test_end_to_end_matches_the_reference_loop():
    model, tokenizer, (train, val, _), cfg = tiny_pipeline(seed=11, n_rows=40)
    head = CtrHead(model.store, model.collab.out_dim, rng_for(11, "ctr"))
    start = model.store.snapshot()
    ft_cfg = FinetuneConfig(lr=1e-3, batch_size=8, epochs=3, patience=5,
                            lambda_ccl=0.5)

    want = reference_end_to_end_train(model, head, train, val, tokenizer,
                                      ft_cfg, seed=11)
    ref = {n: model.store[n].data.copy() for n in model.store.names()}

    model.store.restore(start)
    res = end_to_end_train(model, head, train, val, tokenizer, ft_cfg,
                           seed=11)
    assert len(res.history) == 3
    assert (res.history, res.best_epoch, res.best_val_auc,
            res.diverged) == want
    for n in model.store.names():
        assert np.array_equal(model.store[n].data, ref[n]), n


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_end_to_end_divergence_restores_initial_state():
    model, tokenizer, (train, val, _), cfg = tiny_pipeline(seed=11, n_rows=40)
    head = CtrHead(model.store, model.collab.out_dim, rng_for(11, "ctr"))
    snap_params = {n: model.store[n].data.copy()
                   for n in model.store.names()}
    ft_cfg = FinetuneConfig(lr=1e160, batch_size=8, epochs=3, patience=3,
                            lambda_ccl=0.5)
    with pytest.warns(UserWarning, match="diverged"):
        res = end_to_end_train(model, head, train, val, tokenizer, ft_cfg,
                               seed=11)
    assert res.diverged
    assert res.best_epoch == -1 and res.history == []
    for n, arr in snap_params.items():
        assert np.array_equal(model.store[n].data, arr), n


def test_write_history_round_trip(tmp_path):
    hist = [(0, 0.69314718, 0.5, 0.7), (1, 1 / 3, 0.625, 0.66)]
    path = tmp_path / "h.csv"
    write_history(hist, path)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    parsed = [(int(r[0]), float(r[1]), float(r[2]), float(r[3]))
              for r in rows[1:]]
    assert parsed == [(0, 0.69314718, 0.5, 0.7), (1, 1 / 3, 0.625, 0.66)]
