import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrl.autodiff as ad
from ctrl.autodiff import DTensor, Tape
from ctrl.align import (AlignmentModel, SubspaceHead, align_train, infonce,
                        unit_rows, write_curve)
from ctrl.align import maxsim as maxsim_op
from ctrl.data import batches
from ctrl.exceptions import ShapeError, UsageError
from ctrl.params import ParamStore, rng_for
from ctrl.prompt import build_prompt

from helpers import (check_grads, composed_infonce, cosine, cosine_matrix,
                     evaluate_ccl, maxsim, maxsim_matrix, store_grad_check,
                     tiny_pipeline)

LOG_1P_EXP_NEG1 = 0.31326168751822286  # log(1 + e^-1)


def test_maxsim_hand_example():
    i_subs = np.array([[1.0, 0.0], [0.0, 1.0]])
    j_subs = np.array([[0.6, 0.8], [1.0, 0.0]])
    # max(0.6, 1.0) + max(0.8, 0.0)
    assert abs(maxsim(i_subs, j_subs).item() - 1.8) < 1e-12


def test_maxsim_asymmetry_witness():
    i_subs = np.array([[1.0, 0.0], [1.0, 0.0]])
    j_subs = np.array([[0.0, 1.0], [0.6, 0.8]])
    assert abs(maxsim(i_subs, j_subs).item() - 1.2) < 1e-12
    assert abs(maxsim(j_subs, i_subs).item() - 0.6) < 1e-12


def test_maxsim_single_subspace_is_inner_product():
    a = np.array([[0.3, -0.7, 2.0]])
    b = np.array([[1.0, 0.5, -0.25]])
    assert abs(maxsim(a, b).item() - (a @ b.T).item()) < 1e-15


def test_maxsim_shape_checks():
    with pytest.raises(ShapeError):
        maxsim(np.zeros((2, 3)), np.zeros((2, 4)))


def test_maxsim_matrix_matches_pairwise_calls():
    rng = rng_for(0, "subs")
    a = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(3, 2, 4))
    mat = maxsim_matrix(DTensor(a), DTensor(b)).data
    for i in range(3):
        for j in range(3):
            assert abs(mat[i, j] - maxsim(a[i], b[j]).item()) < 1e-12


def _maxsim_inputs(ties: bool):
    rng = rng_for(5, "pair")
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(6, 2, 4))
    if ties:
        a[1, 0] = 0.0  # every score against it ties at 0
        a[3, 2] = a[3, 0]  # tied text sub-representations
        b[2, 1] = b[2, 0]  # tied tabular sub-representations
    return a, b


def _pair_loss(s_a, s_b):
    # distinct constant weights on every score, so every adjoint differs
    w_a = DTensor(np.linspace(-1.0, 2.0, s_a.size).reshape(s_a.shape))
    w_b = DTensor(np.linspace(1.5, -0.5, s_b.size).reshape(s_b.shape))
    return ad.add(ad.sum_(ad.mul(s_a, w_a)), ad.sum_(ad.mul(s_b, w_b)))


@pytest.mark.parametrize("ties", [False, True])
def test_maxsim_op_matches_the_composed_oracle(ties):
    """Both directions, as the model scores a batch: the scores keep the
    oracle's bytes and the adjoints agree within 1e-12, ties included."""
    a, b = _maxsim_inputs(ties)
    grads = []
    for score in (maxsim_op, maxsim_matrix):
        ta, tb = DTensor(a, requires_grad=True), DTensor(b, requires_grad=True)
        with Tape() as tape:
            s_a, s_b = score(ta, tb), score(tb, ta)
            tape.backward(_pair_loss(s_a, s_b))
        grads.append((s_a.data, s_b.data, ta.grad, tb.grad))
    (fa, fb, fga, fgb), (ra, rb, rga, rgb) = grads
    assert fa.shape == (5, 6) and fb.shape == (6, 5)
    assert fa.tobytes() == ra.tobytes() and fb.tobytes() == rb.tobytes()
    np.testing.assert_allclose(fga, rga, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fgb, rgb, rtol=0, atol=1e-12)


def test_maxsim_op_gradients_match_finite_differences():
    a, b = _maxsim_inputs(ties=False)
    check_grads(lambda t: _pair_loss(maxsim_op(t["a"], t["b"]),
                                     maxsim_op(t["b"], t["a"])),
                {"a": a, "b": b})


def test_maxsim_op_shape_check():
    with pytest.raises(ShapeError):
        maxsim_op(DTensor(np.zeros((2, 2, 3))), DTensor(np.zeros((2, 2, 4))))


def test_maxsim_self_score_is_m_when_normalized():
    rng = rng_for(1, "subs")
    subs = rng.normal(size=(4, 3))
    subs /= np.linalg.norm(subs, axis=1, keepdims=True)
    assert maxsim(subs, subs).item() >= 4 - 1e-10


def test_cosine_examples():
    v = np.array([0.3, 0.4])
    assert abs(cosine(v, v).item() - 1.0) < 1e-12
    assert abs(cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])).item()) < 1e-15
    assert abs(cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])).item() + 1.0) < 1e-12


def test_cosine_zero_vector_scores_zero_with_warning():
    with pytest.warns(UserWarning, match="zero-norm"):
        out = cosine(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert out.item() == 0.0


def test_infonce_identity_matrix_oracle():
    s = DTensor(np.eye(2))
    loss = infonce(s, temperature=1.0)
    assert abs(loss.item() - LOG_1P_EXP_NEG1) < 1e-10


def test_infonce_single_pair_is_zero():
    assert infonce(DTensor([[3.7]]), temperature=0.5).item() == 0.0


def test_infonce_constant_rows_is_log_n():
    for n in (2, 5, 9):
        s = DTensor(np.full((n, n), 0.37))
        assert abs(infonce(s, 0.7).item() - np.log(n)) < 1e-12


def test_infonce_validation():
    with pytest.raises(ShapeError):
        infonce(DTensor(np.zeros((2, 3))), 1.0)
    with pytest.raises(UsageError):
        infonce(DTensor(np.eye(2)), 0.0)


def test_infonce_row_shift_invariance():
    rng = rng_for(2, "sims")
    s = rng.normal(size=(5, 5))
    base = infonce(DTensor(s), 0.7).item()
    shifted = s.copy()
    shifted[2] += 15.0
    assert abs(infonce(DTensor(shifted), 0.7).item() - base) < 1e-10


def test_infonce_directions_differ_under_asymmetry():
    # the maxsim asymmetry witness embedded in a 2x2 batch
    s_text = DTensor(np.array([[1.2, 0.1], [0.1, 1.2]]))
    s_tab = DTensor(np.array([[0.6, 0.1], [0.1, 0.6]]))
    assert infonce(s_text, 0.7).item() != infonce(s_tab, 0.7).item()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=0.05, max_value=5.0))
def test_infonce_nonnegative(n, seed, tau):
    s = np.random.default_rng(seed).normal(size=(n, n)) * 3
    assert infonce(DTensor(s), tau).item() >= -1e-14


def test_infonce_large_temperature_approaches_log_n():
    s = DTensor(rng_for(4, "s").normal(size=(6, 6)))
    assert abs(infonce(s, 1e9).item() - np.log(6)) < 1e-6


def _scores(kind: str, n: int, rng) -> np.ndarray:
    """Scores in the cosine head's range [-1, 1], in the maxsim head's
    [-M, M] at M = 4, or on a coarse grid with each row's maximum in its
    first and last column."""
    if kind == "cosine":
        return rng.uniform(-1.0, 1.0, size=(n, n))
    if kind == "maxsim":
        return rng.uniform(-4.0, 4.0, size=(n, n))
    s = rng.integers(-2, 3, size=(n, n)) / 2.0
    s[:, 0] = s[:, -1] = s.max(axis=1)
    return s


def _loss_and_grad_bytes(loss_fn, s0: np.ndarray, tau: float, weight: float):
    s = DTensor(s0, requires_grad=True)
    with Tape() as tape:
        loss = loss_fn(s, tau)
        out = ad.mul(loss, DTensor(weight))
    if tape.nodes:
        tape.backward(out)
    return loss.data.tobytes(), None if s.grad is None else s.grad.tobytes()


@pytest.mark.parametrize("kind", ["cosine", "maxsim", "ties"])
@pytest.mark.parametrize("tau", [0.07, 0.5, 1.0, 5.0])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 65])
def test_infonce_keeps_the_composed_chains_bits(kind, tau, n):
    rng = np.random.default_rng([n, int(tau * 100), len(kind)])
    s0 = _scores(kind, n, rng)
    # a loss's own adjoint, and the 0.5 of the two directions' mix
    for weight in (1.0, 0.5):
        want = _loss_and_grad_bytes(composed_infonce, s0, tau, weight)
        assert _loss_and_grad_bytes(infonce, s0, tau, weight) == want


@pytest.mark.parametrize("similarity", ["maxsim", "cosine"])
def test_a_ccl_step_records_infonce_as_one_node_per_direction(similarity,
                                                             monkeypatch):
    """Against the composed chain, a taped ccl step records 22 fewer nodes
    and gives the same loss and parameter gradients, bit for bit."""
    import ctrl.align

    model, tokenizer, (train, _, _), _ = tiny_pipeline(seed=5,
                                                       similarity=similarity)
    batch = next(batches(train, 8, "align", seed=1))
    prompts = [build_prompt(r, model.collab.schema, model.template)
               for r in batch.raw_rows]
    ids, mask = tokenizer.encode_batch(prompts)

    def step():
        with Tape() as tape:
            loss = model.ccl(batch, ids, mask)[0]
        ops = [n.op for n in tape.nodes]
        tape.backward(loss)
        grads = {n: model.store[n].grad.tobytes() for n in model.store.names()}
        return ops, loss.data.tobytes(), grads

    ops, loss, grads = step()
    monkeypatch.setattr(ctrl.align, "infonce", composed_infonce)
    chain_ops, chain_loss, chain_grads = step()
    assert ops.count("infonce") == 2 and "infonce" not in chain_ops
    assert len(chain_ops) - len(ops) == 22
    assert loss == chain_loss
    assert grads == chain_grads


def test_ccl_is_mean_of_directional_losses():
    model, tokenizer, (train, _, _), cfg = tiny_pipeline(seed=5)
    batch = next(batches(train, 4, "align", seed=1))
    prompts = [build_prompt(r, model.collab.schema, model.template)
               for r in batch.raw_rows]
    ids, mask = tokenizer.encode_batch(prompts)
    loss, l_t2t, l_tab2text = model.ccl(batch, ids, mask)
    assert abs(loss.item() - 0.5 * (l_t2t.item() + l_tab2text.item())) < 1e-12


@pytest.mark.parametrize("similarity", ["maxsim", "cosine"])
def test_ccl_with_precomputed_tower_output_is_bit_identical(similarity):
    model, tokenizer, (train, _, _), cfg = tiny_pipeline(seed=5,
                                                         similarity=similarity)
    batch = next(batches(train, 4, "align", seed=1))
    prompts = [build_prompt(r, model.collab.schema, model.template)
               for r in batch.raw_rows]
    ids, mask = tokenizer.encode_batch(prompts)
    want = model.ccl(batch, ids, mask)
    got = model.ccl(batch, ids, mask, h_col=model.collab(batch))
    for w, g in zip(want, got):
        assert np.array_equal(w.data, g.data)


def test_ccl_orthonormal_cosine_oracle():
    h = DTensor(np.eye(2))
    s = cosine_matrix(h, h)
    l1 = infonce(s, 1.0)
    l2 = infonce(ad.transpose(s, (1, 0)), 1.0)
    ccl = 0.5 * (l1.item() + l2.item())
    assert abs(ccl - LOG_1P_EXP_NEG1) < 1e-10


def test_subspace_head_identity_passthrough():
    store = ParamStore()
    head = SubspaceHead(store, "sub", 3, 1, rng_for(0, "h"))
    store.replace("sub.w", DTensor(np.eye(3), requires_grad=True))
    store.replace("sub.b", DTensor(np.zeros(3), requires_grad=True))
    x = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    out = head(DTensor(x))
    assert out.shape == (2, 1, 3)
    assert np.abs(out.data[:, 0, :] - x).max() < 1e-12


def test_subspace_head_default_dims_and_unit_norm():
    store = ParamStore()
    head = SubspaceHead(store, "sub", 128, 4, rng_for(0, "h"))
    assert head.d_sub == 32
    out = head(DTensor(rng_for(1, "x").normal(size=(5, 128))))
    assert out.shape == (5, 4, 32)
    norms = np.linalg.norm(out.data, axis=2)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_subspace_head_divisibility():
    with pytest.raises(UsageError):
        SubspaceHead(ParamStore(), "sub", 10, 3, rng_for(0, "h"))


def test_cosine_matrix_matches_pairwise_cosine():
    rng = rng_for(6, "h")
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 5))
    mat = cosine_matrix(DTensor(a), DTensor(b)).data
    for i in range(3):
        for j in range(3):
            assert abs(mat[i, j] - cosine(a[i], b[j]).item()) < 1e-12


def test_cosine_mode_uses_the_parameter_free_unit_row_head():
    model, _, _, _ = tiny_pipeline(seed=7, similarity="cosine")
    assert model.tab_sub is unit_rows and model.text_sub is unit_rows
    assert not any("sub" in n for n in model.store.names())


def test_cosine_head_similarity_matrices_are_pairwise_cosine():
    model, _, _, cfg = tiny_pipeline(seed=7, similarity="cosine")
    rng = rng_for(7, "h")
    a = rng.normal(size=(5, cfg.align.d_proj))
    b = rng.normal(size=(5, cfg.align.d_proj))
    want = ((a / np.linalg.norm(a, axis=1, keepdims=True))
            @ (b / np.linalg.norm(b, axis=1, keepdims=True)).T)
    s_text, s_tab = model.similarity_matrices(DTensor(a), DTensor(b))
    assert np.abs(s_text.data - want).max() <= 1e-15
    assert np.abs(s_tab.data - want.T).max() <= 1e-15


def test_ccl_gradients_reach_both_towers():
    model, tokenizer, (train, _, _), cfg = tiny_pipeline(seed=8)
    batch = next(batches(train, 4, "align", seed=0))
    prompts = [build_prompt(r, model.collab.schema, model.template)
               for r in batch.raw_rows]
    ids, mask = tokenizer.encode_batch(prompts)
    with Tape() as tape:
        loss = model.ccl(batch, ids, mask, train=True)[0]
    tape.backward(loss)
    store = model.store
    collab = [np.linalg.norm(store[n].grad) for n in store.names()
              if n.startswith("collab.")]
    text = [np.linalg.norm(store[n].grad) for n in store.names()
            if n.startswith("text.")]
    assert max(collab) > 0
    assert max(text) > 0


@pytest.mark.parametrize("similarity", ["maxsim", "cosine"])
def test_ccl_gradients_match_finite_differences(similarity):
    model, tokenizer, (train, _, _), cfg = tiny_pipeline(seed=9,
                                                         similarity=similarity)
    batch = next(batches(train, 4, "align", seed=0))
    prompts = [build_prompt(r, model.collab.schema, model.template)
               for r in batch.raw_rows]
    ids, mask = tokenizer.encode_batch(prompts)

    def forward():
        return model.ccl(batch, ids, mask, train=True)[0]

    store_grad_check(model.store, forward, sample=3,
                     rng=np.random.default_rng(2))


def test_align_train_zero_lr_leaves_loss_unchanged():
    model, tokenizer, (train, _, _), cfg = tiny_pipeline(
        seed=10, start_lr=0.0, peak_lr=0.0, warmup_steps=0)
    before = evaluate_ccl(model, train, tokenizer, cfg.align, seed=0)
    result = align_train(model, train, tokenizer, cfg.align, seed=0)
    after = evaluate_ccl(model, train, tokenizer, cfg.align, seed=0)
    assert result.steps > 0
    assert after == before


def test_align_train_reduces_loss_and_is_deterministic():
    curves = []
    for _ in range(2):
        model, tokenizer, (train, _, _), cfg = tiny_pipeline(
            seed=11, peak_lr=5e-3, warmup_steps=2, epochs=4)
        result = align_train(model, train, tokenizer, cfg.align, seed=11)
        curves.append(result.curve)
    assert curves[0] == curves[1]  # bit-identical loss curves
    losses = [row[2] for row in curves[0]]
    assert losses[-1] < losses[0]
    assert not curves[0][0] == curves[0][-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_align_train_divergence_restores_last_good_state():
    model, tokenizer, (train, _, _), cfg = tiny_pipeline(
        seed=12, peak_lr=1e12, warmup_steps=0, epochs=3)
    with pytest.warns(UserWarning, match="diverged"):
        result = align_train(model, train, tokenizer, cfg.align, seed=12)
    assert result.diverged
    for name in model.store.names():
        assert np.isfinite(model.store[name].data).all()
    # training remains usable after restore
    evaluate_ccl(model, train, tokenizer, cfg.align, seed=0)


def test_write_curve_round_trips_exactly(tmp_path):
    curve = [(0, 1e-5, 0.7283561, 0.81, 0.6467122),
             (1, 2e-5, 0.7019, 0.79, 0.6148)]
    path = tmp_path / "curve.csv"
    write_curve(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "lr", "loss", "l_t2t", "l_tab2text"]
    parsed = [(int(r[0]),) + tuple(float(v) for v in r[1:]) for r in rows[1:]]
    assert parsed == curve
