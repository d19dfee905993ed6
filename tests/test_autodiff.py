import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrl.autodiff as ad
from ctrl.autodiff import DTensor, Tape
from ctrl.data import batches
from ctrl.exceptions import NumericError, ShapeError, UsageError
from ctrl.prompt import build_prompt

from helpers import (check_grads, composed_layer_norm, exp, log,
                     logsumexp, max_, mean, neg, reference_backward,
                     reference_batch_norm, reference_layer_norm, slice_,
                     softmax, sub, tiny_pipeline)


def test_dtensor_rejects_nonfinite():
    with pytest.raises(NumericError):
        DTensor([1.0, np.inf])


def test_dtensor_data_is_readonly():
    x = DTensor([1.0, 2.0])
    with pytest.raises(ValueError):
        x.data[0] = 3.0


def test_embedding_lookup_returns_row():
    table = DTensor(np.arange(20, dtype=float).reshape(5, 4))
    out = ad.embedding_lookup(table, np.array([0]))
    assert np.array_equal(out.data, [[0.0, 1.0, 2.0, 3.0]])


def test_embedding_lookup_bounds():
    table = DTensor(np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        ad.embedding_lookup(table, np.array([5]))


def test_relu_forward_and_grad():
    x = DTensor([-1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.relu(x)
        loss = ad.sum_(y)
    assert np.array_equal(y.data, [0.0, 2.0])
    tape.backward(loss)
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_softmax_symmetry():
    y = softmax(DTensor([0.0, 0.0]), axis=0)
    assert np.allclose(y.data, [0.5, 0.5], atol=1e-15)


def test_backward_sum_of_squares():
    x = DTensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(ad.mul(x, x))
    tape.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)


def test_backward_log_softmax_matches_fd():
    # d/dx log(softmax(x))[0] at x=[0,0] is [0.5, -0.5]
    x = DTensor([0.0, 0.0], requires_grad=True)
    with Tape() as tape:
        loss = slice_(log(softmax(x, axis=0)), 0)
    tape.backward(loss)
    assert np.allclose(x.grad, [0.5, -0.5], atol=1e-10)
    check_grads(lambda t: slice_(log(softmax(t["x"], axis=0)), 0),
                {"x": np.array([0.0, 0.0])})


def test_backward_constant_loss_zeroes_leaves():
    x = DTensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        _ = ad.relu(x)  # recorded but unused by the loss
        loss = DTensor(5.0)
    tape.backward(loss)
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_backward_sums_the_adjoints_of_a_leaf_fed_to_two_ops():
    x0 = np.array([0.5, -1.5, 2.0])
    x = DTensor(x0, requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(ad.add(ad.mul(x, DTensor(3.0)), exp(x)))
    tape.backward(loss)
    assert np.array_equal(x.grad, np.exp(x0) + 3.0)


def test_backward_gives_an_unreached_recorded_leaf_zeros():
    x = DTensor([1.0, 2.0], requires_grad=True)
    y = DTensor([[3.0, -1.0]], requires_grad=True)
    with Tape() as tape:
        z = exp(y)  # recorded, but not on the loss's path
        neg(z)
        u = ad.mul(x, x)
        loss = ad.sum_(u)
    tape.backward(loss)
    assert np.array_equal(x.grad, [2.0, 4.0])
    assert np.array_equal(y.grad, [[0.0, 0.0]])
    assert z.grad is None and u.grad is None  # only leaves get a grad


def test_backward_leaves_of_one_add_do_not_share_a_grad_array():
    a = DTensor([1.0, 2.0], requires_grad=True)
    b = DTensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(ad.add(a, b))
    tape.backward(loss)
    assert np.array_equal(a.grad, [1.0, 1.0])
    assert np.array_equal(b.grad, [1.0, 1.0])
    assert not np.shares_memory(a.grad, b.grad)


@pytest.mark.parametrize("similarity", ["maxsim", "cosine"])
def test_backward_matches_the_pre_pass_sweep_bit_for_bit(similarity):
    model, tok, (train, _, _), _ = tiny_pipeline(seed=3, similarity=similarity)
    batch = next(batches(train, 4, "align", seed=0))
    ids, mask = tok.encode_batch([build_prompt(r, model.collab.schema,
                                               model.template)
                                  for r in batch.raw_rows])

    def record():
        with Tape() as tape:
            loss, _, _ = model.ccl(batch, ids, mask, train=True)
        return tape, loss

    tape, loss = record()
    tape.backward(loss)
    names = model.store.names()
    got = {n: model.store[n].grad for n in names}
    # backward consumed its tape, so the oracle sweeps a second recording
    tape, loss = record()
    assert tape.nodes
    reference_backward(tape, loss)
    for n in names:
        assert got[n].tobytes() == model.store[n].grad.tobytes(), n


def test_an_intermediate_no_adjoint_reads_is_freed_with_the_forward():
    x = DTensor(np.ones((4, 3)), requires_grad=True)
    w = DTensor(np.ones((3, 2)), requires_grad=True)
    b = DTensor(np.zeros(2), requires_grad=True)
    freed = []

    def forward():
        y = ad.matmul(x, w)  # read by no adjoint: add keeps shapes only
        freed.append(weakref.ref(y.data))
        return ad.sum_(ad.add(y, b))

    # without the cycle collector, only a reference count can free it:
    # nothing on the tape refers to it, and no tensor to the tape
    gc.disable()
    try:
        with Tape() as tape:
            loss = forward()
        assert freed[0]() is None
    finally:
        gc.enable()
    tape.backward(loss)
    assert np.array_equal(x.grad, np.full((4, 3), 2.0))
    assert np.array_equal(w.grad, np.full((3, 2), 4.0))
    assert np.array_equal(b.grad, [4.0, 4.0])


def test_a_tensor_recorded_on_another_tape_is_a_leaf_here():
    x = DTensor([1.0, 2.0], requires_grad=True)
    with Tape() as first:
        y = ad.mul(x, x)
    with Tape() as second:
        loss = ad.sum_(ad.mul(y, DTensor(3.0)))
    assert second.key(y) is y and first.key(y) == 0
    second.backward(loss)
    assert np.array_equal(y.grad, [3.0, 3.0])
    assert x.grad is None


def test_a_tensor_made_before_backward_is_a_leaf_of_what_is_recorded_after():
    x = DTensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        loss = ad.sum_(y)
    tape.backward(loss)
    with tape:
        loss = ad.sum_(ad.mul(y, y))
    tape.backward(loss)
    assert np.array_equal(y.grad, [2.0, 8.0])
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_consumes_its_tape():
    x = DTensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(ad.mul(x, x))
    tape.backward(loss)
    assert tape.nodes == []
    with pytest.raises(UsageError, match="consumed"):
        tape.backward(loss)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_one_taped_ccl_step_keeps_only_what_its_adjoints_read():
    model, tok, (train, _, _), _ = tiny_pipeline(seed=0, n_rows=120,
                                                 backbone="dcn")
    batch = next(batches(train, 32, "align", seed=0))
    ids, mask = tok.encode_batch([build_prompt(r, model.collab.schema,
                                               model.template)
                                  for r in batch.raw_rows])
    gc.collect()
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss, _, _ = model.ccl(batch, ids, mask, train=True)
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.55 MiB measured; a tape that kept every op's inputs and output
    # until backward returned peaked at 2.75 MiB
    assert peak < 2 * 2**20


def test_backward_rejects_nonscalar_loss():
    x = DTensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_empty_tape():
    with Tape() as tape:
        loss = DTensor(1.0)
    with pytest.raises(UsageError):
        tape.backward(loss)


def test_matmul_shape_error_names_extents():
    a = DTensor(np.zeros((2, 3)))
    b = DTensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(a, b)


def test_log_of_zero_raises_numeric_error():
    with pytest.raises(NumericError, match="log"):
        log(DTensor([0.0]))


def test_l2_normalize_unit_norm():
    rng = np.random.default_rng(3)
    x = DTensor(rng.normal(size=(5, 7)))
    y = ad.l2_normalize(x, axis=1)
    norms = np.linalg.norm(y.data, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_l2_normalize_zero_vector_warns_and_passes_zero():
    x = DTensor(np.zeros((1, 3)), requires_grad=True)
    with pytest.warns(UserWarning, match="zero-norm"):
        with Tape() as tape:
            y = ad.l2_normalize(x, axis=1)
            loss = ad.sum_(y)
    assert np.array_equal(y.data, np.zeros((1, 3)))
    tape.backward(loss)
    assert np.array_equal(x.grad, np.zeros((1, 3)))


def test_batch_norm_train_normalizes_and_updates_running():
    rng = np.random.default_rng(5)
    x = DTensor(rng.normal(loc=3.0, scale=2.0, size=(64, 4)))
    gamma = DTensor(np.ones(4))
    beta = DTensor(np.zeros(4))
    rm = np.zeros(4)
    rv = np.ones(4)
    y = ad.batch_norm(x, gamma, beta, rm, rv, train=True)
    assert np.abs(y.data.mean(axis=0)).max() < 1e-10
    assert np.abs(y.data.std(axis=0) - 1.0).max() < 1e-3
    assert np.allclose(rm, 0.1 * x.data.mean(axis=0))


def test_batch_norm_eval_uses_running_stats():
    x = DTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    gamma = DTensor(np.ones(2))
    beta = DTensor(np.zeros(2))
    rm = np.array([1.0, 1.0])
    rv = np.array([4.0, 4.0])
    y = ad.batch_norm(x, gamma, beta, rm, rv, train=False)
    assert np.allclose(y.data, (x.data - 1.0) / np.sqrt(4.0 + 1e-5))
    assert np.array_equal(rm, [1.0, 1.0])  # untouched in eval


def test_max_ties_route_to_first():
    x = DTensor([[1.0, 3.0, 3.0]], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(max_(x, axis=1))
    tape.backward(loss)
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


def test_slice_grad_scatter():
    x = DTensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(slice_(x, (0, slice(1, None))))
    tape.backward(loss)
    assert np.array_equal(x.grad, [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


def test_concat_grad_splits():
    a = DTensor([[1.0], [2.0]], requires_grad=True)
    b = DTensor([[3.0], [4.0]], requires_grad=True)
    with Tape() as tape:
        c = ad.concat([a, b], axis=1)
        loss = ad.sum_(ad.mul(c, DTensor([[1.0, 10.0], [100.0, 1000.0]])))
    tape.backward(loss)
    assert np.array_equal(a.grad, [[1.0], [100.0]])
    assert np.array_equal(b.grad, [[10.0], [1000.0]])


def test_logsumexp_matches_numpy():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 6)) * 5
    out = logsumexp(DTensor(x), axis=1)
    expected = np.log(np.exp(x).sum(axis=1))
    assert np.allclose(out.data, expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    c = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4)) + 3.0  # positive, for log/div
    mm_w = rng.normal(size=(3, 5))
    tr_w = rng.normal(size=(2, 6))

    cases = {
        "matmul": (lambda t: ad.sum_(ad.mul(ad.matmul(t["a"], t["b"]),
                                            DTensor(mm_w))),
                   {"a": a, "b": b}),
        "add_mul": (lambda t: ad.sum_(ad.mul(ad.add(t["a"], t["c"]), t["a"])),
                    {"a": a, "c": c}),
        "div": (lambda t: ad.sum_(ad.div(t["a"], t["w"])), {"a": a, "w": w}),
        "exp": (lambda t: ad.sum_(exp(t["a"])), {"a": a}),
        "log": (lambda t: ad.sum_(log(t["w"])), {"w": w}),
        "sigmoid": (lambda t: ad.sum_(ad.mul(ad.sigmoid(t["a"]), t["c"])),
                    {"a": a, "c": c}),
        "softmax": (lambda t: ad.sum_(ad.mul(softmax(t["a"], axis=1), t["c"])),
                    {"a": a, "c": c}),
        "mean": (lambda t: mean(ad.mul(t["a"], t["a"])), {"a": a}),
        "max": (lambda t: ad.sum_(max_(t["a"], axis=1)), {"a": a}),
        "l2_normalize": (lambda t: ad.sum_(ad.mul(ad.l2_normalize(t["a"], axis=1), t["c"])),
                         {"a": a, "c": c}),
        "transpose_reshape": (
            lambda t: ad.sum_(ad.mul(ad.reshape(ad.transpose(t["a"], (1, 0)), (2, 6)),
                                     DTensor(tr_w))),
            {"a": a}),
        "logsumexp": (lambda t: ad.sum_(logsumexp(t["a"], axis=1)), {"a": a}),
    }
    for name, (fn, leaves) in cases.items():
        check_grads(fn, leaves)


def test_batch_norm_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(8, 3))
    gamma = rng.normal(size=3) + 1.5
    beta = rng.normal(size=3)
    weights = rng.normal(size=(8, 3))

    def build(t):
        rm = np.zeros(3)
        rv = np.ones(3)
        y = ad.batch_norm(t["x"], t["gamma"], t["beta"], rm, rv, train=True)
        return ad.sum_(ad.mul(y, DTensor(weights)))

    check_grads(build, {"x": x, "gamma": gamma, "beta": beta})


def test_layer_norm_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(4, 6))
    gamma = rng.normal(size=6) + 1.0
    beta = rng.normal(size=6)
    weights = rng.normal(size=(4, 6))
    f = rng.normal(size=(4, 6))

    def build(t):
        y = ad.layer_norm(t["x"], t["f"], t["gamma"], t["beta"])
        return ad.sum_(ad.mul(y, DTensor(weights)))

    check_grads(build, {"x": x, "f": f, "gamma": gamma, "beta": beta})


def test_layer_norm_matches_var_formula_bit_for_bit():
    rng = np.random.default_rng(23)
    x = rng.normal(loc=3.0, scale=2.0, size=(128, 60, 32))
    gamma = rng.normal(size=32) + 1.0
    beta = rng.normal(size=32)
    f = rng.normal(size=(128, 60, 32))
    y = ad.layer_norm(DTensor(x), DTensor(f), DTensor(gamma), DTensor(beta))
    assert np.array_equal(y.data, reference_layer_norm(x + f, gamma, beta))


@pytest.mark.parametrize("shape", [(128, 60, 32), (3, 5)])
def test_residual_layer_norm_is_byte_identical_to_composed(shape):
    rng = np.random.default_rng(31)
    leaves = {"x": rng.normal(loc=1.0, scale=2.0, size=shape),
              "f": rng.normal(size=shape),
              "gamma": rng.normal(size=shape[-1]) + 1.0,
              "beta": rng.normal(size=shape[-1])}
    weights = DTensor(rng.normal(size=shape))
    out = []
    for norm in (ad.layer_norm, composed_layer_norm):
        t = {n: DTensor(a, requires_grad=True) for n, a in leaves.items()}
        with Tape() as tape:
            y = norm(t["x"], t["f"], t["gamma"], t["beta"])
            loss = ad.sum_(ad.mul(y, weights))
        tape.backward(loss)
        out.append([y.data] + [t[n].grad for n in leaves])
    for fused, composed in zip(*out):
        assert fused.tobytes() == composed.tobytes()


def test_layer_norm_rejects_a_residual_of_another_shape():
    x = DTensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="residual"):
        ad.layer_norm(x, DTensor(np.ones(3)), DTensor(np.ones(3)),
                      DTensor(np.zeros(3)))


@pytest.mark.parametrize("train", [True, False])
def test_batch_norm_matches_var_formula_bit_for_bit(train):
    rng = np.random.default_rng(29)
    x = rng.normal(loc=3.0, scale=2.0, size=(128, 64))
    gamma = rng.normal(size=64) + 1.0
    beta = rng.normal(size=64)
    rm, rv = rng.normal(size=64), rng.uniform(0.5, 2.0, size=64)
    ref_rm, ref_rv = rm.copy(), rv.copy()
    y = ad.batch_norm(DTensor(x), DTensor(gamma), DTensor(beta), rm, rv,
                      train=train)
    want = reference_batch_norm(x, gamma, beta, ref_rm, ref_rv, train=train)
    assert np.array_equal(y.data, want)
    assert np.array_equal(rm, ref_rm) and np.array_equal(rv, ref_rv)


def test_embedding_lookup_gradient_scatter_adds():
    table = DTensor(np.zeros((4, 2)), requires_grad=True)
    idx = np.array([1, 1, 3])
    with Tape() as tape:
        rows = ad.embedding_lookup(table, idx)
        loss = ad.sum_(ad.mul(rows, DTensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])))
    tape.backward(loss)
    expected = np.zeros((4, 2))
    expected[1] = [4.0, 6.0]
    expected[3] = [5.0, 6.0]
    assert np.array_equal(table.grad, expected)


def test_embedding_scatter_equals_add_at_bit_for_bit():
    rng = np.random.default_rng(29)
    table = DTensor(rng.normal(size=(7, 5)), requires_grad=True)
    idx = rng.integers(0, 7, size=(40, 3))  # every row repeats
    g = rng.normal(size=(40, 3, 5)) * 10.0 ** rng.integers(-8, 8, size=(40, 3, 1))
    with Tape() as tape:
        ad.embedding_lookup(table, idx)
    (scattered,) = tape.nodes[-1].backward(g)
    expected = np.zeros((7, 5))
    np.add.at(expected, idx, g)
    assert scattered.tobytes() == expected.tobytes()


@pytest.mark.parametrize("op", [ad.add, sub, ad.mul, ad.div])
def test_constant_input_gets_no_adjoint(op):
    rng = np.random.default_rng(31)
    x = DTensor(rng.uniform(1.0, 2.0, size=(3, 4)), requires_grad=True)
    c = DTensor(rng.uniform(1.0, 2.0, size=(4,)))
    g = rng.normal(size=(3, 4))
    for args, const_at in (((x, c), 1), ((c, x), 0)):
        with Tape() as tape:
            op(*args)
        adjoints = tape.nodes[-1].backward(g)
        assert adjoints[const_at] is None
        assert adjoints[1 - const_at].shape == (3, 4)


def test_constants_leave_leaf_gradients_unchanged():
    x0 = np.array([[0.5, -1.5, 2.0], [1.25, 3.0, -0.75]])
    c = np.array([2.0, 4.0, 0.5])
    x = DTensor(x0, requires_grad=True)
    with Tape() as tape:
        y = ad.div(sub(ad.add(ad.mul(x, DTensor(c)), DTensor(c)), DTensor(1.0)),
                   DTensor(c))
        loss = ad.sum_(ad.mul(y, x))
    tape.backward(loss)
    y_data = (x0 * c + c - 1.0) / c
    assert np.array_equal(x.grad, y_data + (x0 / c) * c)


def test_batched_matmul_gradients():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 3))
    w = rng.normal(size=(2, 3, 3))
    check_grads(lambda t: ad.sum_(ad.mul(ad.matmul(t["a"], t["b"]), DTensor(w))),
                {"a": a, "b": b})


def test_determinism_same_seed_same_values():
    def run():
        rng = np.random.default_rng(123)
        x = DTensor(rng.normal(size=(6, 5)), requires_grad=True)
        w = DTensor(rng.normal(size=(5, 2)), requires_grad=True)
        with Tape() as tape:
            h = ad.relu(ad.matmul(x, w))
            loss = mean(ad.mul(h, h))
        tape.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=3))
def test_softmax_rows_sum_to_one(values, extra):
    x = np.array(values + [float(extra)] * extra) if extra else np.array(values)
    y = softmax(DTensor(x), axis=0)
    assert y.data.min() >= 0.0
    assert abs(y.data.sum() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_l2_normalize_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    x[np.abs(x).sum(axis=1) == 0] += 1.0
    y = ad.l2_normalize(DTensor(x), axis=1)
    assert np.abs(np.linalg.norm(y.data, axis=1) - 1.0).max() < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_pass_replays_untaped_and_leaves_the_tape_active():
    x = DTensor(np.full(3, 30.0), requires_grad=True)
    with Tape() as tape:
        with pytest.raises(NumericError, match="^exp"):
            ad.run_pass(lambda: log(exp(ad.mul(x, x))))
        assert ad.active_tape() is tape
    # the unchecked pass only: the replay records neither mul nor exp
    assert [n.op for n in tape.nodes] == ["mul", "exp", "log"]


def test_run_pass_returns_a_finite_pass_as_is():
    x = DTensor(np.arange(3.0), requires_grad=True)
    with Tape() as tape:
        out = ad.run_pass(lambda: (exp(x), ad.mul(x, x)))
    assert [n.op for n in tape.nodes] == ["exp", "mul"]
    assert np.array_equal(out[0].data, np.exp(np.arange(3.0)))
    assert np.array_equal(out[1].data, np.arange(3.0) ** 2)


def test_run_pass_checks_only_what_the_pass_returns():
    def squashed():  # relu(-inf) is 0: the infinity never leaves the pass
        return ad.relu(neg(exp(DTensor([800.0]))))

    with np.errstate(over="ignore"):
        assert ad.run_pass(squashed).data.tolist() == [0.0]
        with pytest.raises(NumericError, match="^exp"):
            squashed()


def test_run_pass_turns_op_checks_back_on_after_an_error():
    def fails():
        assert not ad.op_checks
        raise ShapeError("inside the pass")

    with pytest.raises(ShapeError):
        ad.run_pass(fails)
    assert ad.op_checks
    with pytest.raises(NumericError, match="log"):
        log(DTensor([0.0]))


def test_run_pass_raises_when_its_replay_comes_out_finite():
    calls = []

    def unsteady():  # overflows on its first call only
        calls.append(None)
        return exp(DTensor(900.0 if len(calls) == 1 else 0.0))

    with pytest.raises(NumericError, match="replay did not"):
        with np.errstate(over="ignore"):
            ad.run_pass(unsteady)
