import ast
from pathlib import Path

import numpy as np
import pytest

import ctrl
import ctrl.autodiff as ad
from ctrl.autodiff import DTensor, Tape
from ctrl.exceptions import NumericError, UsageError
from ctrl.optim import AdamW
from ctrl.params import ParamStore, rng_for, xavier_uniform

from helpers import ReferenceAdamW


def test_rng_for_streams_are_stable_and_distinct():
    a1 = rng_for(42, "emb").normal(size=4)
    a2 = rng_for(42, "emb").normal(size=4)
    b = rng_for(42, "head").normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_rng_for_rejects_negative_seed():
    with pytest.raises(UsageError):
        rng_for(-1, "x")


def test_xavier_uniform_bound():
    rng = rng_for(0, "w")
    w = xavier_uniform(rng, 100, 50)
    bound = np.sqrt(6.0 / 150.0)
    assert w.shape == (100, 50)
    assert np.abs(w).max() <= bound


def test_param_store_basics():
    store = ParamStore()
    p = store.add("w", np.ones((2, 2)))
    assert isinstance(p, DTensor)
    assert store["w"] is p
    with pytest.raises(UsageError):
        store.add("w", np.zeros(1))
    assert store.names() == ["w"]


def test_param_store_snapshot_restore():
    store = ParamStore()
    store.add("w", np.ones(3))
    store.add_buffer("rm", np.zeros(2))
    snap = store.snapshot()
    store.replace("w", DTensor(np.full(3, 9.0), requires_grad=True))
    store.buffer("rm")[0] = 5.0
    store.restore(snap)
    assert np.array_equal(store["w"].data, np.ones(3))
    assert np.array_equal(store.buffer("rm"), np.zeros(2))


def _quadratic_step(store, opt, lr):
    x = store["x"]
    with Tape() as tape:
        loss = ad.sum_(ad.mul(x, x))
    tape.backward(loss)
    opt.step(lr)


def test_adamw_first_step_matches_signed_gradient_step():
    # at step 1 bias correction cancels the betas, so with no decay the
    # update is -lr * g / (|g| + eps)
    store = ParamStore()
    store.add("x", np.array([2.0, -3.0]))
    opt = AdamW(store, weight_decay=0.0)
    g = 2.0 * np.array([2.0, -3.0])
    _quadratic_step(store, opt, lr=0.1)
    expected = np.array([2.0, -3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(store["x"].data, expected, atol=1e-12)


def test_adamw_decoupled_decay_shrinks_even_with_zero_grad():
    store = ParamStore()
    store.add("x", np.array([4.0]))
    opt = AdamW(store, weight_decay=0.5)
    store["x"].grad = np.zeros(1)
    opt.step(lr=0.1)
    # zero gradient: adam term is exactly zero, decay still applies
    assert np.allclose(store["x"].data, 4.0 - 0.1 * 0.5 * 4.0, atol=1e-15)


def test_adamw_lr_zero_is_noop():
    store = ParamStore()
    store.add("x", np.array([1.0, 2.0]))
    opt = AdamW(store)
    store["x"].grad = np.array([1.0, 1.0])
    opt.step(lr=0.0)
    assert np.array_equal(store["x"].data, [1.0, 2.0])


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_matches_the_per_parameter_oracle_bit_for_bit(weight_decay):
    rng = np.random.default_rng(7)
    stores = ParamStore(), ParamStore()
    for name, shape in (("tower.w", (3, 4)), ("tower.b", (4,)),
                        ("emb", (2, 2, 2)), ("head", (1,))):
        value = rng.normal(size=shape)
        for store in stores:
            store.add(name, value)
    opt = AdamW(stores[0], weight_decay=weight_decay)
    ref = ReferenceAdamW(stores[1], weight_decay=weight_decay)
    for step in range(4):
        for name in stores[0].names():
            g = rng.normal(size=stores[0][name].shape) * 10.0 ** (step - 2)
            stores[0][name].grad, stores[1][name].grad = g.copy(), g.copy()
        lr = 1e-2 * (step + 1)
        opt.step(lr)
        ref.step(lr)
        for name in stores[0].names():
            assert (stores[0][name].data.tobytes()
                    == stores[1][name].data.tobytes()), (step, name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_adamw_non_finite_update_replaces_no_parameter():
    store = ParamStore()
    store.add("a", np.ones(2))
    store.add("b", np.ones(2))
    before = {n: store[n] for n in store.names()}
    store["a"].grad = np.ones(2)
    store["b"].grad = np.array([np.inf, 1.0])
    with pytest.raises(NumericError, match="adamw: update produced non-finite"):
        AdamW(store).step(lr=0.1)
    assert all(store[n] is before[n] for n in store.names())


def test_adamw_successors_are_read_only_views_of_one_array():
    store = ParamStore()
    store.add("a", np.ones((2, 3)))
    store.add("b", np.ones(4))
    for n in store.names():
        store[n].grad = np.ones(store[n].shape)
    AdamW(store).step(lr=0.1)
    a, b = store["a"].data, store["b"].data
    assert a.shape == (2, 3) and b.shape == (4,)
    assert a.base is not None and a.base is b.base
    assert not a.flags.writeable and not b.flags.writeable


def test_adamw_missing_grad_names_parameter():
    store = ParamStore()
    store.add("tower.w", np.ones(2))
    opt = AdamW(store)
    with pytest.raises(UsageError, match="tower.w"):
        opt.step(lr=0.1)


def test_adamw_unknown_name_rejected():
    store = ParamStore()
    store.add("a", np.ones(1))
    with pytest.raises(UsageError):
        AdamW(store, names=["a", "missing"])


def test_adamw_converges_on_quadratic():
    store = ParamStore()
    store.add("x", np.array([5.0, -4.0]))
    opt = AdamW(store, weight_decay=0.0)
    for _ in range(400):
        _quadratic_step(store, opt, lr=0.05)
    assert np.abs(store["x"].data).max() < 1e-2


def _pair_store(a):
    store = ParamStore()
    store.add("a", np.array(a))
    store.add("b", np.array([0.5, -4.0, 2.0]))
    return store


def _objective(store, rng):
    """(loss, a side output): a dropout draw makes the pass use its rng."""
    a, b = store["a"], store["b"]
    kept = ad.dropout(b, 0.5, train=True, rng=rng)
    loss = ad.add(ad.sum_(ad.mul(a, a)), ad.sum_(ad.mul(kept, b)))
    return loss, ad.sum_(a)


def test_minimize_returns_the_pass_and_equals_the_hand_written_step():
    stores = _pair_store([1.0, -2.0, 3.0]), _pair_store([1.0, -2.0, 3.0])
    opts = AdamW(stores[0]), AdamW(stores[1])
    rngs = rng_for(0, "drop"), rng_for(0, "drop")
    made = []

    def fn():
        made.append(_objective(stores[0], rngs[0]))
        return made[-1]

    for step in range(3):
        lr = 0.1 * (step + 1)
        out = opts[0].minimize(lr, fn, rngs[0])
        assert out is made[-1]
        with Tape() as tape:
            ref = ad.run_pass(lambda: _objective(stores[1], rngs[1]), rngs[1])
        tape.backward(ref[0])
        opts[1].step(lr)
        assert [t.item() for t in out] == [t.item() for t in ref]
        for name in stores[0].names():
            assert (stores[0][name].data.tobytes()
                    == stores[1][name].data.tobytes()), (step, name)
    assert opts[0].t == 3


def test_minimize_on_a_non_finite_pass_replaces_no_parameter():
    store = _pair_store([1e200, 1.0, 1.0])  # 1e200 squared overflows
    opt = AdamW(store)
    before = {n: store[n] for n in store.names()}
    with pytest.raises(NumericError, match="mul: produced non-finite"):
        opt.minimize(0.1, lambda: _objective(store, rng_for(0, "drop")))
    assert all(store[n] is before[n] for n in store.names())
    assert opt.t == 0


def _step_calls(path: Path) -> list:
    """The `Tape(...)` and `.backward(...)` calls of a module, as written."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(ast.unparse(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("Tape", "backward"))


def test_only_the_optimizer_drives_a_taped_step():
    calls = {p.name: _step_calls(p)
             for p in sorted(Path(ctrl.__file__).parent.glob("*.py"))}
    assert len(calls) > 10
    # the gate sees the step it exists to confine
    assert calls.pop("optim.py") == ["Tape", "tape.backward"]
    # Tape.backward runs each recorded node's adjoint, also named backward
    assert calls.pop("autodiff.py") == ["node.backward"]
    assert {name: c for name, c in calls.items() if c} == {}

