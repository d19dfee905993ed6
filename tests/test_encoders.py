import numpy as np
import pytest

import ctrl.autodiff as ad
from ctrl.autodiff import DTensor, Tape
from ctrl.config import ModelConfig, TextConfig
from ctrl.data import FeatureSchema, FieldSpec, batches, build_vocab, encode
from ctrl.encoders import (CollaborativeEncoder, CrossLayer, TextEncoder,
                           _ATTENTION_TILE_BYTES, scaled_attention)
from ctrl.exceptions import NumericError, ShapeError
from ctrl.params import ParamStore, rng_for

from helpers import (check_grads, composed_attention,
                     composed_field_embeddings, store_grad_check)


def cat_schema(n_fields, vocab=4):
    fields = []
    for i in range(n_fields):
        side = "user" if i % 2 == 0 else "item"
        fields.append(FieldSpec(f"f{i}", "categorical", side,
                                vocab={f"v{j}": j + 1 for j in range(vocab)}))
    return FeatureSchema(fields=tuple(fields))


def rows_for(schema, n, seed=0):
    rng = rng_for(seed, "rows")
    rows = []
    for i in range(n):
        row = {}
        for f in schema.fields:
            if f.kind == "categorical":
                row[f.name] = f"v{rng.integers(0, len(f.vocab))}"
            else:
                k = int(rng.integers(1, 4))
                row[f.name] = "|".join(
                    f"v{rng.integers(0, len(f.vocab))}" for _ in range(k))
        row["label"] = int(rng.integers(0, 2))
        row["timestamp"] = i
        rows.append(row)
    return rows


def batch_for(schema, n=6, seed=0):
    split = encode(rows_for(schema, n, seed), schema)
    return next(batches(split, n, "eval"))


TINY = dict(d=4, hidden=(8, 6), attn_layers=1, attn_heads=2, attn_head_dim=3,
            cross_layers=2)


@pytest.mark.parametrize("backbone,expected_dim", [
    ("autoint", 4 * 6),  # F * (heads * head_dim)
    ("dcn", 6),  # hidden tail
    ("mlp", 6),
])
def test_backbone_output_shapes(backbone, expected_dim):
    schema = cat_schema(4)
    store = ParamStore()
    enc = CollaborativeEncoder(store, schema, ModelConfig(backbone=backbone, **TINY),
                               rng_for(0, "collab"))
    out = enc(batch_for(schema, n=6), train=True)
    assert out.shape == (6, expected_dim)
    assert enc.out_dim == expected_dim


def test_autoint_default_dims_flatten_to_256():
    # 8 fields at the default embedding width flatten to 8 * 32 = 256
    schema = cat_schema(8)
    store = ParamStore()
    enc = CollaborativeEncoder(store, schema, ModelConfig(backbone="autoint"),
                               rng_for(0, "collab"))
    fields = enc.field_embeddings(batch_for(schema, n=3))
    assert fields.shape == (3, 8 * 32)
    assert enc.store["collab.out.w"].shape[0] == 256
    assert enc(batch_for(schema, n=3)).shape == (3, 256)


def test_cross_layer_zero_weights_identity():
    store = ParamStore()
    layer = CrossLayer(store, "c", 3, rng_for(0, "w"))
    store.replace("c.w", DTensor(np.zeros((3, 1)), requires_grad=True))
    x0 = DTensor([[1.0, 2.0, 3.0]])
    x = DTensor([[4.0, 5.0, 6.0]])
    out = layer(x0, x)
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_cross_layer_hand_example():
    store = ParamStore()
    layer = CrossLayer(store, "c", 3, rng_for(0, "w"))
    store.replace("c.w", DTensor(np.array([[0.1], [0.2], [0.3]]),
                                 requires_grad=True))
    store.replace("c.b", DTensor(np.ones(3), requires_grad=True))
    x0 = DTensor([[1.0, 2.0, 3.0]])
    x = DTensor([[4.0, 5.0, 6.0]])
    # x.w = 0.4 + 1.0 + 1.8 = 3.2; x0*3.2 + b + x
    assert np.allclose(layer(x0, x).data, [[8.2, 12.4, 16.6]], atol=1e-12)


def test_sequence_field_mean_pooling():
    schema = FeatureSchema(fields=(
        FieldSpec("u", "categorical", "user",
                  vocab={"a": 1}),
        FieldSpec("hist", "sequence", "item",
                  vocab={"x": 1, "y": 2, "z": 3}),
    ), max_seq_len=4)
    store = ParamStore()
    enc = CollaborativeEncoder(store, schema, ModelConfig(backbone="mlp", **TINY),
                               rng_for(0, "collab"))
    rows = [
        {"u": "a", "hist": "x|z", "label": 0, "timestamp": 0},
        {"u": "a", "hist": "", "label": 0, "timestamp": 1},
    ]
    split = encode(rows, schema)
    batch = next(batches(split, 2, "eval"))
    pooled = enc.field_embeddings(batch).data[:, 4:8]  # field 1 of d = 4
    table = store["collab.emb.hist"].data
    assert np.allclose(pooled[0], (table[1] + table[3]) / 2.0, atol=1e-12)
    assert np.array_equal(pooled[1], np.zeros(4))  # empty -> zero vector


@pytest.mark.parametrize("backbone", ["autoint", "dcn", "mlp"])
def test_field_embeddings_match_the_composed_oracle_bit_for_bit(backbone):
    # a sequence field between two categorical ones, with an all-padding
    # row, a full row and repeated ids, so table rows take several terms
    schema = FeatureSchema(fields=(
        FieldSpec("u", "categorical", "user", vocab={"a": 1, "b": 2}),
        FieldSpec("hist", "sequence", "item", vocab={"x": 1, "y": 2, "z": 3}),
        FieldSpec("i", "categorical", "item", vocab={"p": 1, "q": 2}),
    ), max_seq_len=3)
    rows = [{"u": "a", "hist": "x|z", "i": "p"}, {"u": "b", "hist": "", "i": "q"},
            {"u": "a", "hist": "y|y|x", "i": ""}, {"u": "c", "hist": "z", "i": "p"},
            {"u": "b", "hist": "x|x", "i": "q"}]
    split = encode([dict(r, label=k % 2, timestamp=k) for k, r in enumerate(rows)],
                   schema)
    runs = []
    for fused in (True, False):
        store = ParamStore()
        enc = CollaborativeEncoder(store, schema,
                                   ModelConfig(backbone=backbone, **TINY),
                                   rng_for(0, "collab"))
        w = DTensor(rng_for(1, "w").normal(size=(len(rows), enc.out_dim)))
        fields = (enc.field_embeddings(split) if fused
                  else composed_field_embeddings(enc, split))
        if not fused:
            enc.field_embeddings = lambda b, enc=enc: composed_field_embeddings(enc, b)
        with Tape() as tape:
            out = enc(split, train=True)
            loss = ad.sum_(ad.mul(out, w))
        tape.backward(loss)
        runs.append([fields.data.tobytes(), out.data.tobytes()]
                    + [store[n].grad.tobytes() for n in store.names()])
    assert runs[0] == runs[1]


def test_schema_mismatch_rejected():
    schema_a = cat_schema(3)
    schema_b = cat_schema(4)
    store = ParamStore()
    enc = CollaborativeEncoder(store, schema_a, ModelConfig(backbone="mlp", **TINY),
                               rng_for(0, "collab"))
    with pytest.raises(ShapeError):
        enc(batch_for(schema_b, n=4))


def test_attention_weights_sum_to_one():
    rng = rng_for(3, "attn")
    q = DTensor(rng.normal(size=(2, 2, 5, 3)))
    k = DTensor(rng.normal(size=(2, 2, 5, 3)))
    v = DTensor(rng.normal(size=(2, 2, 5, 3)))
    _, w = scaled_attention(q, k, v)
    assert np.abs(w.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_masked_attention_excludes_masked_keys():
    rng = rng_for(4, "attn")
    q = DTensor(rng.normal(size=(1, 1, 4, 3)))
    k = DTensor(rng.normal(size=(1, 1, 4, 3)))
    v = DTensor(rng.normal(size=(1, 1, 4, 3)))
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    additive = (mask[:, None, None, :] - 1.0) * 1e9
    _, w = scaled_attention(q, k, v, additive_mask=additive)
    assert np.all(w.data[..., 2:] == 0.0)
    assert np.abs(w.data[..., :2].sum(axis=-1) - 1.0).max() < 1e-12


def _attention_leaves(padded: bool, n: int = 3, length: int = 5,
                      width: int = 6):
    """Inputs laid out as a transformer block feeds attention: (N, L, H*dh)
    projections split into 2 heads, plus the padding mask over keys. Row
    lengths cycle through 3, L, 1 and L - 7."""
    rng = rng_for(6, "attn")
    leaves = {name: rng.normal(size=(n, length, width)) for name in ("q", "k", "v")}
    lengths = np.resize([3, length, 1, length - 7], n)
    mask = (np.arange(length) < lengths[:, None]).astype(float)
    additive = (mask[:, None, None, :] - 1.0) * 1e9 if padded else None
    return leaves, additive


def _attention_loss(attend, t, additive):
    n, length, width = t["q"].shape
    heads = {name: ad.transpose(ad.reshape(x, (n, length, 2, width // 2)),
                                (0, 2, 1, 3))
             for name, x in t.items()}
    ctx, w = attend(heads["q"], heads["k"], heads["v"], additive_mask=additive)
    weight = DTensor(np.linspace(-1.0, 1.0, ctx.size).reshape(ctx.shape))
    return ad.sum_(ad.mul(ctx, weight)), ctx, w


def _assert_fused_equals_composed(leaves, additive):
    """Context, weights and q/k/v gradients of the fused op equal the
    composed oracle's byte for byte, and the weights are read-only."""
    out = []
    for attend in (scaled_attention, composed_attention):
        t = {n: DTensor(x, requires_grad=True) for n, x in leaves.items()}
        with Tape() as tape:
            loss, ctx, w = _attention_loss(attend, t, additive)
        tape.backward(loss)
        out.append([ctx.data, w.data] + [t[n].grad for n in ("q", "k", "v")])
    for fused, composed in zip(*out):
        assert fused.tobytes() == composed.tobytes()
    assert not out[0][1].flags.writeable


@pytest.mark.parametrize("padded", [False, True])
def test_fused_attention_is_byte_identical_to_composed(padded):
    _assert_fused_equals_composed(*_attention_leaves(padded))


# rows per tile at L = 60 and H = 2, the benchmark's text tower
ROWS = _ATTENTION_TILE_BYTES // (2 * 60 * 60 * 8)


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("n", [2 * ROWS + 3, ROWS, ROWS - 1])
def test_tiled_attention_is_byte_identical_to_composed(n, padded):
    assert ROWS > 2, "the sizes below would not cross a tile boundary"
    _assert_fused_equals_composed(
        *_attention_leaves(padded, n=n, length=60, width=32))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_attention_overflow_in_the_last_tile_raises_numeric_error():
    n = 2 * ROWS + 3
    rng = rng_for(7, "attn")
    q, k, v = (rng.normal(size=(n, 2, 60, 16)) for _ in range(3))
    q[-1, :, 0] = k[-1, :, 0] = 1e200
    with pytest.raises(NumericError, match="attention: scores are not finite"):
        scaled_attention(DTensor(q), DTensor(k), DTensor(v))


def test_attention_rejects_unlike_leading_axes():
    q = DTensor(np.zeros((2, 2, 5, 3)))
    with pytest.raises(ShapeError, match="attention"):
        scaled_attention(q, DTensor(np.zeros((1, 2, 5, 3))), q)
    x = DTensor(np.zeros((5, 3)))
    with pytest.raises(ShapeError, match="attention"):
        scaled_attention(x, x, x)


@pytest.mark.parametrize("padded", [False, True])
def test_fused_attention_gradients_match_finite_differences(padded):
    leaves, additive = _attention_leaves(padded)
    check_grads(lambda t: _attention_loss(scaled_attention, t, additive)[0],
                leaves)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_attention_overflow_raises_numeric_error():
    q = DTensor(np.full((1, 1, 2, 2), 1e200))
    with pytest.raises(NumericError, match="attention"):
        scaled_attention(q, q, q)


TEXT_TINY = TextConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, max_tokens=16)


def make_text_encoder(seed=0, vocab_size=11):
    store = ParamStore()
    return TextEncoder(store, vocab_size, TEXT_TINY, rng_for(seed, "text"))


def test_single_token_pooled_equals_hidden_state():
    enc = make_text_encoder()
    ids = np.array([[5]])
    mask = np.ones((1, 1))
    pooled = enc(ids, mask)
    hidden = enc.hidden_states(ids, mask)
    assert np.allclose(pooled.data, hidden.data[:, 0, :], atol=1e-14)


def test_pad_content_is_irrelevant():
    enc = make_text_encoder()
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    a = enc(np.array([[5, 7, 0, 0]]), mask)
    b = enc(np.array([[5, 7, 9, 3]]), mask)
    assert np.abs(a.data - b.data).max() < 1e-10


def test_batch_padding_width_is_irrelevant():
    enc = make_text_encoder()
    short = enc(np.array([[5, 7]]), np.ones((1, 2)))
    padded = enc(np.array([[5, 7, 0, 0, 0]]),
                 np.array([[1.0, 1.0, 0.0, 0.0, 0.0]]))
    assert np.abs(short.data - padded.data).max() < 1e-10


def test_identical_rows_identical_outputs():
    enc = make_text_encoder()
    ids = np.array([[4, 2, 9], [4, 2, 9]])
    out = enc(ids, np.ones((2, 3)))
    assert np.array_equal(out.data[0], out.data[1])


def test_all_masked_row_becomes_zero_with_warning():
    enc = make_text_encoder()
    ids = np.array([[4, 2], [0, 0]])
    mask = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.warns(UserWarning, match="all-masked"):
        out = enc(ids, mask)
    assert np.array_equal(out.data[1], np.zeros(8))
    assert not np.array_equal(out.data[0], np.zeros(8))


def test_text_encoder_rejects_overlong_input():
    enc = make_text_encoder()
    ids = np.zeros((1, 17), dtype=np.int64)
    with pytest.raises(ShapeError):
        enc(ids, np.ones((1, 17)))


def test_text_encoder_deterministic_across_instances():
    a = make_text_encoder(seed=9)
    b = make_text_encoder(seed=9)
    ids = np.array([[1, 2, 3]])
    mask = np.ones((1, 3))
    assert np.array_equal(a(ids, mask).data, b(ids, mask).data)


@pytest.mark.parametrize("backbone", ["autoint", "dcn", "mlp"])
def test_backbone_gradients_match_finite_differences(backbone):
    schema = cat_schema(3, vocab=3)
    store = ParamStore()
    enc = CollaborativeEncoder(store, schema,
                               ModelConfig(backbone=backbone, **TINY),
                               rng_for(1, "collab"))
    batch = batch_for(schema, n=4, seed=2)
    weights = rng_for(2, "loss").normal(size=(4, enc.out_dim))

    def forward():
        return ad.sum_(ad.mul(enc(batch, train=True), DTensor(weights)))

    store_grad_check(store, forward, sample=4, rng=np.random.default_rng(0))


def test_text_encoder_gradients_match_finite_differences():
    store = ParamStore()
    enc = TextEncoder(store, 7, TextConfig(d_model=4, n_layers=1, n_heads=2,
                                           d_ff=6, max_tokens=8),
                      rng_for(3, "text"))
    ids = np.array([[1, 4, 2], [5, 3, 0]])
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    weights = rng_for(4, "loss").normal(size=(2, 4))

    def forward():
        return ad.sum_(ad.mul(enc(ids, mask), DTensor(weights)))

    store_grad_check(store, forward, sample=4, rng=np.random.default_rng(1))
