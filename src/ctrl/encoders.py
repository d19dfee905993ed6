"""The two towers.

CollaborativeEncoder turns per-field integer ids into a dense representation
via one embedding table per field followed by a feature-interaction backbone
(autoint: stacked multi-head self-attention over fields; dcn: cross network in
parallel with an MLP; mlp: plain stack), whose input, all fields' embeddings,
is one taped op. TextEncoder is a compact transformer over prompt token ids
with mean pooling of the unmasked last hidden states.

All parameters live in a shared ParamStore under dotted prefixes; layers look
their tensors up by name at call time so optimizer updates are always visible.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DTensor
from .config import ModelConfig, TextConfig
from .data import EncodedSplit, FeatureSchema
from .exceptions import NumericError, ShapeError, UsageError
from .params import ParamStore, xavier_uniform


class Linear:
    def __init__(self, store: ParamStore, prefix: str, d_in: int, d_out: int,
                 rng, bias: bool = True):
        store.add(f"{prefix}.w", xavier_uniform(rng, d_in, d_out))
        if bias:
            store.add(f"{prefix}.b", np.zeros(d_out))
        self.store = store
        self.prefix = prefix
        self.bias = bias

    def __call__(self, x: DTensor) -> DTensor:
        out = ad.matmul(x, self.store[f"{self.prefix}.w"])
        if self.bias:
            out = ad.add(out, self.store[f"{self.prefix}.b"])
        return out


class BatchNorm1d:
    def __init__(self, store: ParamStore, prefix: str, dim: int):
        store.add(f"{prefix}.gamma", np.ones(dim))
        store.add(f"{prefix}.beta", np.zeros(dim))
        store.add_buffer(f"{prefix}.running_mean", np.zeros(dim))
        store.add_buffer(f"{prefix}.running_var", np.ones(dim))
        self.store = store
        self.prefix = prefix

    def __call__(self, x: DTensor, train: bool) -> DTensor:
        s, p = self.store, self.prefix
        return ad.batch_norm(x, s[f"{p}.gamma"], s[f"{p}.beta"],
                             s.buffer(f"{p}.running_mean"),
                             s.buffer(f"{p}.running_var"), train=train)


class LayerNorm:
    def __init__(self, store: ParamStore, prefix: str, dim: int):
        store.add(f"{prefix}.gamma", np.ones(dim))
        store.add(f"{prefix}.beta", np.zeros(dim))
        self.store = store
        self.prefix = prefix

    def __call__(self, x: DTensor, f: DTensor) -> DTensor:
        s, p = self.store, self.prefix
        return ad.layer_norm(x, f, s[f"{p}.gamma"], s[f"{p}.beta"])


class MLPStack:
    """linear -> batch norm -> relu, repeated over `hidden`."""

    def __init__(self, store, prefix, d_in, hidden, rng,
                 batch_norm: bool = True):
        self.layers = []
        self.norms = []
        d = d_in
        for i, h in enumerate(hidden):
            # bias is redundant under batch norm (beta plays that role)
            self.layers.append(Linear(store, f"{prefix}.l{i}", d, h, rng,
                                      bias=not batch_norm))
            self.norms.append(BatchNorm1d(store, f"{prefix}.bn{i}", h)
                              if batch_norm else None)
            d = h
        self.d_out = d

    def __call__(self, x: DTensor, train: bool) -> DTensor:
        for lin, norm in zip(self.layers, self.norms):
            x = lin(x)
            if norm is not None:
                x = norm(x, train)
            x = ad.relu(x)
        return x


# Bytes of one attention tile's scores: small enough to stay in cache
# through the tile's softmax and both of its products with them.
_ATTENTION_TILE_BYTES = 512 * 1024


def scaled_attention(q: DTensor, k: DTensor, v: DTensor,
                     additive_mask: Optional[np.ndarray] = None):
    """Scaled dot-product attention over the last two axes.

    q, k, v: (N, ..., L, d_head), alike but in the last axis. Returns
    (context (N, ..., L, d_head), weights (N, ..., L, L)); weights rows sum
    to 1 over keys. One taped op: only the weights are kept for the backward
    pass, and the weights returned are not taped. Both passes run in tiles of
    rows of N. Each row's float operations and their order are those of
    composing matmul, scale, mask, softmax and matmul as separate taped ops.
    """
    if q.ndim < 3 or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise ShapeError(f"attention: unlike q, k, v {q.shape} {k.shape} {v.shape}")
    scale = 1.0 / np.sqrt(q.shape[-1])
    kt = np.swapaxes(k.data, -1, -2)
    w = np.empty(q.shape[:-1] + (k.shape[-2],))
    ctx = np.empty(q.shape[:-1] + (v.shape[-1],))
    mask = None if additive_mask is None else np.broadcast_to(additive_mask, w.shape)
    rows = max(1, _ATTENTION_TILE_BYTES // max(8, w[:1].nbytes))
    tiles = [slice(i, i + rows) for i in range(0, len(w), rows)]
    for t in tiles:
        wt = w[t]
        np.matmul(q.data[t], kt[t], out=wt)
        wt *= scale
        if mask is not None:
            wt += mask[t]
        if ad.op_checks and not np.all(np.isfinite(wt)):
            raise NumericError("attention: scores are not finite")
        wt -= wt.max(axis=-1, keepdims=True)
        np.exp(wt, out=wt)
        wt /= wt.sum(axis=-1, keepdims=True)
        np.matmul(wt, v.data[t], out=ctx[t])

    def bwd(g):
        gq, gkt, gv = np.empty(q.shape), np.empty(kt.shape), np.empty(v.shape)
        scratch = np.empty(w[:rows].shape)
        for t in tiles:
            wt = w[t]
            gs = scratch[:len(wt)]
            np.matmul(np.swapaxes(wt, -1, -2), g[t], out=gv[t])
            np.matmul(g[t], np.swapaxes(v.data[t], -1, -2), out=gs)
            gs -= (gs * wt).sum(axis=-1, keepdims=True)
            gs *= wt
            gs *= scale
            np.matmul(gs, k.data[t], out=gq[t])
            np.matmul(np.swapaxes(q.data[t], -1, -2), gs, out=gkt[t])
        return gq, np.swapaxes(gkt, -1, -2), gv

    ctx = ad.apply_op("attention", (q, k, v), ctx, bwd)
    # no inputs, so nothing is recorded and nothing copied
    return ctx, ad.apply_op("attention", (), w, None)


class SelfAttention:
    """Multi-head self-attention: bias-free projections `{prefix}.q/.k/.v`
    from d_in to n_heads heads of width d_head, attended per head and merged
    back to (N, L, n_heads * d_head)."""

    def __init__(self, store, prefix, d_in, n_heads, d_head, rng):
        self.n_heads, self.d_head = n_heads, d_head
        self.d_out = n_heads * d_head
        self.q, self.k, self.v = (
            Linear(store, f"{prefix}.{n}", d_in, self.d_out, rng, bias=False)
            for n in "qkv")

    def __call__(self, x: DTensor,
                 additive_mask: Optional[np.ndarray] = None) -> DTensor:
        def heads(lin):  # (N, H, L, d_head)
            h = ad.reshape(lin(x), x.shape[:2] + (self.n_heads, self.d_head))
            return ad.transpose(h, (0, 2, 1, 3))

        ctx, _ = scaled_attention(heads(self.q), heads(self.k), heads(self.v),
                                  additive_mask=additive_mask)
        return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)),
                          x.shape[:2] + (self.d_out,))


class FieldAttention:
    """One multi-head self-attention interaction layer over field embeddings,
    with a residual projection and relu (AutoInt-style)."""

    def __init__(self, store, prefix, d_in, n_heads, d_head, rng):
        self.attn = SelfAttention(store, prefix, d_in, n_heads, d_head, rng)
        self.d_out = self.attn.d_out
        self.res = Linear(store, f"{prefix}.res", d_in, self.d_out, rng,
                          bias=False)

    def __call__(self, x: DTensor) -> DTensor:
        return ad.relu(ad.add(self.attn(x), self.res(x)))


class CrossLayer:
    """x_{l+1} = x0 * (x_l w) + b + x_l, bit-wise feature crossing."""

    def __init__(self, store, prefix, dim, rng):
        store.add(f"{prefix}.w", xavier_uniform(rng, dim, 1))
        store.add(f"{prefix}.b", np.zeros(dim))
        self.store = store
        self.prefix = prefix

    def __call__(self, x0: DTensor, x: DTensor) -> DTensor:
        s, p = self.store, self.prefix
        gate = ad.matmul(x, s[f"{p}.w"])  # (N, 1)
        return ad.add(ad.add(ad.mul(x0, gate), s[f"{p}.b"]), x)


class CollaborativeEncoder:
    """Field-embedding tower with a pluggable interaction backbone, whose
    natural width `out_dim` is F·heads·head_dim (autoint) or hidden[-1]."""

    prefix = "collab"

    def __init__(self, store: ParamStore, schema: FeatureSchema,
                 cfg: ModelConfig, rng):
        if not schema.fitted:
            raise UsageError("collaborative encoder needs a fitted schema")
        self.store = store
        self.schema = schema
        self.cfg = cfg
        prefix = self.prefix
        d = cfg.d
        for f in schema.fields:
            store.add(f"{prefix}.emb.{f.name}", xavier_uniform(rng, f.vocab_size, d))
        widths = schema.widths
        rows = [f.vocab_size for f in schema.fields]
        self.first = np.cumsum((0,) + widths[:-1])  # each field's first id column
        self.bounds = np.repeat(rows, widths)  # each id column's table size
        # each id column's first row in the stacked tables
        self.offsets = np.repeat(np.cumsum([0] + rows[:-1]), widths)
        self.seq_cols = [(i, slice(k, k + w)) for i, (f, k, w)
                         in enumerate(zip(schema.fields, self.first, widths))
                         if f.kind == "sequence"]
        self.n_fields = len(schema.fields)
        flat = self.n_fields * d

        if cfg.backbone == "autoint":
            self.attn = []
            d_in = d
            for i in range(cfg.attn_layers):
                layer = FieldAttention(store, f"{prefix}.attn{i}", d_in,
                                       cfg.attn_heads, cfg.attn_head_dim, rng)
                self.attn.append(layer)
                d_in = layer.d_out
            self.out_dim = self.n_fields * d_in
            self.head = Linear(store, f"{prefix}.out", self.out_dim,
                               self.out_dim, rng)
        elif cfg.backbone == "dcn":
            self.cross = [CrossLayer(store, f"{prefix}.cross{i}", flat, rng)
                          for i in range(cfg.cross_layers)]
            self.mlp = MLPStack(store, f"{prefix}.mlp", flat, cfg.hidden, rng,
                                batch_norm=cfg.batch_norm)
            self.out_dim = self.mlp.d_out
            self.head = Linear(store, f"{prefix}.out", flat + self.mlp.d_out,
                               self.out_dim, rng)
        else:  # mlp
            self.mlp = MLPStack(store, f"{prefix}.mlp", flat, cfg.hidden, rng,
                                batch_norm=cfg.batch_norm)
            self.out_dim = self.mlp.d_out

    def field_embeddings(self, batch: EncodedSplit) -> DTensor:
        """(N, F * d): each field's (N, d) embedding in schema order, as one
        taped op over the stacked tables: a sequence field is the mean of its
        valid positions' rows (all-padding rows pool to the zero vector). Its
        backward is one bincount over the tables' disjoint bins, each summed
        in batch row order, as one scatter-add per table sums it."""
        ids = batch.ids
        if ids.shape[1] != len(self.bounds):
            raise ShapeError("batch id columns do not match the encoder's schema")
        if ids.size and ((ids < 0).any() or (ids >= self.bounds).any()):
            raise ShapeError("field_embeddings: index out of range for its table")
        ids = ids + self.offsets  # (N, K) rows of the stacked tables
        tables = tuple(self.store[f"{self.prefix}.emb.{f.name}"]
                       for f in self.schema.fields)
        stacked = np.concatenate([t.data for t in tables])
        out = stacked[ids[:, self.first]]  # (N, F, d)
        pools = []
        for i, cols in self.seq_cols:
            mask = batch.valid[:, cols]
            count = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
            out[:, i] = (stacked[ids[:, cols]] * mask[:, :, None]).sum(axis=1) / count
            pools.append((i, cols, mask, count))

        def bwd(g):
            g = g.reshape(out.shape)
            w = np.empty(ids.shape + (self.cfg.d,))
            w[:, self.first] = g
            for i, cols, mask, count in pools:
                w[:, cols] = (g[:, i] / count)[:, None, :] * mask[:, :, None]
            bins = (ids[..., None] * self.cfg.d + np.arange(self.cfg.d)).reshape(-1)
            gt = np.bincount(bins, weights=w.reshape(-1), minlength=stacked.size)
            return tuple(np.split(gt.reshape(stacked.shape),
                                  self.offsets[self.first[1:]]))

        return ad.apply_op("field_embeddings", tables, out.reshape(len(ids), -1), bwd)

    def __call__(self, batch: EncodedSplit, train: bool = False) -> DTensor:
        flat = self.field_embeddings(batch)
        if self.cfg.backbone == "autoint":
            x = ad.reshape(flat, (flat.shape[0], self.n_fields, self.cfg.d))
            for layer in self.attn:
                x = layer(x)
            return self.head(ad.reshape(x, (x.shape[0], -1)))
        if self.cfg.backbone == "dcn":
            x = flat
            for layer in self.cross:
                x = layer(flat, x)
            deep = self.mlp(flat, train=train)
            return self.head(ad.concat([x, deep], axis=1))
        return self.mlp(flat, train=train)

    def param_names(self) -> list:
        pre = self.prefix + "."
        return [n for n in self.store.names() if n.startswith(pre)]


class TransformerBlock:
    """Post-norm block: self-attention + residual + LN, then feed-forward +
    residual + LN. Padding is excluded via a large negative additive mask."""

    def __init__(self, store, prefix, d_model, n_heads, d_ff, rng):
        self.attn = SelfAttention(store, prefix, d_model, n_heads,
                                  d_model // n_heads, rng)
        self.o = Linear(store, f"{prefix}.o", d_model, d_model, rng)
        self.ln1 = LayerNorm(store, f"{prefix}.ln1", d_model)
        self.ff1 = Linear(store, f"{prefix}.ff1", d_model, d_ff, rng)
        self.ff2 = Linear(store, f"{prefix}.ff2", d_ff, d_model, rng)
        self.ln2 = LayerNorm(store, f"{prefix}.ln2", d_model)

    def __call__(self, x: DTensor, mask: np.ndarray) -> DTensor:
        # (N,1,1,L) over keys; none when no key is padded: +0 moves no weight
        additive = None if mask.all() else (mask[:, None, None, :] - 1.0) * 1e9
        x = self.ln1(x, self.o(self.attn(x, additive)))
        return self.ln2(x, self.ff2(ad.relu(self.ff1(x))))


class TextEncoder:
    """Token + learned positional embeddings, a small transformer stack, and
    mean pooling over unmasked last hidden states."""

    prefix = "text"

    def __init__(self, store: ParamStore, vocab_size: int, cfg: TextConfig,
                 rng):
        if vocab_size < 2:
            raise UsageError("text vocabulary must include pad and unk")
        self.store = store
        self.cfg = cfg
        prefix = self.prefix
        store.add(f"{prefix}.tok_emb", xavier_uniform(rng, vocab_size, cfg.d_model))
        store.add(f"{prefix}.pos_emb",
                  xavier_uniform(rng, cfg.max_tokens, cfg.d_model))
        self.blocks = [TransformerBlock(store, f"{prefix}.block{i}", cfg.d_model,
                                        cfg.n_heads, cfg.d_ff, rng)
                       for i in range(cfg.n_layers)]
        self.out_dim = cfg.d_model

    def hidden_states(self, token_ids: np.ndarray, mask: np.ndarray) -> DTensor:
        """Last-layer hidden states, (N, L, d_model)."""
        if token_ids.shape != mask.shape:
            raise ShapeError("token ids and mask must share shape")
        n, length = token_ids.shape
        if length > self.cfg.max_tokens:
            raise ShapeError(f"sequence length {length} exceeds "
                             f"max_tokens {self.cfg.max_tokens}")
        tok = ad.embedding_lookup(self.store[f"{self.prefix}.tok_emb"],
                                  token_ids.reshape(-1))
        x = ad.reshape(tok, (n, length, self.cfg.d_model))
        pos = ad.embedding_lookup(self.store[f"{self.prefix}.pos_emb"],
                                  np.arange(length))
        x = ad.add(x, pos)
        for block in self.blocks:
            x = block(x, mask)
        return x

    def __call__(self, token_ids: np.ndarray, mask: np.ndarray) -> DTensor:
        x = self.hidden_states(token_ids, mask)
        counts = mask.sum(axis=1)
        if (counts == 0).any():
            warnings.warn(f"{int((counts == 0).sum())} all-masked text row(s); "
                          "pooled output is the zero vector")
        masked = ad.mul(x, DTensor(mask[:, :, None]))
        summed = ad.sum_(masked, axis=1)
        denom = np.maximum(counts, 1.0)[:, None]
        return ad.div(summed, DTensor(denom))
