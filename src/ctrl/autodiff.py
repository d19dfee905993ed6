"""Dense float64 tensors with tape-based reverse-mode differentiation.

Operations execute eagerly on numpy arrays. While a :class:`Tape` is
active, every operation that touches a gradient-requiring tensor is
recorded as a node: its adjoint closure, its output's shape, and per input
the index of the node on this tape that produced it, or the input itself
when it is a leaf. A closure keeps only the arrays its adjoint reads, so an
intermediate that no adjoint reads is freed when the forward lets it go.
:meth:`Tape.backward` runs the adjoints in reverse order and pops each node
as it goes: it consumes the tape and runs once. The tape is rebuilt from
scratch on every training step (define-by-run), so conditional model
branches need no special casing.

A NaN or infinity raises :class:`~ctrl.exceptions.NumericError` naming the
op that made it. An op checks its output, except inside :func:`run_pass`
(`AdamW.minimize`'s training step, evaluation forward passes): a pass checks
only its outputs and, if one is not finite, is replayed with every op checked
to name the op. So a pass does not raise for a non-finite intermediate that
a later op makes finite (relu of -inf). The optimizer checks its updates.

Fused model ops outside this module (attention, one direction of late
interaction, the field embeddings, InfoNCE, binary cross entropy) record
themselves with :func:`apply_op`, as the primitives here do.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import NumericError, ShapeError, UsageError

Array = np.ndarray

# Norms below this are treated as zero by l2_normalize.
_NORM_FLOOR = 1e-300
# Added to the variance by batch_norm and layer_norm.
_NORM_EPS = 1e-5
# Weight of the old value in batch_norm's running statistics.
_BN_MOMENTUM = 0.9


class DTensor:
    """Immutable dense float64 value, optionally tracked for gradients.

    ``data`` is read-only after construction; optimizers produce successor
    parameter tensors rather than mutating in place. ``grad`` is populated
    by :meth:`Tape.backward` for gradient-requiring leaves. ``_node`` is
    (tape mark, node index) when a tape recorded the op that made it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("DTensor created with non-finite values")
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None
        self._node = None

    @classmethod
    def _from_op(cls, arr: Array, requires_grad: bool,
                 op: Optional[str]) -> "DTensor":
        # Internal fast path for op outputs: no defensive copy. `op` is None
        # when the caller has checked `arr` itself.
        if op is not None and op_checks and not np.all(np.isfinite(arr)):
            raise NumericError(f"{op}: produced non-finite values")
        obj = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        obj.data = arr
        obj.requires_grad = requires_grad
        obj.grad = obj._node = None
        return obj

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"DTensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class TapeNode:
    """Per input: the index of its node on this tape, the leaf itself, or
    None for an input that needs no gradient."""
    op: str
    inputs: tuple
    shape: tuple
    backward: Callable[[Array], Sequence[Optional[Array]]]

    @property
    def output(self) -> DTensor:
        """A zero-strided stand-in of the output, whose values are not kept."""
        return DTensor._from_op(np.broadcast_to(0.0, self.shape), False, None)


_TAPES: list["Tape"] = []
# Whether ops check their outputs for NaN and inf; only run_pass sets it.
op_checks = True


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Nodes are appended in execution order, which is already a topological
    order, so the reverse sweep visits each node exactly once. A tensor
    made on another tape, or before the last backward, is a leaf here.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        # stamped on the outputs recorded here; a tensor never holds its tape
        self._mark = object()

    def key(self, t: DTensor):
        """The index of the node on this tape that made `t`, else `t`."""
        node = t._node
        return node[1] if node is not None and node[0] is self._mark else t

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self

    def backward(self, loss: DTensor) -> None:
        """Populate ``grad`` on every gradient-requiring leaf of this tape.

        Leaves reachable from ``loss`` get their accumulated adjoint;
        recorded leaves that do not influence ``loss`` get zeros. Each node
        is popped as it runs, freeing what its adjoint kept: the tape is
        consumed, and a second call raises UsageError.
        """
        if loss.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
        if not self.nodes:
            raise UsageError("backward: tape is empty or already consumed")

        # Adjoints accumulate in `grads`, keyed as node inputs are: by node
        # index for an intermediate, by the tensor for a leaf.
        grads: dict = {self.key(loss): np.ones_like(loss.data)}
        leaves: dict = {}
        self._mark = object()  # indices restart: what was made here is a leaf
        while self.nodes:
            node = self.nodes.pop()
            leaves.update((k, None) for k in node.inputs if isinstance(k, DTensor))
            g = grads.pop(len(self.nodes), None)
            if g is None:
                continue
            for key, ig in zip(node.inputs, node.backward(g)):
                if ig is not None and key is not None:
                    acc = grads.get(key)
                    grads[key] = ig if acc is None else acc + ig
        for t in leaves:
            g = grads.get(t)
            # a copy: one adjoint array may reach several leaves (add)
            t.grad = np.zeros_like(t.data) if g is None else g.copy()


def active_tape() -> Optional[Tape]:
    return _TAPES[-1] if _TAPES else None


def run_pass(fn: Callable):
    """Return `fn()`, a DTensor or a tuple of them, computed with per-op
    checks off; only its outputs are checked. If one is not finite, replay
    `fn()` untaped with every op checked, to raise the NumericError naming
    the op. A pass draws no random numbers, so the replay recomputes the same
    values. numpy's warnings are off in both runs, so that NumericError is
    the one report."""
    global op_checks
    tapes, checks = _TAPES[:], op_checks
    try:
        op_checks = False
        with np.errstate(all="ignore"):
            out = fn()
            if all(np.isfinite(t.data).all()
                   for t in (out if isinstance(out, tuple) else (out,))):
                return out
            op_checks, _TAPES[:] = True, []
            fn()
    finally:
        op_checks, _TAPES[:] = checks, tapes
    raise NumericError("a pass returned non-finite values its replay did not")


def apply_op(op: str, inputs: tuple, out_arr: Array, bwd) -> DTensor:
    """Wrap `out_arr`, which `op` computed from `inputs`, without a copy, and
    record `bwd` on the active tape when an input requires gradients.
    `bwd(g)` returns one adjoint per input, or None for an input that needs
    none. The tape keeps no input's values: `bwd` holds what it reads."""
    req = any(t.requires_grad for t in inputs)
    out = DTensor._from_op(out_arr, req, op)
    tape = active_tape()
    if tape is not None and req:
        keys = tuple([tape.key(t) if t.requires_grad else None for t in inputs])
        out._node = (tape._mark, len(tape.nodes))
        tape.nodes.append(TapeNode(op, keys, out.shape, bwd))
    return out


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Sum ``g`` over axes that were broadcast up from ``shape``."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(op: str, a: DTensor, b: DTensor, out: Array, ga, gb) -> DTensor:
    """Record binary `op`. `ga(g)`/`gb(g)` compute the adjoints before they
    are unbroadcast to each input's shape. Only those of the inputs that
    require gradients are kept, with the operand data they read; a constant
    (a scale, a mask) gets None."""
    fa = (ga, a.shape) if a.requires_grad else None
    fb = (gb, b.shape) if b.requires_grad else None

    def bwd(g):
        return tuple(None if f is None else _unbroadcast(f[0](g), f[1])
                     for f in (fa, fb))

    return apply_op(op, (a, b), out, bwd)


def _same(g: Array) -> Array:
    return g


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: DTensor, b: DTensor) -> DTensor:
    return _binary("add", a, b, a.data + b.data, _same, _same)


def mul(a: DTensor, b: DTensor) -> DTensor:
    x, y = a.data, b.data
    return _binary("mul", a, b, x * y, lambda g: g * y, lambda g: g * x)


def div(a: DTensor, b: DTensor) -> DTensor:
    x, y = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x / y
    return _binary("div", a, b, out, lambda g: g / y,
                   lambda g: -g * x / (y * y))


def relu(a: DTensor) -> DTensor:
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (out > 0.0),)

    return apply_op("relu", (a,), out, bwd)


def sigmoid(a: DTensor) -> DTensor:
    x = a.data
    out = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return apply_op("sigmoid", (a,), out, bwd)


# ---------------------------------------------------------------------------
# Linear algebra, structure and reduction


def matmul(a: DTensor, b: DTensor) -> DTensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return apply_op("matmul", (a, b), out, bwd)


def reshape(a: DTensor, shape) -> DTensor:
    out, shape = a.data.reshape(shape), a.shape

    def bwd(g):
        return (g.reshape(shape),)

    return apply_op("reshape", (a,), out, bwd)


def transpose(a: DTensor, axes) -> DTensor:
    axes = tuple(axes)
    out = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return apply_op("transpose", (a,), out, bwd)


def concat(tensors: Sequence[DTensor], axis: int = 0) -> DTensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    cuts = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, cuts, axis=axis))

    return apply_op("concat", tensors, out, bwd)


def sum_(a: DTensor, axis=None, keepdims: bool = False) -> DTensor:
    out, shape = a.data.sum(axis=axis, keepdims=keepdims), a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return apply_op("sum", (a,), out, bwd)


# ---------------------------------------------------------------------------
# Normalization and lookup


def l2_normalize(a: DTensor, axis: int = -1) -> DTensor:
    norms = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    dead = norms <= _NORM_FLOOR
    if np.any(dead):
        warnings.warn("l2_normalize: zero-norm slice left as the zero vector")
    safe = np.where(dead, 1.0, norms)
    out = a.data / safe

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        gx = (g - out * dot) / safe
        return (np.where(dead, 0.0, gx),)

    return apply_op("l2_normalize", (a,), out, bwd)


def embedding_lookup(table: DTensor, indices) -> DTensor:
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("embedding_lookup: indices must be integers")
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: index out of range for table with {table.shape[0]} rows")
    out = table.data[idx]

    def bwd(g):
        # One scatter-add over flat (row, column) bins. bincount adds each
        # bin's terms in index order from 0.0, as np.add.at does, so the
        # sums are the same bits.
        rows, d = table.shape
        bins = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        gt = np.bincount(bins, weights=g.reshape(-1), minlength=rows * d)
        return (gt.reshape(rows, d),)

    return apply_op("embedding_lookup", (table,), out, bwd)


def batch_norm(x: DTensor, gamma: DTensor, beta: DTensor,
               running_mean: Array, running_var: Array,
               train: bool) -> DTensor:
    """Batch normalization over axis 0 of a 2-D input.

    Running statistics are plain mutable buffers updated in train mode
    with ``new = 0.9 * old + 0.1 * batch``.
    """
    if x.ndim != 2:
        raise ShapeError(f"batch_norm: input must be 2-D, got {x.shape}")
    if train:
        mu = x.data.mean(axis=0)
        xc = x.data - mu
        var = (xc * xc).mean(axis=0)
        running_mean *= _BN_MOMENTUM
        running_mean += (1.0 - _BN_MOMENTUM) * mu
        running_var *= _BN_MOMENTUM
        running_var += (1.0 - _BN_MOMENTUM) * var
    else:
        xc = x.data - running_mean
        var = running_var
    std = np.sqrt(var + _NORM_EPS)
    xhat = xc / std
    out = gamma.data * xhat + beta.data

    def bwd(g):
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        dxhat = g * gamma.data
        if train:
            dx = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / std
        else:
            dx = dxhat / std
        return dx, dgamma, dbeta

    return apply_op("batch_norm", (x, gamma, beta), out, bwd)


def layer_norm(x: DTensor, f: DTensor, gamma: DTensor,
               beta: DTensor) -> DTensor:
    """Normalization of the residual sum x + f over the last axis, with
    learned scale and shift. One op; x and f get the same adjoint array."""
    if x.shape != f.shape:
        raise ShapeError(f"layer_norm: residual shape {f.shape} is not {x.shape}")
    xhat = x.data + f.data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    std = np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + _NORM_EPS)
    xhat /= std
    out = gamma.data * xhat
    out += beta.data

    def bwd(g):
        axes = tuple(range(xhat.ndim - 1))
        tmp = g * xhat
        dgamma = tmp.sum(axis=axes)
        dbeta = g.sum(axis=axes)
        dx = g * gamma.data
        np.multiply(dx, xhat, out=tmp)
        dot = tmp.mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, dot, out=tmp)
        dx /= std
        return dx, dx, dgamma, dbeta

    return apply_op("layer_norm", (x, f, gamma, beta), out, bwd)
