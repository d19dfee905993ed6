"""Dense float64 tensors with tape-based reverse-mode differentiation.

Operations execute eagerly on numpy arrays. While a :class:`Tape` is
active, every operation that touches a gradient-requiring tensor is
recorded; :meth:`Tape.backward` then replays exact analytic adjoints in
reverse order. The tape is rebuilt from scratch on every training step
(define-by-run), so conditional model branches need no special casing.

Every op that can create a NaN or infinity checks its output, so one
surfaces as a :class:`~ctrl.exceptions.NumericError` naming the operation
that created it instead of silently poisoning the run. Ops that only move,
select or compare values (reshape, transpose, concat, max, relu, neg,
embedding lookup) skip the check: from finite inputs they cannot create a
non-finite value.

Fused model ops outside this module (attention, the maxsim pair) record
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
    by :meth:`Tape.backward` for gradient-requiring leaves.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("DTensor created with non-finite values")
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None

    @classmethod
    def _from_op(cls, arr: Array, requires_grad: bool, op: str,
                 check: bool = True) -> "DTensor":
        # Internal fast path for op outputs: no defensive copy.
        if check and not np.all(np.isfinite(arr)):
            raise NumericError(f"{op}: produced non-finite values")
        obj = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        obj.data = arr
        obj.requires_grad = requires_grad
        obj.grad = None
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
    op: str
    inputs: tuple
    output: DTensor
    backward: Callable[[Array], Sequence[Optional[Array]]]


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Nodes are appended in execution order, which is already a topological
    order, so the reverse sweep visits each node exactly once.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self

    def backward(self, loss: DTensor) -> None:
        """Populate ``grad`` on every gradient-requiring leaf of this tape.

        Leaves reachable from ``loss`` get their accumulated adjoint;
        recorded leaves that do not influence ``loss`` get zeros.
        """
        if loss.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
        if not self.nodes:
            raise UsageError("backward: tape is empty")

        # Every adjoint, of an intermediate or a leaf, accumulates in
        # `grads`. A node runs after all its consumers in the reverse sweep,
        # so popping its output from `leaves` there leaves only the leaves.
        grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, DTensor] = {}
        for node in reversed(self.nodes):
            leaves.pop(id(node.output), None)
            leaves.update((id(t), t) for t in node.inputs if t.requires_grad)
            g = grads.pop(id(node.output), None)
            if g is None:
                continue
            for t, ig in zip(node.inputs, node.backward(g)):
                if ig is not None and t.requires_grad:
                    acc = grads.get(id(t))
                    grads[id(t)] = ig if acc is None else acc + ig
        for key, t in leaves.items():
            g = grads.get(key)
            # a copy: one adjoint array may reach several leaves (add)
            t.grad = np.zeros_like(t.data) if g is None else g.copy()


def active_tape() -> Optional[Tape]:
    return _TAPES[-1] if _TAPES else None


def apply_op(op: str, inputs: tuple, out_arr: Array, bwd,
             check: bool = True) -> DTensor:
    """Wrap `out_arr`, which `op` computed from `inputs`, without a copy, and
    record `bwd` on the active tape when an input requires gradients.
    `bwd(g)` returns one adjoint per input, or None for an input that needs
    none. `check=False` skips the finiteness check, for ops that cannot
    create a non-finite value from finite inputs."""
    req = any(t.requires_grad for t in inputs)
    out = DTensor._from_op(out_arr, req, op, check=check)
    tape = active_tape()
    if tape is not None and req:
        tape.nodes.append(TapeNode(op, inputs, out, bwd))
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


def _adjoints(a: DTensor, b: DTensor, ga, gb) -> tuple:
    """Both adjoints of a binary op, unbroadcast to each input's shape.
    `ga`/`gb` compute them; neither runs for an input that requires no
    gradient (a constant such as a scale or a mask), whose adjoint is None."""
    return (_unbroadcast(ga(), a.shape) if a.requires_grad else None,
            _unbroadcast(gb(), b.shape) if b.requires_grad else None)


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: DTensor, b: DTensor) -> DTensor:
    out = a.data + b.data

    def bwd(g):
        return _adjoints(a, b, lambda: g, lambda: g)

    return apply_op("add", (a, b), out, bwd)


def sub(a: DTensor, b: DTensor) -> DTensor:
    out = a.data - b.data

    def bwd(g):
        return _adjoints(a, b, lambda: g, lambda: -g)

    return apply_op("sub", (a, b), out, bwd)


def mul(a: DTensor, b: DTensor) -> DTensor:
    out = a.data * b.data

    def bwd(g):
        return _adjoints(a, b, lambda: g * b.data, lambda: g * a.data)

    return apply_op("mul", (a, b), out, bwd)


def div(a: DTensor, b: DTensor) -> DTensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data

    def bwd(g):
        return _adjoints(a, b, lambda: g / b.data,
                         lambda: -g * a.data / (b.data * b.data))

    return apply_op("div", (a, b), out, bwd)


def neg(a: DTensor) -> DTensor:
    return apply_op("neg", (a,), -a.data, lambda g: (-g,), check=False)


def relu(a: DTensor) -> DTensor:
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0.0),)

    return apply_op("relu", (a,), out, bwd, check=False)


def exp(a: DTensor) -> DTensor:
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return apply_op("exp", (a,), out, bwd)


def log(a: DTensor) -> DTensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)

    def bwd(g):
        return (g / a.data,)

    return apply_op("log", (a,), out, bwd)


def sigmoid(a: DTensor) -> DTensor:
    x = a.data
    out = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return apply_op("sigmoid", (a,), out, bwd)


# ---------------------------------------------------------------------------
# Linear algebra and structure


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
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return apply_op("reshape", (a,), out, bwd, check=False)


def transpose(a: DTensor, axes) -> DTensor:
    axes = tuple(axes)
    out = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return apply_op("transpose", (a,), out, bwd, check=False)


def concat(tensors: Sequence[DTensor], axis: int = 0) -> DTensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    cuts = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, cuts, axis=axis))

    return apply_op("concat", tensors, out, bwd, check=False)


# ---------------------------------------------------------------------------
# Reductions


def sum_(a: DTensor, axis=None, keepdims: bool = False) -> DTensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return apply_op("sum", (a,), out, bwd)


def mean(a: DTensor) -> DTensor:
    """Mean over every element."""
    n = a.size
    out = a.data.mean()

    def bwd(g):
        return (np.broadcast_to(g, a.shape) / n,)

    return apply_op("mean", (a,), out, bwd)


def max_(a: DTensor, axis: int, keepdims: bool = False) -> DTensor:
    out = a.data.max(axis=axis, keepdims=keepdims)

    def bwd(g):
        # Ties route the full gradient to the first maximal entry, which is
        # the one argmax picks. Built here so an untaped max never pays.
        first = np.zeros(a.shape, dtype=bool)
        np.put_along_axis(first, np.expand_dims(a.data.argmax(axis=axis), axis),
                          True, axis=axis)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (first * g,)

    return apply_op("max", (a,), out, bwd, check=False)


def logsumexp(a: DTensor, axis: int) -> DTensor:
    """Numerically stable log-sum-exp, composed from taped primitives."""
    m = max_(a, axis=axis, keepdims=True)
    s = log(sum_(exp(sub(a, m)), axis=axis, keepdims=True))
    out = add(s, m)
    return reshape(out, tuple(np.delete(out.shape, axis)))


# ---------------------------------------------------------------------------
# Normalization, regularization, lookup


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


def dropout(a: DTensor, rate: float, train: bool, rng: np.random.Generator) -> DTensor:
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"dropout: rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return a
    # Inverted scaling: evaluation is a no-op.
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def bwd(g):
        return (g * keep,)

    return apply_op("dropout", (a,), a.data * keep, bwd)


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

    return apply_op("embedding_lookup", (table,), out, bwd, check=False)


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
