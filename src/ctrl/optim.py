"""AdamW with decoupled weight decay, plus the linear warm-up schedule.

Plain Adam is AdamW with weight_decay=0; the fine-tuning stage uses it
that way. The moments are flat vectors over the parameters in sorted name
order, and each step is one elementwise pass over the concatenated
gradients and parameters. Parameters are replaced, never mutated: the
successor tensors are read-only views of the step's new flat array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DTensor, Tape
from .exceptions import NumericError, UsageError
from .params import ParamStore

# AdamW's moment decay rates and denominator floor.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass(frozen=True)
class WarmupSchedule:
    """Linear ramp from start_lr to peak_lr over warmup_steps, then flat."""

    start_lr: float
    peak_lr: float
    warmup_steps: int

    def __post_init__(self):
        if self.start_lr < 0 or self.peak_lr < 0:
            raise UsageError("learning rates must be non-negative")
        if self.peak_lr < self.start_lr:
            raise UsageError("peak_lr must be at least start_lr")
        if self.warmup_steps < 0:
            raise UsageError("warmup_steps must be non-negative")

    def lr_at(self, step: int) -> float:
        if step < 0:
            raise UsageError(f"step must be non-negative, got {step}")
        if self.warmup_steps == 0 or step >= self.warmup_steps:
            return self.peak_lr
        frac = step / self.warmup_steps
        return self.start_lr + (self.peak_lr - self.start_lr) * frac


class AdamW:
    """Bias-corrected AdamW over a subset of a ParamStore.

    The step counter is shared across parameters and increases by exactly
    one per :meth:`step` call. A step that would make a parameter non-finite
    raises NumericError before it replaces any. :meth:`minimize` is the one
    taped training step of both training loops.
    """

    def __init__(self, store: ParamStore, names: Optional[Sequence[str]] = None,
                 weight_decay: float = 0.01):
        self.store = store
        self.names = sorted(names) if names is not None else store.names()
        for n in self.names:
            store[n]  # raises for unknown names
        self.weight_decay = weight_decay
        self.t = 0
        self._cuts = np.cumsum([store[n].size for n in self.names])[:-1]
        self._m = np.zeros(sum(store[n].size for n in self.names))
        self._v = np.zeros_like(self._m)

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        params = [self.store[n] for n in self.names]
        for name, p in zip(self.names, params):
            if p.grad is None:
                raise UsageError(f"adamw step: parameter '{name}' has no gradient")
        # The per-tensor update's operations in their order, on all tensors
        # at once, in two flat arrays. `new` outlives the step and is made
        # first: above freed transients on the heap it would keep them mapped.
        new = np.empty_like(self._m)
        g = np.concatenate([p.grad.reshape(-1) for p in params])
        self._v *= b2
        np.multiply(g, g, out=new)
        new *= 1.0 - b2
        self._v += new
        self._m *= b1
        g *= 1.0 - b1
        self._m += g
        np.sqrt(np.divide(self._v, bc2, out=new), out=new)
        new += _EPS
        np.divide(self._m, bc1, out=g)
        g /= new
        g *= lr  # the Adam step
        np.concatenate([p.data.reshape(-1) for p in params], out=new)
        if self.weight_decay:
            np.subtract(new, g, out=g)
            new *= lr * self.weight_decay
            np.subtract(g, new, out=new)
        else:
            new -= g
        if not np.isfinite(new).all():
            raise NumericError("adamw: update produced non-finite values")
        for name, p, flat in zip(self.names, params, np.split(new, self._cuts)):
            self.store.replace(name, DTensor._from_op(flat.reshape(p.shape), True, None))

    def minimize(self, lr: float, fn: Callable, rng=None) -> tuple:
        """One training step: run the pass `fn() -> (loss, ...)` on a tape
        through `autodiff.run_pass`, with `rng` its dropout generator, then
        backpropagate from the loss and step at `lr`. Returns `fn`'s outputs.
        A non-finite pass raises NumericError and replaces no parameter."""
        # called through ad and self: tests patch run_pass, perfbench's tracer step
        with Tape() as tape:
            out = ad.run_pass(fn, rng)
        tape.backward(out[0])
        self.step(lr)
        return out
