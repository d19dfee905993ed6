"""AdamW with decoupled weight decay, plus the linear warm-up schedule.

Plain Adam is AdamW with weight_decay=0; the fine-tuning stage uses it
that way. Parameters are replaced with successor tensors on each step,
never mutated, and the update order is the sorted name order so runs are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import DTensor
from .exceptions import UsageError
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
    one per :meth:`step` call.
    """

    def __init__(self, store: ParamStore, names: Optional[Sequence[str]] = None,
                 weight_decay: float = 0.01):
        self.store = store
        self.names = sorted(names) if names is not None else store.names()
        for n in self.names:
            store[n]  # raises for unknown names
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {n: np.zeros(store[n].shape) for n in self.names}
        self._v = {n: np.zeros(store[n].shape) for n in self.names}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in self.names:
            p = self.store[name]
            g = p.grad
            if g is None:
                raise UsageError(f"adamw step: parameter '{name}' has no gradient")
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            new = p.data - lr * (mhat / (np.sqrt(vhat) + _EPS))
            if self.weight_decay:
                new = new - lr * self.weight_decay * p.data
            self.store.replace(name, DTensor(new, requires_grad=True))
