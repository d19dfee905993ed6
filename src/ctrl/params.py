"""Named parameter registry shared by model components and optimizers.

Parameters are immutable DTensors keyed by hierarchical names
("collab.emb.gender", "text.block0.q.w", ...). The optimizer is the
single writer: it replaces entries with successor tensors. Buffers
(batch-norm running statistics) are plain mutable arrays alongside.
"""

from __future__ import annotations

import zlib

import numpy as np

from .autodiff import DTensor
from .exceptions import UsageError


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Deterministic per-component random stream.

    Independent of how much randomness other components consume, so two
    runs that share a seed initialize a given component identically.
    """
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode("utf-8"))])
    return np.random.Generator(np.random.PCG64(ss))


def xavier_uniform(rng: np.random.Generator, fan_in: int,
                   fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class ParamStore:
    def __init__(self):
        self._params: dict[str, DTensor] = {}
        self._buffers: dict[str, np.ndarray] = {}

    def add(self, name: str, array) -> DTensor:
        if name in self._params:
            raise UsageError(f"parameter '{name}' already registered")
        p = DTensor(array, requires_grad=True)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> DTensor:
        try:
            return self._params[name]
        except KeyError:
            raise UsageError(f"unknown parameter '{name}'") from None

    def replace(self, name: str, tensor: DTensor) -> None:
        if name not in self._params:
            raise UsageError(f"unknown parameter '{name}'")
        self._params[name] = tensor

    def names(self) -> list[str]:
        return sorted(self._params)

    def add_buffer(self, name: str, array) -> np.ndarray:
        if name in self._buffers:
            raise UsageError(f"buffer '{name}' already registered")
        arr = np.array(array, dtype=np.float64)
        self._buffers[name] = arr
        return arr

    def buffer(self, name: str) -> np.ndarray:
        try:
            return self._buffers[name]
        except KeyError:
            raise UsageError(f"unknown buffer '{name}'") from None

    def buffer_names(self) -> list[str]:
        return sorted(self._buffers)

    def snapshot(self) -> tuple[dict, dict]:
        """Cheap state capture: tensors are immutable, buffers are copied."""
        return dict(self._params), {n: b.copy() for n, b in self._buffers.items()}

    def restore(self, snap: tuple[dict, dict]) -> None:
        params, buffers = snap
        self._params = dict(params)
        for n, b in buffers.items():
            self._buffers[n][...] = b

    def export_arrays(self):
        """(params, buffers) as plain arrays, for checkpointing."""
        params = {n: np.asarray(self._params[n].data) for n in self.names()}
        buffers = {n: self._buffers[n].copy() for n in self.buffer_names()}
        return params, buffers
