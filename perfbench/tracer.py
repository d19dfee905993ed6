"""Per-layer spans recorded from outside the library.

`Tracer.installed()` replaces public functions and methods of `ctrl` with
timing wrappers for the duration of a `with` block, then puts every original
back. Functions are replaced at every place they are looked up: the modules
import by name (`from .prompt import build_prompt`), so `ctrl.align`,
`ctrl.viz`, `ctrl.finetune` and `ctrl.prompt` each hold their own reference,
and each one is patched. Methods are patched on their class.

Everything the library does runs on one thread, so spans nest as a stack.
A span's self time is its duration minus the time of the spans it encloses.
Spans are aggregated in memory (one list of durations per layer) and turned
into metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import pkgutil
import sys
import time

import numpy as np

WRAPPED_MARK = "__perfbench_wrapped__"

# (layer, module, function): patched wherever the function object is found.
FUNCTIONS = (
    ("data.batch", "ctrl.data", "batches"),
    ("prompt.render", "ctrl.prompt", "build_prompt"),
    ("align.infonce", "ctrl.align", "infonce"),
    ("viz.represent", "ctrl.viz", "tower_representations"),
    ("orchestrate.gap", "ctrl.orchestrate", "alignment_gap"),
    ("finetune.predict", "ctrl.finetune", "predict_scores"),
    ("finetune.bce", "ctrl.finetune", "bce_loss"),
    ("metrics.auc", "ctrl.metrics", "auc"),
    ("checkpoint.save", "ctrl.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "ctrl.checkpoint", "load_checkpoint"),
)

# (layer, module, class, method): patched on the class.
METHODS = (
    ("prompt.encode", "ctrl.prompt", "Tokenizer", "encode_batch"),
    ("encoders.text", "ctrl.encoders", "TextEncoder", "__call__"),
    ("encoders.collab", "ctrl.encoders", "CollaborativeEncoder", "__call__"),
    ("align.forward", "ctrl.align", "AlignmentModel", "ccl"),
    ("align.sim", "ctrl.align", "AlignmentModel", "similarity_matrices"),
    ("autodiff.backward", "ctrl.autodiff", "Tape", "backward"),
    ("optim.step", "ctrl.optim", "AdamW", "step"),
    ("params.snapshot", "ctrl.params", "ParamStore", "snapshot"),
)

# Layers entered once or more per training step; they also get per-call
# percentiles. The rest run once per epoch or per unit of work.
PER_STEP = ("data.batch", "prompt.render", "prompt.encode", "encoders.text",
            "encoders.collab", "align.forward", "align.sim", "align.infonce",
            "autodiff.backward", "optim.step", "params.snapshot",
            "finetune.bce")

LAYERS = tuple(f[0] for f in FUNCTIONS) + tuple(m[0] for m in METHODS)

# Batch modes that feed an optimizer step; "eval" batches do not.
TRAINING_MODES = ("align", "train")


def ctrl_modules():
    """Import and return every module of the `ctrl` package (not __main__,
    which would run the CLI)."""
    pkg = importlib.import_module("ctrl")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"ctrl.{info.name}"))
    return mods


def leftover_wrappers() -> list:
    """Names of `ctrl` attributes that still hold a tracing wrapper."""
    found = []
    for mod in ctrl_modules():
        for name, val in vars(mod).items():
            if getattr(val, WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for attr, member in vars(val).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class _TimedIterator:
    """Iterator whose every `next` is one span of the layer."""

    def __init__(self, tracer, layer, inner, training):
        self._tracer = tracer
        self._layer = layer
        self._inner = inner
        self._training = training

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        t0 = tr.enter()
        if self._training and tr.step_start is None:
            tr.step_start = t0
        try:
            return next(self._inner)
        except StopIteration:
            tr.step_start = None
            raise
        finally:
            tr.leave(self._layer, t0)


class Tracer:
    def __init__(self):
        self.durations = {name: [] for name in LAYERS}
        self.self_time = {name: 0.0 for name in LAYERS}
        self.steps = []
        self.step_start = None
        self.tape_nodes = []
        self.tape_bytes = []
        self.checkpoint_bytes = 0
        self.rendered = 0
        self.distinct_rendered = 0
        self._unit_rows = set()
        self._children = []  # per open span: time covered by its child spans

    # -- span bookkeeping -------------------------------------------------
    def enter(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def leave(self, layer: str, t0: float) -> float:
        t1 = time.perf_counter()
        dur = t1 - t0
        child = self._children.pop()
        self.durations[layer].append(dur)
        self.self_time[layer] += dur - child
        if self._children:
            self._children[-1] += dur
        return t1

    def new_unit(self) -> None:
        """Start a unit of work: prompt reuse is counted within one unit."""
        self.distinct_rendered += len(self._unit_rows)
        self._unit_rows = set()

    # -- wrappers ---------------------------------------------------------
    def _span(self, layer, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            t0 = tracer.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = tracer.leave(layer, t0)
            if after is not None:
                after(args, kwargs, t1)
            return result

        return wrapper

    def _wrap(self, layer, fn):
        if layer == "data.batch":
            def wrapper(*args, **kwargs):
                mode = args[2] if len(args) > 2 else kwargs.get("mode")
                return _TimedIterator(self, layer, iter(fn(*args, **kwargs)),
                                      mode in TRAINING_MODES)
        elif layer == "prompt.render":
            def count_row(args, kwargs):
                self.rendered += 1
                self._unit_rows.add(id(args[0] if args else kwargs["raw"]))
            wrapper = self._span(layer, fn, before=count_row)
        elif layer == "autodiff.backward":
            def read_tape(args, kwargs):
                nodes = args[0].nodes
                self.tape_nodes.append(len(nodes))
                self.tape_bytes.append(sum(n.output.data.nbytes
                                           for n in nodes))
            wrapper = self._span(layer, fn, before=read_tape)
        elif layer == "optim.step":
            def close_step(args, kwargs, t1):
                if self.step_start is not None:
                    self.steps.append(t1 - self.step_start)
                    self.step_start = None
            wrapper = self._span(layer, fn, after=close_step)
        elif layer == "checkpoint.save":
            def count_bytes(args, kwargs, t1):
                path = args[0] if args else kwargs["path"]
                self.checkpoint_bytes += os.path.getsize(path)
            wrapper = self._span(layer, fn, after=count_bytes)
        else:
            wrapper = self._span(layer, fn)
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function and method; restore all on exit."""
        mods = ctrl_modules()
        patches = []  # (owner, attribute, original)
        try:
            for layer, mod_name, fn_name in FUNCTIONS:
                original = getattr(sys.modules[mod_name], fn_name)
                wrapper = self._wrap(layer, original)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            for layer, mod_name, cls_name, meth in METHODS:
                cls = getattr(sys.modules[mod_name], cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def metrics(self, units: int) -> dict:
        """Per-layer metrics. Calls and times are per unit of work, so runs
        that fit a different number of units in their time compare."""
        distinct = self.distinct_rendered + len(self._unit_rows)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        for layer in LAYERS:
            d = np.asarray(self.durations[layer]) * 1e3
            put(f"{layer}.calls", d.size / units, "count")
            put(f"{layer}.total_ms", d.sum() / units, "ms")
            put(f"{layer}.self_ms", self.self_time[layer] * 1e3 / units, "ms")
            if layer in PER_STEP:
                p50, p90 = np.percentile(d, [50, 90]) if d.size else (0, 0)
                put(f"{layer}.p50_ms", p50, "ms")
                put(f"{layer}.p90_ms", p90, "ms")
        steps = np.asarray(self.steps) * 1e3
        put("step.calls", steps.size / units, "count")
        p50, p90 = np.percentile(steps, [50, 90]) if steps.size else (0, 0)
        put("step.p50_ms", p50, "ms")
        put("step.p90_ms", p90, "ms")
        put("prompt.render_reuse",
            distinct / self.rendered if self.rendered else 0,
            "ratio")
        put("autodiff.tape_nodes",
            np.median(self.tape_nodes) if self.tape_nodes else 0, "count")
        put("autodiff.tape_bytes",
            np.median(self.tape_bytes) if self.tape_bytes else 0, "bytes")
        put("checkpoint.bytes", self.checkpoint_bytes / units, "bytes")
        return out
