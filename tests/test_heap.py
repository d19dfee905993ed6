"""The allocator thresholds `ctrl` pins at import: the helper's calls, its
fallbacks, and the page faults of the batch loops they are for."""

import ctypes
import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ctrl

GLIBC = platform.libc_ver()[0] == "glibc"
TESTS = Path(__file__).resolve().parent


class _NoMallopt:
    pass


class _Mallopt:
    """A stand-in `mallopt` that records its arguments and forwards them to
    `call`."""

    def __init__(self, call):
        self.call = call
        self.args = []

    def __call__(self, param, value):
        self.args.append((param, value))
        return self.call(param, value)


def _library(mallopt):
    lib = _NoMallopt()
    lib.mallopt = mallopt
    return lib


def test_helper_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _NoMallopt())
    ctrl._pin_malloc_thresholds()


def test_helper_ignores_a_failing_mallopt(monkeypatch):
    failing = _Mallopt(lambda param, value: 0)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _library(failing))
    ctrl._pin_malloc_thresholds()
    assert len(failing.args) == 2


@pytest.mark.skipif(not GLIBC, reason="mallopt is glibc's")
def test_helper_sets_mmap_then_trim_threshold(monkeypatch):
    real = ctypes.CDLL(None).mallopt
    real.argtypes = [ctypes.c_int, ctypes.c_int]
    real.restype = ctypes.c_int
    results = []
    spy = _Mallopt(lambda param, value: results.append(real(param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _library(spy))
    ctrl._pin_malloc_thresholds()
    # M_MMAP_THRESHOLD = -3 at 32 MiB, then M_TRIM_THRESHOLD = -1 at 64 MiB
    assert spy.args == [(-3, 32 << 20), (-1, 64 << 20)]
    assert results == [1, 1]  # glibc accepted both


CHILD = textwrap.dedent("""
    import resource

    import numpy as np

    from ctrl import finetune, viz
    from ctrl.align import AlignmentModel
    from ctrl.config import ModelConfig, RunConfig, TextConfig
    from ctrl.data import build_vocab, encode
    from ctrl.finetune import CtrHead
    from ctrl.params import ParamStore, rng_for
    from ctrl.prompt import Tokenizer, build_prompt
    from ctrl.synthetic import SyntheticSpec, generate

    def counted(loop, marks):
        # minor faults before each batch and after the last one
        def batches(*args, **kwargs):
            for batch in loop(*args, **kwargs):
                marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
                yield batch
            marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return batches

    rows, schema, _ = generate(SyntheticSpec(
        n_rows=3 * 4096, n_fields=10, vocab_size=50, rule="logistic",
        flip_noise=0.15, seed=0, history_len=3))
    fitted = build_vocab(rows, schema)
    cfg = RunConfig(
        model=ModelConfig(backbone="dcn", d=8, hidden=(64, 32),
                          cross_layers=3),
        text=TextConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64,
                        max_tokens=96))
    store = ParamStore()
    model = AlignmentModel(store, fitted, vocab_size=128, cfg=cfg)
    head = CtrHead(store, model.collab.out_dim, rng_for(0, "ctr"))
    tok = Tokenizer.fit([build_prompt(r, fitted, model.template)
                         for r in rows[:200]], max_tokens=96)
    text_marks, score_marks = [], []
    viz.batches = counted(viz.batches, text_marks)
    finetune.batches = counted(finetune.batches, score_marks)
    viz.tower_representations(model, encode(rows[:12 * 128], fitted), tok, 128)
    finetune.predict_scores(model.collab, head, encode(rows, fitted), 4096)
    print(np.diff(text_marks).tolist())
    print(np.diff(score_marks).tolist())
""")


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's")
def test_batch_loops_do_not_refault_their_working_set():
    # 12 text-tower batches of 128 rows, ~60 tokens each, at the perfbench
    # shape, then 3 tabular batches of 4,096. Under glibc's default
    # thresholds every text batch after the first took ~5,500-6,100 minor
    # faults, mapping its freed working set again; pinned, ~30-130.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", CHILD],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    text, score = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    assert len(text) == 12 and len(score) == 3
    assert max(text[2:]) < 1000, f"text-tower faults per batch: {text}"
    assert max(score[2:]) < 1000, f"scoring faults per batch: {score}"
