"""The tiled alignment gap against the all-pairs reference, its input checks,
and its memory bound."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ctrl import orchestrate
from ctrl.data import encode
from ctrl.exceptions import NumericError, UsageError
from ctrl.orchestrate import alignment_gap
from ctrl.viz import paired_gap, tower_representations

from helpers import allpairs_gap, tiny_pipeline

# zero-norm sub-representations are routine right after initialization
pytestmark = pytest.mark.filterwarnings("ignore:l2_normalize")

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module", params=["maxsim", "cosine"])
def pipeline(request):
    model, tok, (train, _, _), _ = tiny_pipeline(
        seed=1, similarity=request.param, n_rows=200)
    return model, tok, train


@pytest.mark.parametrize("block,n_rows", [
    (7, None),    # N = 160 is not a multiple of the block
    (1000, None),  # one tile larger than N
    (16, None),   # N a multiple of the block
    (1, 2),       # N = 2, one row per tile
    (256, 2),
])
def test_tiled_gap_matches_all_pairs(pipeline, block, n_rows):
    model, tok, split = pipeline
    if n_rows is not None:
        split = encode(split.raw_rows[:n_rows], split.schema)
    got = alignment_gap(model, split, tok, block)
    want = allpairs_gap(model, *tower_representations(model, split, tok, block))
    assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)
    assert -1.0 <= got[0] <= 1.0 and -1.0 <= got[1] <= 1.0


def test_single_row_split_is_rejected(pipeline):
    model, tok, split = pipeline
    with pytest.raises(UsageError, match="at least 2 rows"):
        alignment_gap(model, encode(split.raw_rows[:1], split.schema), tok)


def test_non_finite_tower_output_is_rejected(pipeline, monkeypatch):
    model, tok, split = pipeline
    h_text, h_tab = tower_representations(model, split, tok)
    h_text = h_text.copy()
    h_text[3, 0] = np.nan
    monkeypatch.setattr(orchestrate, "tower_representations",
                        lambda *args: (h_text, h_tab))
    with pytest.raises(NumericError):
        alignment_gap(model, split, tok)


def test_shape_mismatch_is_rejected():
    with pytest.raises(UsageError):
        paired_gap(np.zeros((4, 2, 3)), np.zeros((4, 3, 3)))


def test_paired_gap_heap_is_a_few_blocks():
    # 1,024 rows, M = 4, d = 32, tiles of 128 rows: one (512, 512) product
    # per tile pair peaked at 2.88 MiB, one (512, 128) block per sub-space
    # at 1.38 MiB
    text, tab = np.random.default_rng(0).normal(size=(2, 1024, 4, 32))
    tracemalloc.start()
    try:
        paired_gap(text, tab, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20, f"traced heap peaked at {peak / 2 ** 20:.2f} MiB"


CHILD = textwrap.dedent("""
    import resource

    from ctrl.align import AlignmentModel
    from ctrl.data import build_vocab, encode
    from ctrl.orchestrate import alignment_gap
    from ctrl.params import ParamStore
    from ctrl.prompt import Tokenizer, build_prompt
    from ctrl.synthetic import SyntheticSpec, generate
    from helpers import tiny_run_config

    rows, schema, _ = generate(SyntheticSpec(
        n_rows=8000, n_fields=2, vocab_size=3, rule="logistic",
        flip_noise=0.0, seed=0, history_len=2))
    fitted = build_vocab(rows, schema)
    split = encode(rows, fitted)
    cfg = tiny_run_config()
    model = AlignmentModel(ParamStore(), fitted, vocab_size=64, cfg=cfg)
    tok = Tokenizer.fit([build_prompt(r, fitted, model.template)
                         for r in rows[:200]], max_tokens=cfg.text.max_tokens)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    alignment_gap(model, split, tok, 128)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print((after - before) / 1024.0)
""")


def test_gap_memory_is_bounded_by_the_batch():
    # All pairs of 8,000 rows with M = 2 is a (16000, 16000) float64 matrix,
    # 2 GB before the max and its masks; tiles of 128 rows need a few
    # (256, 128) blocks, ~0.25 MB each.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", CHILD],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    growth_mb = float(proc.stdout.strip().splitlines()[-1])
    assert growth_mb < 100.0, f"peak RSS grew by {growth_mb:.1f} MB"
