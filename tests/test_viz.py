import re

import numpy as np
import pytest

from ctrl.align import maxsim, unit_rows
from ctrl.autodiff import DTensor
from ctrl.exceptions import DataError, UsageError
from ctrl.viz import (dump_embeddings, paired_gap, project_2d,
                      read_embeddings, tower_representations,
                      write_projection)

from helpers import tiny_pipeline


def unit(x):
    """(N, d) rows through the cosine head: (N, 1, d) unit rows."""
    return unit_rows(DTensor(x)).data


def test_paired_gap_orthonormal_match():
    e = np.eye(3)[:, None, :]
    paired, unpaired, gap = paired_gap(e, e)
    assert paired == 1.0 and unpaired == 0.0 and gap == 1.0


def test_paired_gap_swapped_rows():
    a = np.eye(2)[:, None, :]
    b = a[::-1].copy()
    paired, unpaired, gap = paired_gap(a, b)
    assert paired == 0.0 and unpaired == 1.0 and gap == -1.0


def test_paired_gap_hand_value():
    r2 = 1.0 / np.sqrt(2.0)
    h_text = np.array([[1.0, 0.0], [r2, r2]])[:, None, :]
    h_tab = np.array([[r2, r2], [0.0, 1.0]])[:, None, :]
    # cos matrix: [[r2, 0], [1, r2]]
    paired, unpaired, gap = paired_gap(h_text, h_tab)
    assert abs(paired - r2) < 1e-12
    assert abs(unpaired - 0.5) < 1e-12
    assert abs(gap - (r2 - 0.5)) < 1e-12


def test_paired_gap_scale_invariance():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    base = paired_gap(unit(a), unit(b))
    scaled = paired_gap(unit(3.0 * a), unit(0.25 * b))
    assert np.allclose(base, scaled, atol=1e-12)


def test_paired_gap_zero_rows_count_as_zero_cosine():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.warns(UserWarning, match="l2_normalize"):
        a = unit(a)
    paired, unpaired, gap = paired_gap(a, unit(b))
    assert paired == 0.5  # (0 + 1) / 2


def test_paired_gap_scores_through_the_training_op():
    """On one tile the gap is the trace and the sum of the training op's
    scores over M, to the byte."""
    text, tab = np.random.default_rng(7).normal(size=(2, 9, 3, 4))
    s = maxsim(DTensor(text), DTensor(tab)).data / 3
    paired = float(np.trace(s) / 9)
    unpaired = float((s.sum() - np.trace(s)) / (9 * 8))
    got = paired_gap(text, tab, batch_size=9)
    assert [x.hex() for x in got] == [x.hex() for x in (
        paired, unpaired, paired - unpaired)]


def test_paired_gap_validation():
    with pytest.raises(UsageError):
        paired_gap(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(UsageError):
        paired_gap(np.zeros((2, 1, 3)), np.zeros((2, 1, 4)))
    with pytest.raises(UsageError):
        paired_gap(np.zeros((1, 1, 3)), np.zeros((1, 1, 3)))
    # (N, d) rows must go through a head first; cosine is the unit-row head
    with pytest.raises(UsageError, match="sub-representations"):
        paired_gap(np.eye(3), np.eye(3))


def test_project_2d_recovers_planar_geometry():
    rng = np.random.default_rng(3)
    flat = rng.normal(size=(40, 2)) * np.array([3.0, 1.0])
    basis, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    x = flat @ basis.T + rng.normal(size=5)  # plane embedded in 5-D
    coords, ratios, deficient = project_2d(x)
    assert not deficient
    assert abs(ratios.sum() - 1.0) < 1e-12
    # distances within the plane are preserved exactly by a rank-2 PCA
    d_orig = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    d_proj = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
    assert np.allclose(d_orig, d_proj, atol=1e-8)
    # sign convention: each component's largest-magnitude loading is positive
    centered = x - x.mean(axis=0)
    for c in range(2):
        comp, *_ = np.linalg.lstsq(centered, coords[:, c], rcond=None)
        assert comp[np.argmax(np.abs(comp))] > 0


def test_project_2d_isotropic_cloud_splits_variance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4000, 2))
    _, ratios, deficient = project_2d(x)
    assert not deficient
    assert abs(ratios[0] - 0.5) < 0.05
    assert abs(ratios[1] - 0.5) < 0.05


def test_project_2d_rank_deficient_line():
    t = np.linspace(0.0, 1.0, 7)[:, None]
    x = t * np.array([1.0, 2.0, -1.0])
    with pytest.warns(UserWarning, match="informative directions"):
        coords, ratios, deficient = project_2d(x)
    assert deficient
    assert np.all(coords[:, 1] == 0.0)
    assert ratios[1] == 0.0
    assert abs(ratios[0] - 1.0) < 1e-12


def test_project_2d_validation():
    with pytest.raises(UsageError):
        project_2d(np.zeros((2, 4)))
    with pytest.raises(UsageError):
        project_2d(np.zeros(5))


def test_write_projection_round_trip(tmp_path):
    coords = np.array([[1.5, -2.0], [0.25, 0.125], [3.0, 4.0]])
    ratios = np.array([0.75, 0.25])
    path = tmp_path / "proj.csv"
    write_projection(coords, ratios, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y"
    got = np.array([[float(v) for v in line.split(",")]
                    for line in lines[1:4]])
    assert np.array_equal(got, coords)
    assert lines[-1].startswith("# explained_variance_ratio")


def test_dump_and_read_embeddings_round_trip(tmp_path):
    model, tokenizer, (train, val, _), cfg = tiny_pipeline(seed=11, n_rows=40)
    path = tmp_path / "emb.csv"
    h_text, h_tab = dump_embeddings(model, val, tokenizer, path)
    ids, modalities, vecs = read_embeddings(path)
    n = val.n
    assert len(modalities) == 2 * n
    assert modalities == ["tab"] * n + ["text"] * n
    assert np.array_equal(ids, np.concatenate([np.arange(n), np.arange(n)]))
    assert np.array_equal(vecs[:n], h_tab)  # repr() round-trips float64
    assert np.array_equal(vecs[n:], h_text)


def test_tower_representations_batching_invariance():
    model, tokenizer, (train, _, _), cfg = tiny_pipeline(seed=11, n_rows=40)
    a = tower_representations(model, train, tokenizer, batch_size=5)
    b = tower_representations(model, train, tokenizer, batch_size=512)
    # BLAS may block the matmuls differently per batch shape, so allow ULPs
    assert np.allclose(a[0], b[0], atol=1e-12)
    assert np.allclose(a[1], b[1], atol=1e-12)


def test_read_embeddings_errors(tmp_path):
    missing = tmp_path / "missing.csv"
    want = (f"^cannot read {re.escape(str(missing))}: "
            "No such file or directory$")
    with pytest.raises(DataError, match=want):
        read_embeddings(missing)
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,really\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_embeddings(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("row_id,modality,v0\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_embeddings(empty)


def test_read_embeddings_rejects_a_non_numeric_coordinate(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("row_id,modality,v0,v1\n0,tab,0.5,1.5\n0,text,0.5,x\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=r"emb\.csv: line 3: .*'x'"):
        read_embeddings(path)


def test_read_embeddings_rejects_a_short_row(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("row_id,modality,v0,v1\n0,tab,0.5,1.5\n0,text,0.5\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=r"emb\.csv: line 3 has 3 fields, "
                                        r"the header 4"):
        read_embeddings(path)
