"""Representation dumps and 2-D projection for inspecting alignment quality.

The alignment effect is summarized by one scalar: mean similarity of paired
(same-row) text/tabular representations minus the mean over unpaired
combinations, scored by late interaction through the model's own sub-space
head (`head_gap`). Cosine is late interaction over one unit sub-space.
Projection to 2-D uses PCA (top-2 singular vectors) with a deterministic sign
convention so repeated runs produce identical plots.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from . import autodiff as ad
from .align import late_interaction
from .artifacts import reading, write_csv
from .data import EncodedSplit, batches, row_tiles
from .exceptions import DataError, NumericError, UsageError
from .prompt import build_prompt

# Rows of one tile of the untaped tower and head passes: their working set,
# mostly the text tower's (N, H, L, L) attention scores, is a tile's, not a
# batch's. A multiple of 8: under OpenBLAS, tiles of 2, 3, 5 or 7 rows
# changed the tabular tower's bits and multiples of 4 did not, as its
# matrix-vector kernels take rows four at a time. Each row then meets the
# kernels it meets in one pass over its batch, and keeps its bits.
_TILE_ROWS = 64
MODALITIES = ("tab", "text")  # of an embedding dump's records, in file order


def tower_representations(model, split: EncodedSplit, tokenizer,
                          batch_size: int = 256):
    """Projected representations for every row: (h_text (N, D), h_tab (N, D)).

    Prompts are rendered and encoded an eval batch at a time; the towers
    run untaped on each batch's `row_tiles` of `_TILE_ROWS` rows, written
    in place into the outputs, so their working set is a tile's whatever
    the batch size, and a row's bits do not depend on the tile."""
    shape = (split.n, model.cfg.align.d_proj)
    h_text, h_tab = np.empty(shape), np.empty(shape)
    start = 0
    for batch in batches(split, batch_size, "eval"):
        prompts = [build_prompt(r, model.collab.schema, model.template)
                   for r in batch.raw_rows]
        ids, mask = tokenizer.encode_batch(prompts)
        for t in row_tiles(batch.n, _TILE_ROWS):
            text, tab = ad.run_pass(lambda: model.projected(
                batch.take(t), ids[t], mask[t], train=False))
            rows = slice(start + t.start, start + t.stop)
            h_text[rows], h_tab[rows] = text.data, tab.data
        start += batch.n
    return h_text, h_tab


def dump_embeddings(model, split: EncodedSplit, tokenizer, path):
    """Write 2N records: one per row per modality. Columns are row_id,
    modality (tab|text), then the representation coordinates. Prompts are
    rendered in batches of the model's `align.batch_size`, as stage 1
    scores its gap: a batch's pad width moves the text tower's bits."""
    h_text, h_tab = tower_representations(model, split, tokenizer,
                                          model.cfg.align.batch_size)
    d = h_text.shape[1]
    write_csv(path, ["row_id", "modality"] + [f"v{i}" for i in range(d)],
              ([i, modality] + [repr(float(v)) for v in h[i]]
               for modality, h in zip(MODALITIES, (h_tab, h_text))
               for i in range(h.shape[0])))
    return h_text, h_tab


def read_embeddings(path):
    """(row ids, modalities, (R, D) coordinates) of a `dump_embeddings` file;
    one that is not such a file of at least 3 records is a DataError."""
    ids, modalities, vecs = [], [], []
    with reading(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["row_id", "modality"]:
            raise DataError(f"{path}: not an embedding dump")
        if len(header) < 3:
            raise DataError(f"{path}: no coordinate columns")
        for row in reader:
            if len(row) != len(header):
                raise DataError(f"{path}: line {reader.line_num} has "
                                f"{len(row)} fields, the header "
                                f"{len(header)}")
            try:
                ids.append(int(row[0]))
                vecs.append([float(v) for v in row[2:]])
            except ValueError as e:
                raise DataError(f"{path}: line {reader.line_num}: "
                                f"{e}") from e
            if not np.isfinite(vecs[-1]).all():
                raise DataError(f"{path}: line {reader.line_num}: "
                                "a coordinate is not finite")
            if row[1] not in MODALITIES:
                raise DataError(f"{path}: line {reader.line_num}: modality "
                                f"must be one of {MODALITIES}, got {row[1]!r}")
            modalities.append(row[1])
    if len(vecs) < 3:
        raise DataError(f"{path}: {len(vecs)} embedding record(s); a "
                        "projection needs at least 3")
    return np.array(ids), modalities, np.array(vecs)


def head_gap(model, h_text, h_tab, batch_size: int = 256):
    """`paired_gap` of projected (N, D) representations, scored through the
    model's own sub-space heads, run on `row_tiles` of `_TILE_ROWS` rows
    written in place into the (N, M, d) sub-representations."""
    m = model.cfg.align.m_subspaces
    d = model.cfg.align.d_proj // m

    def subs(head, h):
        out = np.empty((len(h), m, d))
        for t in row_tiles(len(h), _TILE_ROWS):
            out[t] = head(ad.DTensor(h[t])).data
        return out

    return paired_gap(subs(model.text_sub, h_text),
                      subs(model.tab_sub, h_tab), batch_size)


def paired_gap(text: np.ndarray, tab: np.ndarray, batch_size: int = 256):
    """(paired mean, unpaired mean, gap) of the similarity s(i, j) between
    text row i and tabular row j. Pairs are rows with equal index; unpaired
    averages over all i != j combinations.

    Inputs are (N, M, d) sub-representations, scored by late interaction
    over M with stage 1's kernel, `align.late_interaction`: the mean over
    text's M sub-representations of the best inner product against the
    tabular ones (maxsim / M). Cosine is that score with M = 1 on unit rows.

    Both sides are tiled at ``batch_size`` rows, and the kernel holds one
    (batch_size·M, batch_size) block per sub-space at a time, so the
    working set is O(batch_size^2 M) whatever N is."""
    text = np.asarray(text, dtype=np.float64)
    tab = np.asarray(tab, dtype=np.float64)
    if text.shape != tab.shape or text.ndim != 3:
        raise UsageError("sub-representations must be equal (N, M, d) shapes")
    if text.shape[0] < 2:
        raise UsageError("need at least 2 rows to compare paired vs unpaired")
    n, m = text.shape[:2]
    trace = total = 0.0
    for j0 in range(0, n, batch_size):
        for i0 in range(0, n, batch_size):
            s = late_interaction(text[i0:i0 + batch_size],
                                 tab[j0:j0 + batch_size]) / m
            total += s.sum()
            if i0 == j0:
                trace += np.trace(s)
    if not (np.isfinite(trace) and np.isfinite(total)):
        raise NumericError("alignment gap: similarity totals are not finite")
    paired = float(trace / n)
    unpaired = float((total - trace) / (n * (n - 1)))
    return paired, unpaired, paired - unpaired


def project_2d(x: np.ndarray):
    """PCA onto the top-2 principal components.

    Sign convention: within each component the largest-magnitude loading is
    made positive. Rank-deficient input (fewer than 2 informative directions)
    yields a zero second column and a warning flag.

    Returns (coords (R, 2), explained_variance_ratio (2,), rank_deficient).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise UsageError("project_2d needs at least 3 records")
    centered = x - x.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    total = float((svals ** 2).sum())
    rank_deficient = False
    coords = np.zeros((x.shape[0], 2))
    ratios = np.zeros(2)
    tol = svals[0] * max(x.shape) * np.finfo(np.float64).eps if svals.size else 0.0
    for c in range(2):
        if c >= svals.size or svals[c] <= tol:
            rank_deficient = True
            warnings.warn("input has fewer than 2 informative directions; "
                          "second component set to zero")
            break
        component = vt[c]
        if component[np.argmax(np.abs(component))] < 0:
            component = -component
        coords[:, c] = centered @ component
        ratios[c] = svals[c] ** 2 / total if total > 0 else 0.0
    return coords, ratios, rank_deficient


def write_projection(coords, ratios, path) -> None:
    rows = [[repr(float(row[0])), repr(float(row[1]))] for row in coords]
    rows.append(["# explained_variance_ratio",
                 " ".join(repr(float(r)) for r in ratios)])
    write_csv(path, ["x", "y"], rows)
