"""Tabular dataset handling: schema, CSV ingestion, index encoding, splits, batches.

Categorical values are stored as per-field integer indices with index 0
reserved for out-of-vocabulary values. Sequence cells use "|" as the in-cell
separator and are truncated to the most recent max_seq_len elements.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .artifacts import read_json, reading, write_csv, write_json
from .exceptions import DataError, UsageError
from .params import rng_for

KINDS = ("categorical", "sequence")
SIDES = ("user", "item", "context")
SEQ_SEP = "|"
DEFAULT_MAX_SEQ_LEN = 10


@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: str
    side: str
    display: Optional[str] = None  # prompt-facing name; defaults to `name`
    seq_phrase: Optional[str] = None  # natural-language clause for sequence fields
    vocab: Optional[dict] = None  # value -> index (from 1); None until fitted

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"field '{self.name}': unknown kind '{self.kind}'")
        if self.side not in SIDES:
            raise UsageError(f"field '{self.name}': unknown side '{self.side}'")

    @property
    def shown_name(self) -> str:
        return self.display if self.display is not None else self.name

    @property
    def vocab_size(self) -> int:
        if self.vocab is None:
            raise UsageError(f"field '{self.name}': vocabulary not fitted")
        return len(self.vocab) + 1  # +1 for reserved OOV index 0


@dataclass(frozen=True)
class FeatureSchema:
    fields: tuple
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise UsageError("duplicate field names in schema")
        if not any(f.side == "user" for f in self.fields):
            raise UsageError("schema needs at least one user-side field")
        if not any(f.side == "item" for f in self.fields):
            raise UsageError("schema needs at least one item-side field")
        if type(self.max_seq_len) is not int or self.max_seq_len < 1:
            raise UsageError("max_seq_len must be an integer >= 1")

    @property
    def widths(self) -> tuple:
        """Id columns of each field in an encoded split, in schema order: one
        for a categorical field, max_seq_len for a sequence field."""
        return tuple(1 if f.kind == "categorical" else self.max_seq_len
                     for f in self.fields)

    @cached_property
    def prompt_sides(self) -> tuple:
        """The fields each side of a prompt renders, user side then item
        side, in schema order: the user side renders the user fields, then
        the context fields. Worked out once per schema."""
        return tuple(tuple(f for side in sides for f in self.fields
                           if f.side == side)
                     for sides in (("user", "context"), ("item",)))

    @property
    def fitted(self) -> bool:
        return all(f.vocab is not None for f in self.fields)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "max_seq_len": self.max_seq_len,
            "fields": [
                {"name": f.name, "kind": f.kind, "side": f.side,
                 "display": f.display, "seq_phrase": f.seq_phrase,
                 "vocab": f.vocab}
                for f in self.fields
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "FeatureSchema":
        try:
            fields = tuple(
                FieldSpec(name=fd["name"], kind=fd["kind"], side=fd["side"],
                          display=fd.get("display"), seq_phrase=fd.get("seq_phrase"),
                          vocab=fd.get("vocab"))
                for fd in d["fields"]
            )
            for f in fields:  # a JSON object's keys are always strings
                ids = (list(f.vocab.values()) if isinstance(f.vocab, dict)
                       else [0])
                if f.vocab is not None and (
                        any(type(i) is not int for i in ids)
                        or sorted(ids) != list(range(1, len(ids) + 1))):
                    raise DataError(f"field '{f.name}': vocab must give each "
                                    "value its own id from 1 to its size")
            return FeatureSchema(fields=fields,
                                 max_seq_len=d.get("max_seq_len", DEFAULT_MAX_SEQ_LEN))
        except (KeyError, TypeError) as e:
            raise DataError(f"malformed schema: {e}") from e


def canonical_schema_json(schema: FeatureSchema) -> str:
    return json.dumps(schema.to_dict(), sort_keys=True, separators=(",", ":"))


def schema_hash(schema: FeatureSchema) -> str:
    return hashlib.sha256(canonical_schema_json(schema).encode("utf-8")).hexdigest()


def load_schema(path) -> FeatureSchema:
    """Read a schema file; an invalid one raises DataError naming `path`."""
    d = read_json(path)
    try:
        return FeatureSchema.from_dict(d)
    except (DataError, UsageError) as e:
        raise DataError(f"{path}: {e}") from e


def save_schema(schema: FeatureSchema, path) -> None:
    write_json(path, canonical_schema_json(schema))


def read_csv_rows(path, schema: FeatureSchema) -> list:
    """Read a UTF-8 CSV into raw row dicts, validating header and label/timestamp.

    Rows share their keys (DictReader's header names), and each schema
    field's cell is the first equal string read from the same file: a split
    keeps its rows for the whole process, so a fresh string per cell would be
    held that long."""
    with reading(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        header = set(reader.fieldnames)
        required = {f.name for f in schema.fields} | {"label", "timestamp"}
        missing = sorted(required - header)
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        names = [f.name for f in schema.fields]
        cells = {}  # each distinct cell read so far, by value
        rows = []
        for lineno, row in enumerate(reader, start=2):
            # DictReader keys a long row's extra cells by None and fills a
            # short row's missing ones with None
            if None in row or None in row.values():
                raise DataError(f"{path}: row {lineno}: "
                                f"{'more' if None in row else 'fewer'} cells "
                                f"than the {len(reader.fieldnames)} columns "
                                "of the header")
            if row.get("label") not in ("0", "1"):
                raise DataError(f"{path}: row {lineno}: label must be 0 or 1, "
                                f"got {row.get('label')!r}")
            try:
                row["timestamp"] = int(row["timestamp"])
            except (TypeError, ValueError):
                raise DataError(f"{path}: row {lineno}: unparsable timestamp "
                                f"{row.get('timestamp')!r}") from None
            row["label"] = int(row["label"])
            for name in names:
                row[name] = cells.setdefault(row[name], row[name])
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def write_csv_rows(rows, schema: FeatureSchema, path) -> None:
    """Inverse of read_csv_rows with deterministic bytes: fixed column order,
    \\n line endings."""
    names = [f.name for f in schema.fields] + ["label", "timestamp"]
    write_csv(path, names, ([row.get(n, "") for n in names] for row in rows))


def split_cell(cell: str) -> list:
    # empty elements are treated as missing, not OOV tokens
    return [part for part in cell.split(SEQ_SEP) if part != ""]


def build_vocab(rows, schema: FeatureSchema) -> FeatureSchema:
    """Fit per-field vocabularies on training rows, first-seen order, ids from 1."""
    if not rows:
        raise DataError("cannot fit vocabularies on an empty training split")
    vocabs = {f.name: {} for f in schema.fields}
    for row in rows:
        for f in schema.fields:
            cell = row.get(f.name, "")
            values = split_cell(cell) if f.kind == "sequence" else ([cell] if cell else [])
            vocab = vocabs[f.name]
            for v in values:
                if v not in vocab:
                    vocab[v] = len(vocab) + 1
    new_fields = tuple(replace(f, vocab=vocabs[f.name]) for f in schema.fields)
    return FeatureSchema(fields=new_fields, max_seq_len=schema.max_seq_len)


@dataclass
class EncodedSplit:
    """Columnar view of one split: every field's ids in one matrix whose
    columns `schema.widths` lays out, and labels. A sequence field's columns
    hold its most recent values first, then zeros. An unseen value, or an
    empty categorical cell, is id 0 and valid."""
    schema: FeatureSchema
    ids: np.ndarray  # (N, K) int64, K = sum(schema.widths)
    valid: np.ndarray  # (N, K) bool, True at each value's position
    labels: np.ndarray  # (N,) float64
    # The row dicts as read or generated, by reference: their producers make
    # equal keys and cells one object, since a split keeps its rows for the
    # whole process.
    raw_rows: list

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def take(self, rows) -> "EncodedSplit":
        """The split of `rows`, a slice (its arrays are views) or an int
        index array (copies), in that order."""
        raw = (self.raw_rows[rows] if isinstance(rows, slice)
               else [self.raw_rows[i] for i in rows.tolist()])
        return EncodedSplit(self.schema, self.ids[rows], self.valid[rows],
                            self.labels[rows], raw)


def encode(rows, schema: FeatureSchema) -> EncodedSplit:
    if not schema.fitted:
        raise UsageError("encode requires a fitted schema")
    widths = schema.widths
    ids = np.zeros((len(rows), sum(widths)), dtype=np.int64)
    valid = np.ones(ids.shape, dtype=bool)
    k = 0
    for f, w in zip(schema.fields, widths):
        cells = [row.get(f.name, "") for row in rows]
        if f.kind == "categorical":
            ids[:, k] = [f.vocab.get(c, 0) if c else 0 for c in cells]
        else:
            seqs = [split_cell(c)[-w:] for c in cells]
            cols = slice(k, k + w)
            valid[:, cols] = np.arange(w) < np.array([len(s) for s in seqs])[:, None]
            # boolean indexing is row-major, so each row's values come first
            ids[:, cols][valid[:, cols]] = [f.vocab.get(v, 0) for s in seqs for v in s]
        k += w
    labels = np.array([row["label"] for row in rows], dtype=np.float64)
    return EncodedSplit(schema=schema, ids=ids, valid=valid, labels=labels,
                        raw_rows=list(rows))


def split_by_time(rows, ratios=(8, 1, 1)):
    """Stable time-ordered split into (train, val, test) row lists."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise UsageError(f"split ratios must be three positive numbers, got {ratios}")
    if len(rows) < 10:
        raise DataError(f"need at least 10 rows to split, got {len(rows)}")
    ordered = sorted(rows, key=lambda r: r["timestamp"])  # stable on ties
    n = len(ordered)
    total = float(sum(ratios))
    cut1 = int(n * ratios[0] / total)
    cut2 = int(n * (ratios[0] + ratios[1]) / total)
    return ordered[:cut1], ordered[cut1:cut2], ordered[cut2:]


def prepare_splits(rows, schema: FeatureSchema, ratios=(8, 1, 1)):
    """Split raw rows by time, fit vocabularies on train only (an already
    fitted schema is kept as it is), encode all splits. Returns (train, val,
    test, fitted schema)."""
    train_rows, val_rows, test_rows = split_by_time(rows, ratios)
    fitted = schema if schema.fitted else build_vocab(train_rows, schema)
    return (encode(train_rows, fitted), encode(val_rows, fitted),
            encode(test_rows, fitted), fitted)


BATCH_MODES = ("align", "train", "eval")


def epoch_seed(seed: int, epoch: int) -> int:
    """Shuffle seed of one epoch's `batches`."""
    return seed * 1_000_003 + epoch


def row_tiles(n: int, size: int) -> list:
    """Slices of `size` rows over range(n), none when n = 0. A one-row
    remainder joins the tile before it: numpy runs a one-row matmul as a
    matrix-vector product, whose bits differ from the same row's in a
    larger product."""
    starts = list(range(0, n, size))
    if n > size > 1 and n % size == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def batches(split: EncodedSplit, batch_size: int, mode: str,
            seed: int = 0) -> Iterator[EncodedSplit]:
    """Yield each batch as an EncodedSplit of its rows. align: shuffled,
    partial tail dropped (keeps the in-batch negative count constant). train:
    shuffled, tail kept. eval: the `row_tiles` of the split in order, as
    views."""
    if mode not in BATCH_MODES:
        raise UsageError(f"unknown batch mode '{mode}'")
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    if mode == "align" and batch_size < 2:
        raise UsageError("alignment batches need batch_size >= 2 "
                         "(in-batch negatives require at least one other row)")
    if mode == "eval":
        yield from map(split.take, row_tiles(split.n, batch_size))
        return
    order = rng_for(seed, f"batches:{mode}").permutation(split.n)
    stop = split.n - split.n % batch_size if mode == "align" else split.n
    for start in range(0, stop, batch_size):
        yield split.take(order[start:start + batch_size])
