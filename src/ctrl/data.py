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
        if self.max_seq_len < 1:
            raise UsageError("max_seq_len must be >= 1")

    def side_fields(self, side: str) -> list:
        return [f for f in self.fields if f.side == side]

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
    """Columnar view of one split: ids per field, masks for sequences, labels."""
    schema: FeatureSchema
    cat_ids: dict  # name -> (N,) int64
    seq_ids: dict  # name -> (N, max_seq_len) int64, left-padded with 0
    seq_mask: dict  # name -> (N, max_seq_len) float64, 1 at valid positions
    labels: np.ndarray  # (N,) float64
    # The row dicts as read or generated, by reference: their producers make
    # equal keys and cells one object, since a split keeps its rows for the
    # whole process.
    raw_rows: list

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])


def encode(rows, schema: FeatureSchema) -> EncodedSplit:
    if not schema.fitted:
        raise UsageError("encode requires a fitted schema")
    n = len(rows)
    msl = schema.max_seq_len
    cat_ids, seq_ids, seq_mask = {}, {}, {}
    for f in schema.fields:
        if f.kind == "categorical":
            cat_ids[f.name] = np.zeros(n, dtype=np.int64)
        else:
            seq_ids[f.name] = np.zeros((n, msl), dtype=np.int64)
            seq_mask[f.name] = np.zeros((n, msl), dtype=np.float64)
    for i, row in enumerate(rows):
        for f in schema.fields:
            cell = row.get(f.name, "")
            if f.kind == "categorical":
                cat_ids[f.name][i] = f.vocab.get(cell, 0) if cell else 0
            else:
                values = split_cell(cell)[-msl:]  # most recent last
                for j, v in enumerate(values):
                    seq_ids[f.name][i, j] = f.vocab.get(v, 0)
                    seq_mask[f.name][i, j] = 1.0
    labels = np.array([row["label"] for row in rows], dtype=np.float64)
    return EncodedSplit(schema=schema, cat_ids=cat_ids, seq_ids=seq_ids,
                        seq_mask=seq_mask, labels=labels,
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


def batches(split: EncodedSplit, batch_size: int, mode: str,
            seed: int = 0) -> Iterator[EncodedSplit]:
    """Yield each batch as an EncodedSplit of its rows. align: shuffled,
    partial tail dropped (keeps the in-batch negative count constant). train:
    shuffled, tail kept. eval: original order."""
    if mode not in BATCH_MODES:
        raise UsageError(f"unknown batch mode '{mode}'")
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    if mode == "align" and batch_size < 2:
        raise UsageError("alignment batches need batch_size >= 2 "
                         "(in-batch negatives require at least one other row)")
    n = split.n
    order = np.arange(n)
    if mode in ("align", "train"):
        order = rng_for(seed, f"batches:{mode}").permutation(n)
    stop = (n // batch_size) * batch_size if mode == "align" else n
    for start in range(0, stop, batch_size):
        idx = order[start:start + batch_size]
        if idx.size == 0:
            break
        yield EncodedSplit(
            schema=split.schema,
            cat_ids={k: v[idx] for k, v in split.cat_ids.items()},
            seq_ids={k: v[idx] for k, v in split.seq_ids.items()},
            seq_mask={k: v[idx] for k, v in split.seq_mask.items()},
            labels=split.labels[idx],
            raw_rows=[split.raw_rows[i] for i in idx.tolist()],
        )
