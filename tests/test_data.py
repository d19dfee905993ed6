import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrl
from ctrl.data import (EncodedSplit, FeatureSchema, FieldSpec, batches,
                       build_vocab, canonical_schema_json, encode, load_schema,
                       prepare_splits, read_csv_rows, row_tiles, save_schema,
                       schema_hash, split_by_time, split_cell)
from ctrl.exceptions import DataError, UsageError

from helpers import eval_batch_cut, field, field_ids, viz_tile_cut

SRC = Path(ctrl.__file__).parent


def movie_schema(max_seq_len=10):
    return FeatureSchema(fields=(
        FieldSpec("gender", "categorical", "user"),
        FieldSpec("age", "categorical", "user"),
        FieldSpec("occupation", "categorical", "user"),
        FieldSpec("history", "sequence", "user", seq_phrase="who has recently watched"),
        FieldSpec("title", "categorical", "item"),
        FieldSpec("genre", "categorical", "item"),
        FieldSpec("director", "categorical", "item"),
    ), max_seq_len=max_seq_len)


def tiny_rows(n=20):
    rows = []
    for i in range(n):
        rows.append({
            "gender": "female" if i % 2 == 0 else "male",
            "age": str(18 + (i % 3)),
            "occupation": "doctor",
            "history": "Titanic|Avatar" if i % 2 == 0 else "Alien",
            "title": f"Movie{i % 5}",
            "genre": "Sci-FI",
            "director": "Camelon",
            "label": i % 2,
            "timestamp": i,
        })
    return rows


def test_schema_rejects_duplicates_and_missing_sides():
    with pytest.raises(UsageError):
        FeatureSchema(fields=(FieldSpec("a", "categorical", "user"),
                              FieldSpec("a", "categorical", "item")))
    with pytest.raises(UsageError):
        FeatureSchema(fields=(FieldSpec("a", "categorical", "user"),))
    with pytest.raises(UsageError):
        FieldSpec("a", "numeric", "user")


def test_build_vocab_first_seen_and_oov_reserved():
    schema = movie_schema()
    fitted = build_vocab(tiny_rows(), schema)
    gender = field(fitted, "gender")
    # two observed values plus reserved OOV slot
    assert gender.vocab == {"female": 1, "male": 2}
    assert gender.vocab_size == 3
    assert field(fitted, "director").vocab_size == 2  # single value column
    history = field(fitted, "history")
    assert history.vocab == {"Titanic": 1, "Avatar": 2, "Alien": 3}


def test_build_vocab_empty_split():
    with pytest.raises(DataError):
        build_vocab([], movie_schema())


def test_encode_sequence_cell_and_oov():
    fitted = build_vocab(tiny_rows(), movie_schema())
    rows = tiny_rows(4)
    rows[0]["history"] = "Titanic|Avatar"
    rows[1]["gender"] = "Zzz"  # unseen -> 0
    rows[1]["history"] = "Alien|Unseen"
    split = encode(rows, fitted)
    # in-vocabulary ids, left-aligned, padded with 0 under a zero mask
    assert field_ids(split, "gender")[0].tolist() == [1, 0, 1, 2]
    assert field_ids(split, "title")[0].tolist() == [1, 2, 3, 4]
    history, valid = field_ids(split, "history")
    assert history[0].tolist() == [1, 2] + [0] * 8
    assert valid[0].tolist() == [1.0, 1.0] + [0.0] * 8
    # an unseen sequence element is OOV 0 but still a valid position
    assert history[1].tolist() == [3, 0] + [0] * 8
    assert valid[1].tolist() == [1.0, 1.0] + [0.0] * 8
    for f in fitted.fields:
        assert field_ids(split, f.name)[0].max() < f.vocab_size


def test_encode_truncates_to_most_recent():
    fitted = build_vocab(
        [dict(tiny_rows(1)[0], history="|".join(f"m{i}" for i in range(12)))],
        movie_schema(max_seq_len=10))
    row = dict(tiny_rows(1)[0], history="|".join(f"m{i}" for i in range(12)))
    split = encode([row], fitted)
    vocab = field(fitted, "history").vocab
    # the first two are dropped; the ten kept fill every position in order
    history, valid = field_ids(split, "history")
    assert history[0].tolist() == [vocab[f"m{i}"] for i in range(2, 12)]
    assert valid[0].tolist() == [1.0] * 10


def test_a_split_is_one_id_matrix_laid_out_by_the_schema():
    # a sequence field between two categorical ones
    schema = FeatureSchema(fields=(
        FieldSpec("u", "categorical", "user", vocab={"a": 1, "b": 2}),
        FieldSpec("hist", "sequence", "user", vocab={"x": 1, "y": 2, "z": 3}),
        FieldSpec("i", "categorical", "item", vocab={"p": 1, "q": 2}),
    ), max_seq_len=3)
    rows = [{"u": "a", "hist": "x|z", "i": "p"},
            {"u": "", "hist": "", "i": "q"},  # missing cell, empty sequence
            {"u": "b", "hist": "x|y|z|w|y", "i": "q"},  # 5 values, "w" unseen
            {"u": "zz", "hist": "y"}]  # unseen value, no "i" cell
    split = encode([dict(r, label=k % 2, timestamp=k)
                    for k, r in enumerate(rows)], schema)
    assert schema.widths == (1, 3, 1)
    # columns: u | hist, most recent values first, then zeros | i
    assert split.ids.dtype == np.int64 and split.valid.dtype == bool
    assert split.ids.tolist() == [[1, 1, 3, 0, 1],
                                  [0, 0, 0, 0, 2],
                                  [2, 3, 0, 2, 2],
                                  [0, 2, 0, 0, 0]]
    assert split.valid.tolist() == [[True, True, True, False, True],
                                    [True, False, False, False, True],
                                    [True, True, True, True, True],
                                    [True, True, False, False, True]]
    b = next(batches(split, 3, "train", seed=1))
    idx = [next(k for k, r in enumerate(split.raw_rows) if r is row)
           for row in b.raw_rows]
    assert idx != [0, 1, 2]  # shuffled
    assert np.array_equal(b.ids, split.ids[idx])
    assert np.array_equal(b.valid, split.valid[idx])
    assert np.array_equal(b.labels, split.labels[idx])


def reference_ids(rows, schema):
    """encode's ids and valid as lists, row by row and cell by cell."""
    ids, valid = [], []
    for row in rows:
        ids.append([])
        valid.append([])
        for f in schema.fields:
            cell = row.get(f.name, "")
            if f.kind == "categorical":
                ids[-1].append(f.vocab.get(cell, 0) if cell else 0)
                valid[-1].append(True)
            else:
                values = split_cell(cell)[-schema.max_seq_len:]
                pad = schema.max_seq_len - len(values)
                ids[-1] += [f.vocab.get(v, 0) for v in values] + [0] * pad
                valid[-1] += [True] * len(values) + [False] * pad
    return ids, valid


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["Titanic", "Avatar", "Alien",
                                          "Unseen", ""]), max_size=14),
                max_size=6),
       st.integers(min_value=1, max_value=12))
def test_encode_matches_the_row_by_row_reference(histories, max_seq_len):
    fitted = build_vocab(tiny_rows(), movie_schema(max_seq_len))
    rows = [dict(row, history="|".join(h), gender=h[0] if h else "")
            for row, h in zip(tiny_rows(len(histories)), histories)]
    split = encode(rows, fitted)
    assert (split.ids.tolist(), split.valid.tolist()) == \
        reference_ids(rows, fitted)


def test_no_leakage_unseen_test_value_is_oov():
    rows = tiny_rows(20)
    rows[-1]["title"] = "OnlyInTest"
    train, val, test, fitted = prepare_splits(rows, movie_schema())
    assert "OnlyInTest" not in field(fitted, "title").vocab
    assert field_ids(test, "title")[0][-1] == 0


def test_split_by_time_ten_rows():
    rows = [{"timestamp": t, "label": 0} for t in range(1, 11)]
    train, val, test = split_by_time(rows)
    assert [r["timestamp"] for r in train] == list(range(1, 9))
    assert [r["timestamp"] for r in val] == [9]
    assert [r["timestamp"] for r in test] == [10]


def test_split_by_time_stable_on_ties():
    rows = [{"timestamp": 5, "label": 0, "pos": i} for i in range(12)]
    train, val, test = split_by_time(rows)
    merged = train + val + test
    assert [r["pos"] for r in merged] == list(range(12))


def test_split_by_time_validation():
    rows = [{"timestamp": t} for t in range(9)]
    with pytest.raises(DataError):
        split_by_time(rows)
    with pytest.raises(UsageError):
        split_by_time([{"timestamp": t} for t in range(20)], ratios=(9, 1, 0))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=10, max_value=400))
def test_split_is_partition(n):
    rows = [{"timestamp": (n - i) % 7, "pos": i} for i in range(n)]
    train, val, test = split_by_time(rows)
    assert len(train) + len(val) + len(test) == n
    got = sorted(r["pos"] for r in train + val + test)
    assert got == list(range(n))
    assert max(r["timestamp"] for r in train) <= min(r["timestamp"] for r in test)


def test_batches_counts_and_modes():
    rows = tiny_rows(100)
    fitted = build_vocab(rows, movie_schema())
    split = encode(rows, fitted)
    align = list(batches(split, 32, "align", seed=1))
    assert len(align) == 3 and all(b.n == 32 for b in align)
    ev = list(batches(split, 32, "eval"))
    assert [b.n for b in ev] == [32, 32, 32, 4]
    pos = {id(r): i for i, r in enumerate(split.raw_rows)}
    assert [pos[id(r)] for b in ev for r in b.raw_rows] == list(range(100))
    # a one-row eval tail joins the batch before it
    short = encode(rows[:97], fitted)
    ev = list(batches(short, 32, "eval"))
    assert [b.n for b in ev] == [32, 32, 33]
    assert [pos[id(r)] for b in ev for r in b.raw_rows] == list(range(97))
    assert [b.n for b in batches(short, 32, "train")] == [32, 32, 32, 1]
    assert [b.n for b in batches(short, 1, "eval")] == [1] * 97


def test_batches_deterministic_shuffle():
    rows = tiny_rows(50)
    fitted = build_vocab(rows, movie_schema())
    split = encode(rows, fitted)
    pos = {id(r): i for i, r in enumerate(split.raw_rows)}

    def order(seed):
        return [pos[id(r)] for b in batches(split, 16, "align", seed=seed)
                for r in b.raw_rows]

    a, b, c = order(7), order(7), order(8)
    assert a == b
    assert a != c


def test_batches_align_requires_two():
    rows = tiny_rows(10)
    fitted = build_vocab(rows, movie_schema())
    split = encode(rows, fitted)
    with pytest.raises(UsageError):
        next(batches(split, 1, "align"))
    with pytest.raises(UsageError):
        next(batches(split, 4, "nope"))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 64, 128, 512])
def test_row_tiles_cut_as_the_two_cuts_they_replace(size):
    for n in range(301):
        tiles = row_tiles(n, size)
        assert tiles == eval_batch_cut(n, size), n
        # viz cut no empty array, and no tiles of one row
        if n and size > 1:
            assert tiles == viz_tile_cut(n, size), n
        assert [i for t in tiles for i in range(n)[t]] == list(range(n))
        one_row = [t for t in tiles if t.stop - t.start == 1]
        assert one_row == (tiles if size == 1 or n == 1 else [])


@pytest.mark.parametrize("rows", [slice(3, 11), slice(19, 20),
                                  np.array([7, 0, 19, 7, 4]),
                                  np.array([], dtype=np.int64)])
def test_take_is_the_hand_built_split_of_its_rows(rows):
    split = encode(tiny_rows(20), build_vocab(tiny_rows(20), movie_schema()))
    idx = np.arange(split.n)[rows]
    got = split.take(rows)
    assert got.schema is split.schema and got.n == len(idx)
    for name in ("ids", "valid", "labels"):
        want = getattr(split, name)[idx]
        assert getattr(got, name).dtype == want.dtype
        assert np.array_equal(getattr(got, name), want)
    assert len(got.raw_rows) == len(idx)
    assert all(a is split.raw_rows[i] for a, i in zip(got.raw_rows, idx))
    # a slice's arrays are views, as eval batches and viz's tiles need
    assert np.shares_memory(got.ids, split.ids) == (
        isinstance(rows, slice))


def _encoded_split_calls(path: Path) -> list:
    """(file, enclosing function) of each `EncodedSplit(...)` call."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", getattr(f, "attr", None)) == "EncodedSplit":
                    sites.append((path.name, where))
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def test_only_encode_and_take_build_an_encoded_split():
    sites = [s for p in sorted(SRC.glob("*.py"))
             for s in _encoded_split_calls(p)]
    assert sorted(sites) == [("data.py", "encode"), ("data.py", "take")]
    # and no other module cuts its own row ranges
    viz = ast.parse((SRC / "viz.py").read_text(encoding="utf-8"))
    assert [f.name for f in ast.walk(viz)
            if isinstance(f, ast.FunctionDef) and "tile" in f.name] == []


def test_read_csv_rows_errors(tmp_path):
    schema = movie_schema()
    missing = tmp_path / "missing.csv"
    want = (f"^cannot read {re.escape(str(missing))}: "
            "No such file or directory$")
    with pytest.raises(DataError, match=want):
        read_csv_rows(missing, schema)

    p = tmp_path / "d.csv"
    p.write_text("gender,label\nf,1\n")
    with pytest.raises(DataError, match="missing columns"):
        read_csv_rows(p, schema)

    cols = "gender,age,occupation,history,title,genre,director,label,timestamp"
    p.write_text(f"{cols}\nf,18,doc,,T,S,C,2,5\n")
    with pytest.raises(DataError, match="row 2"):
        read_csv_rows(p, schema)

    p.write_text(f"{cols}\nf,18,doc,,T,S,C,1,notatime\n")
    with pytest.raises(DataError, match="timestamp"):
        read_csv_rows(p, schema)

    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_csv_rows(p, schema)

    p.write_text(f"{cols}\n")
    with pytest.raises(DataError, match="no data rows"):
        read_csv_rows(p, schema)


@pytest.mark.parametrize("last, line, what", [
    # label and timestamp come first, so a short row loses a feature cell
    ("history", "1,5,f,18,doc,T,S,C", "fewer cells"),
    ("director", "1,5,f,18,doc,T,S,Alien", "fewer cells"),
    ("history", "1,5,f,18,doc,T,S,C,Alien,extra", "more cells"),
])
def test_read_csv_rows_rejects_ragged_rows(tmp_path, last, line, what):
    """A short row used to read its missing categorical cell as OOV and to
    crash on a missing sequence cell; a long row lost its extra cells."""
    cols = ["gender", "age", "occupation", "title", "genre", "director",
            "history"]
    cols.remove(last)
    p = tmp_path / "d.csv"
    p.write_text(",".join(["label", "timestamp", *cols, last])
                 + f"\n1,4,f,18,doc,T,S,C,Alien\n{line}\n")
    with pytest.raises(DataError, match=f"d.csv: row 3: {what}"):
        read_csv_rows(p, movie_schema())


def test_read_csv_rows_parses(tmp_path):
    schema = movie_schema()
    p = tmp_path / "d.csv"
    cols = "gender,age,occupation,history,title,genre,director,label,timestamp"
    p.write_text(f"{cols}\nfemale,18,doctor,Titanic|Avatar,T2,Sci-FI,Cam,1,99\n")
    rows = read_csv_rows(p, schema)
    assert rows[0]["label"] == 1
    assert rows[0]["timestamp"] == 99
    assert rows[0]["history"] == "Titanic|Avatar"


def test_read_csv_rows_shares_keys_and_equal_cells(tmp_path):
    p = tmp_path / "d.csv"
    cols = "gender,age,occupation,history,title,genre,director,label,timestamp"
    p.write_text(f"{cols}\nfemale,18,doctor,Titanic|Avatar,Drama,Drama,Cam,1,99"
                 "\nfemale,25,doctor,Titanic|Avatar,T2,Drama,Cam,0,100\n")
    a, b = read_csv_rows(p, movie_schema())
    assert all(x is y for x, y in zip(a, b))
    for name in ("gender", "occupation", "history", "genre", "director"):
        assert a[name] is b[name]
    assert a["title"] is a["genre"]  # the first equal string, in any column
    assert a["age"] == "18" and b["age"] == "25"


def test_schema_json_round_trip(tmp_path):
    fitted = build_vocab(tiny_rows(), movie_schema())
    path = tmp_path / "schema.json"
    save_schema(fitted, path)
    loaded = load_schema(path)
    assert loaded.to_dict() == fitted.to_dict()
    assert schema_hash(loaded) == schema_hash(fitted)
    # canonical form is stable under dict key reordering
    blob = json.loads(canonical_schema_json(fitted))
    assert canonical_schema_json(FeatureSchema.from_dict(blob)) == \
        canonical_schema_json(fitted)


def test_schema_hash_tracks_vocab_changes():
    base = movie_schema()
    h0 = schema_hash(base)
    fitted = build_vocab(tiny_rows(), base)
    assert schema_hash(fitted) != h0


def test_batch_type_shapes():
    rows = tiny_rows(20)
    fitted = build_vocab(rows, movie_schema())
    split = encode(rows, fitted)
    b = next(batches(split, 8, "eval"))
    assert isinstance(b, EncodedSplit)
    assert b.schema is fitted and b.n == 8
    assert field_ids(b, "gender")[0].shape == (8,)
    assert field_ids(b, "history")[0].shape == (8, 10)
    assert field_ids(b, "history")[1].shape == (8, 10)
    assert b.labels.shape == (8,)
    assert len(b.raw_rows) == 8
