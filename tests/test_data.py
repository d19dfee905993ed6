import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrl.data import (EncodedSplit, FeatureSchema, FieldSpec, batches,
                       build_vocab, canonical_schema_json, encode, load_schema,
                       prepare_splits, read_csv_rows, save_schema, schema_hash,
                       split_by_time)
from ctrl.exceptions import DataError, UsageError

from helpers import field


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
    assert split.cat_ids["gender"].tolist() == [1, 0, 1, 2]
    assert split.cat_ids["title"].tolist() == [1, 2, 3, 4]
    assert split.seq_ids["history"][0].tolist() == [1, 2] + [0] * 8
    assert split.seq_mask["history"][0].tolist() == [1.0, 1.0] + [0.0] * 8
    # an unseen sequence element is OOV 0 but still a valid position
    assert split.seq_ids["history"][1].tolist() == [3, 0] + [0] * 8
    assert split.seq_mask["history"][1].tolist() == [1.0, 1.0] + [0.0] * 8
    for f in fitted.fields:
        if f.kind == "categorical":
            assert split.cat_ids[f.name].max() < f.vocab_size
        else:
            assert split.seq_ids[f.name].max() < f.vocab_size


def test_encode_truncates_to_most_recent():
    fitted = build_vocab(
        [dict(tiny_rows(1)[0], history="|".join(f"m{i}" for i in range(12)))],
        movie_schema(max_seq_len=10))
    row = dict(tiny_rows(1)[0], history="|".join(f"m{i}" for i in range(12)))
    split = encode([row], fitted)
    vocab = field(fitted, "history").vocab
    # the first two are dropped; the ten kept fill every position in order
    assert split.seq_ids["history"][0].tolist() == \
        [vocab[f"m{i}"] for i in range(2, 12)]
    assert split.seq_mask["history"][0].tolist() == [1.0] * 10


def test_no_leakage_unseen_test_value_is_oov():
    rows = tiny_rows(20)
    rows[-1]["title"] = "OnlyInTest"
    train, val, test, fitted = prepare_splits(rows, movie_schema())
    assert "OnlyInTest" not in field(fitted, "title").vocab
    assert test.cat_ids["title"][-1] == 0


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
    assert b.cat_ids["gender"].shape == (8,)
    assert b.seq_ids["history"].shape == (8, 10)
    assert b.seq_mask["history"].shape == (8, 10)
    assert b.labels.shape == (8,)
    assert len(b.raw_rows) == 8
