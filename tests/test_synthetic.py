import numpy as np
import pytest

from ctrl.data import read_csv_rows, write_csv_rows
from ctrl.exceptions import UsageError
from ctrl.synthetic import SyntheticSpec, generate, synthetic_schema


def test_generate_is_deterministic(tmp_path):
    spec = SyntheticSpec(n_rows=50, n_fields=4, vocab_size=5, seed=9,
                         history_len=3)
    rows_a, schema_a, meta_a = generate(spec)
    rows_b, schema_b, meta_b = generate(spec)
    assert rows_a == rows_b
    assert schema_a == schema_b
    assert meta_a == meta_b

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv_rows(rows_a, schema_a, p1)
    write_csv_rows(rows_b, schema_b, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rows_share_their_keys_and_equal_cells():
    rows, _, _ = generate(SyntheticSpec(n_rows=50, n_fields=4, vocab_size=3,
                                        seed=2, history_len=2))
    cells = {}
    for row in rows:
        assert all(a is b for a, b in zip(row, rows[0]))
        for name in ("f0", "f1", "f2", "f3"):
            assert cells.setdefault(row[name], row[name]) is row[name]
    assert len(cells) == 3


def test_different_seeds_differ():
    rows_a, _, _ = generate(SyntheticSpec(n_rows=50, seed=0))
    rows_b, _, _ = generate(SyntheticSpec(n_rows=50, seed=1))
    assert rows_a != rows_b


def test_xor_labels_follow_rule_without_noise():
    rows, _, meta = generate(SyntheticSpec(n_rows=200, n_fields=2, rule="xor",
                                           flip_noise=0.0, seed=4))
    for row in rows:
        assert row["label"] == int(row["f0"] != row["f1"])
    assert meta["best_auc"] == 1.0
    assert meta["best_auc_exact"] is True
    assert 0.4 < meta["positive_rate"] < 0.6


def test_flip_noise_rate_and_meta():
    clean, _, _ = generate(SyntheticSpec(n_rows=2000, n_fields=2, rule="xor",
                                         flip_noise=0.0, seed=4))
    noisy, _, meta = generate(SyntheticSpec(n_rows=2000, n_fields=2, rule="xor",
                                            flip_noise=0.3, seed=4))
    flipped = np.mean([a["label"] != b["label"]
                       for a, b in zip(clean, noisy)])
    assert 0.25 < flipped < 0.35
    assert meta["best_auc"] == 0.7
    # values are drawn from the same stream, only labels change
    assert all(a["f0"] == b["f0"] and a["f1"] == b["f1"]
               for a, b in zip(clean, noisy))


def test_logistic_labels_are_a_function_of_values():
    rows, _, meta = generate(SyntheticSpec(n_rows=400, n_fields=4,
                                           vocab_size=3, rule="logistic",
                                           flip_noise=0.0, seed=2))
    seen = {}
    for row in rows:
        key = (row["f0"], row["f1"], row["f2"], row["f3"])
        assert seen.setdefault(key, row["label"]) == row["label"]
    assert meta["best_auc_exact"] is False
    assert 0.2 < meta["positive_rate"] < 0.8


def test_schema_sides_and_history_field():
    schema = synthetic_schema(SyntheticSpec(n_fields=4, history_len=2))
    sides = [f.side for f in schema.fields]
    assert sides == ["user", "item", "user", "item", "user"]
    hist = schema.fields[-1]
    assert hist.name == "history" and hist.kind == "sequence"
    assert hist.seq_phrase == "who has recently used"

    plain = synthetic_schema(SyntheticSpec(n_fields=2, history_len=0))
    assert [f.name for f in plain.fields] == ["f0", "f1"]


def test_timestamps_increase_and_history_length():
    rows, _, _ = generate(SyntheticSpec(n_rows=30, history_len=4, seed=1))
    assert [r["timestamp"] for r in rows] == list(range(30))
    assert all(len(r["history"].split("|")) == 4 for r in rows)


def test_spec_validation():
    with pytest.raises(UsageError):
        SyntheticSpec(n_rows=5)
    with pytest.raises(UsageError):
        SyntheticSpec(rule="xor", n_fields=4)
    with pytest.raises(UsageError):
        SyntheticSpec(rule="logistic", n_fields=3)
    with pytest.raises(UsageError):
        SyntheticSpec(flip_noise=0.5)
    with pytest.raises(UsageError):
        SyntheticSpec(vocab_size=1)
    with pytest.raises(UsageError):
        SyntheticSpec(history_len=-1)
    with pytest.raises(UsageError):
        SyntheticSpec(rule="uniform")


def test_csv_round_trips_through_reader(tmp_path):
    spec = SyntheticSpec(n_rows=25, n_fields=2, vocab_size=4, seed=6,
                         history_len=2)
    rows, schema, _ = generate(spec)
    path = tmp_path / "data.csv"
    write_csv_rows(rows, schema, path)
    loaded = read_csv_rows(path, schema)
    assert len(loaded) == 25
    for orig, back in zip(rows, loaded):
        assert back["label"] == orig["label"]
        assert back["timestamp"] == orig["timestamp"]
        assert back["f0"] == orig["f0"]
        assert back["history"] == orig["history"]
