import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrl.exceptions import DataError, UsageError
from ctrl.metrics import EvalReport, auc, logloss, relaimpr

from helpers import auc_bruteforce


def test_auc_perfect_ordering():
    assert auc([0.1, 0.9, 0.2, 0.8], [0, 1, 0, 1]) == 1.0


def test_auc_worked_example():
    # pairs: (0.9,0.8) win, (0.9,0.3) win, (0.4,0.8) loss, (0.4,0.3) win
    assert auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == 0.75


def test_auc_all_ties_is_half():
    assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(DataError):
        auc([0.1, 0.2], [1, 1])


def test_auc_monotone_invariance_exact():
    rng = np.random.default_rng(0)
    s = rng.normal(size=50)
    s[rng.integers(0, 50, size=10)] = 0.25  # inject ties
    y = rng.integers(0, 2, size=50)
    y[0], y[1] = 0, 1
    base = auc(s, y)
    assert auc(2.0 * s + 1.0, y) == base
    assert auc(1.0 / (1.0 + np.exp(-s)), y) == base


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=60),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_auc_equals_bruteforce(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)  # heavy ties
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert auc(scores, labels) == auc_bruteforce(scores, labels)


def test_logloss_oracles():
    assert abs(logloss([0.5, 0.5], [1, 0]) - np.log(2.0)) < 1e-12
    assert abs(logloss([0.25], [1]) - np.log(4.0)) < 1e-12
    assert logloss([1.0, 0.0], [1, 0]) < 1e-10


def test_logloss_validation():
    with pytest.raises(UsageError):
        logloss([1.5], [1])
    with pytest.raises(UsageError):
        logloss([0.5], [2])
    with pytest.raises(UsageError):
        logloss([0.5, 0.6], [1])


def test_relaimpr_table_values():
    assert abs(relaimpr(0.8376, 0.8290) - 2.61) < 0.005
    assert abs(relaimpr(0.7074, 0.7012) - 3.08) < 0.005
    assert abs(relaimpr(0.6338, 0.6281) - 4.45) < 0.005
    assert abs(relaimpr(0.6338, 0.6272) - 5.19) < 0.005


def test_relaimpr_identity_and_guard():
    for x in (0.51, 0.75, 0.999):
        assert relaimpr(x, x) == 0.0
    with pytest.raises(UsageError):
        relaimpr(0.8, 0.5)
    with pytest.raises(UsageError):
        relaimpr(0.8, 0.49)


def test_eval_report_round_trip_and_validation():
    rep = EvalReport(auc=0.71, logloss=0.62, n_examples=100, seed=3)
    assert json.loads(rep.to_json()) == {
        "auc": 0.71, "logloss": 0.62, "n_examples": 100, "seed": 3}
    with pytest.raises(UsageError):
        EvalReport(auc=1.2, logloss=0.5, n_examples=1, seed=0)
    with pytest.raises(UsageError):
        EvalReport(auc=0.5, logloss=-0.1, n_examples=1, seed=0)


def test_eval_report_table_alignment():
    rep = EvalReport(auc=0.75, logloss=0.6, n_examples=10, seed=1)
    lines = rep.table().splitlines()
    assert len(lines) == 4
    # one aligned value column, two spaces after the longest key
    assert {len(line) - len(line.split()[-1]) for line in lines} == {12}
    assert lines[0].startswith("auc")
    assert lines[-1].split() == ["seed", "1"]
