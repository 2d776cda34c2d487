import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icmvc import metrics
from icmvc.errors import ContractError
from oracles import exhaustive_accuracy, formula_nmi, pair_counting_ari


def random_labels(rng, n, c):
    return rng.integers(0, c, size=n)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_identical():
    labels = np.array([0, 1, 2, 1, 0])
    acc, _ = metrics.accuracy(labels, labels)
    assert acc == 1.0


def test_accuracy_absorbs_relabeling():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([2, 2, 0, 0, 1, 1])
    acc, mapping = metrics.accuracy(pred, truth)
    assert acc == 1.0
    assert mapping == {2: 0, 0: 1, 1: 2}


def test_accuracy_hand_case():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    acc, _ = metrics.accuracy(pred, truth)
    assert acc == 0.75


def test_accuracy_length_mismatch():
    with pytest.raises(ContractError):
        metrics.accuracy(np.array([0, 1]), np.array([0, 1, 2]))


@pytest.mark.parametrize("truth", [[0, -1, 1], [0, 0.5, 1]])
def test_negative_or_fractional_labels_rejected(truth):
    with pytest.raises(ContractError):
        metrics.evaluate(np.array([0, 1, 1]), np.array(truth))
    with pytest.raises(ContractError):
        metrics.evaluate(np.array(truth), np.array([0, 1, 1]))


def test_accuracy_equals_exhaustive_search():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        c_true = int(rng.integers(1, 7))
        c_pred = int(rng.integers(1, 7))
        truth = random_labels(rng, n, c_true)
        pred = random_labels(rng, n, c_pred)
        acc, _ = metrics.accuracy(pred, truth)
        assert acc == pytest.approx(exhaustive_accuracy(pred.tolist(), truth.tolist()), abs=1e-15)


def test_accuracy_beats_chance_on_balanced_truth():
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = int(rng.integers(2, 5))
        truth = np.repeat(np.arange(c), 6)
        pred = random_labels(rng, truth.size, c)
        acc, _ = metrics.accuracy(pred, truth)
        assert acc >= 1.0 / c


@st.composite
def count_tables(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    top = draw(st.sampled_from([1, 2, 3, 40]))  # low tops make tied optima common
    cells = draw(st.lists(st.integers(0, top), min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.int64).reshape(rows, cols)


def check_assignment(table):
    """The solver's pairs for ``table``, after checking their shape."""
    true_idx, pred_idx = metrics._max_assignment(table)
    assert true_idx.dtype == pred_idx.dtype == np.int64
    assert true_idx.size == pred_idx.size == min(table.shape)
    assert (np.diff(true_idx) > 0).all()
    assert np.unique(pred_idx).size == pred_idx.size
    return true_idx, pred_idx


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=count_tables())
def test_assignment_total_equals_exhaustive_search(table):
    assume(table.sum() > 0)
    rows, cols = np.indices(table.shape)
    truth = np.repeat(rows.ravel(), table.ravel()).tolist()
    pred = np.repeat(cols.ravel(), table.ravel()).tolist()
    true_idx, pred_idx = check_assignment(table)
    best = exhaustive_accuracy(pred, truth) * len(pred)
    assert int(table[true_idx, pred_idx].sum()) == round(best)


@pytest.mark.parametrize("size", [8, 13, 30, 60])
def test_assignment_total_equals_scipy_on_large_tables(size):
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(size)
    for top in (1, 3, 1000):
        for cols in (size - 3, size, size + 5):
            table = rng.integers(0, top + 1, size=(size, cols))
            true_idx, pred_idx = check_assignment(table)
            rows_ref, cols_ref = linear_sum_assignment(-table)
            assert table[true_idx, pred_idx].sum() == table[rows_ref, cols_ref].sum()


def test_package_import_leaves_scipy_optimize_out():
    # nor the process pool, which only sweep and ablate start
    probe = (
        "import sys, icmvc, icmvc.cli; print(sorted(k for k in sys.modules if k.split('.')[:2] == ['scipy', 'optimize']"
        " or k.startswith('multiprocessing') or k == 'concurrent.futures.process'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(metrics.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# nmi


def test_nmi_identical_partitions():
    labels = np.array([0, 0, 1, 1, 2])
    assert metrics.nmi(labels, labels) == 1.0


def test_nmi_constant_prediction_is_zero():
    truth = np.array([0, 0, 1, 1])
    pred = np.zeros(4, dtype=int)
    assert metrics.nmi(pred, truth) == 0.0


def test_nmi_both_single_cluster():
    ones = np.zeros(5, dtype=int)
    assert metrics.nmi(ones, ones) == 1.0


def test_nmi_matches_formula_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(4, 25))
        truth = random_labels(rng, n, int(rng.integers(1, 6)))
        pred = random_labels(rng, n, int(rng.integers(1, 6)))
        got = metrics.nmi(pred, truth)
        assert abs(got - formula_nmi(pred.tolist(), truth.tolist())) < 1e-12


# ---------------------------------------------------------------------------
# ari


def test_ari_identical_partitions():
    labels = np.array([0, 1, 1, 2, 0])
    assert metrics.ari(labels, labels) == 1.0


def test_ari_single_cluster_vs_balanced():
    truth = np.array([0, 0, 1, 1])
    pred = np.zeros(4, dtype=int)
    assert metrics.ari(pred, truth) == 0.0


def test_ari_matches_pair_counting():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(4, 25))
        truth = random_labels(rng, n, int(rng.integers(1, 6)))
        pred = random_labels(rng, n, int(rng.integers(1, 6)))
        got = metrics.ari(pred, truth)
        assert abs(got - pair_counting_ari(pred.tolist(), truth.tolist())) < 1e-12


# ---------------------------------------------------------------------------
# relabeling invariance of all three


def test_metrics_invariant_to_cluster_relabeling():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(6, 25))
        c = int(rng.integers(2, 6))
        truth = random_labels(rng, n, c)
        pred = random_labels(rng, n, c)
        perm = rng.permutation(c)
        relabeled = perm[pred]
        assert metrics.accuracy(pred, truth)[0] == pytest.approx(metrics.accuracy(relabeled, truth)[0], abs=1e-15)
        assert metrics.nmi(pred, truth) == pytest.approx(metrics.nmi(relabeled, truth), abs=1e-12)
        assert metrics.ari(pred, truth) == pytest.approx(metrics.ari(relabeled, truth), abs=1e-12)


# ---------------------------------------------------------------------------
# labels_from_assignment


def test_labels_from_one_hot():
    y = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(metrics.labels_from_assignment(y), [1, 0])


def test_labels_tie_breaks_low_index():
    y = np.array([[0.5, 0.5]])
    assert metrics.labels_from_assignment(y)[0] == 0


def test_labels_match_scalar_loop():
    rng = np.random.default_rng(5)
    y = rng.random((20, 4))
    y = y / y.sum(axis=1, keepdims=True)
    got = metrics.labels_from_assignment(y)
    want = [max(range(4), key=lambda j: (y[i, j], -j)) for i in range(20)]
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# report assembly


def test_evaluate_report_fields():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([1, 1, 0, 0])
    report = metrics.evaluate(pred, truth)
    assert report.acc == 1.0 and report.nmi == 1.0 and report.ari == 1.0
    assert report.to_dict() == {"acc": 1.0, "nmi": 1.0, "ari": 1.0}
