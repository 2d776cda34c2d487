import numpy as np
import pytest

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
    assert report.confusion.shape == (2, 2)
    assert report.to_dict() == {"acc": 1.0, "nmi": 1.0, "ari": 1.0}
