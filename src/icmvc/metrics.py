"""Clustering evaluation: best-mapping accuracy, NMI, ARI.

Accuracy solves an optimal one-to-one matching between predicted and true
clusters on the confusion matrix. NMI uses the geometric-mean normalization
and natural logs; ARI is standard pair counting. Degenerate partitions
follow fixed conventions so results stay deterministic: two single-cluster
partitions score 1.0, a single-cluster partition against a varied one
scores 0.0 (and the ARI denominator-zero case means identical partitions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ContractError


@dataclass
class MetricsReport:
    acc: float
    nmi: float
    ari: float
    confusion: np.ndarray  # true clusters x predicted clusters
    mapping: dict          # predicted cluster -> matched true cluster

    def to_dict(self):
        return {"acc": self.acc, "nmi": self.nmi, "ari": self.ari}


def _as_labels(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    labels = arr.astype(np.int64, copy=False)
    if (arr.dtype.kind not in "iu" and not np.array_equal(labels, arr)) or (labels < 0).any():
        raise ContractError("labels must be nonnegative integers")
    return labels


def confusion_matrix(pred, truth) -> np.ndarray:
    pred, truth = _as_labels(pred), _as_labels(truth)
    if pred.shape[0] != truth.shape[0]:
        raise ContractError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] == 0:
        raise ContractError("empty label vectors")
    table = np.zeros((truth.max() + 1, pred.max() + 1), dtype=np.int64)
    np.add.at(table, (truth, pred), 1)
    return table


def accuracy(pred, truth):
    """Best matched fraction under an optimal injective cluster mapping.

    Rectangular confusion matrices are allowed; unmatched predicted clusters
    contribute nothing. Returns (acc, mapping).
    """
    table = confusion_matrix(pred, truth)
    true_idx, pred_idx = linear_sum_assignment(-table)
    matched = int(table[true_idx, pred_idx].sum())
    mapping = {int(p): int(t) for t, p in zip(true_idx, pred_idx)}
    return matched / len(_as_labels(pred)), mapping


def nmi(pred, truth) -> float:
    """Mutual information over the geometric mean of the two entropies."""
    table = confusion_matrix(pred, truth).astype(np.float64)
    n = table.sum()
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    nonzero = table > 0
    outer = np.outer(row, col)
    mi = float((table[nonzero] / n * np.log(n * table[nonzero] / outer[nonzero])).sum())
    h_true = float(-((row[row > 0] / n) * np.log(row[row > 0] / n)).sum())
    h_pred = float(-((col[col > 0] / n) * np.log(col[col > 0] / n)).sum())
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0
    if h_true == 0.0 or h_pred == 0.0:
        return 0.0
    return min(1.0, max(0.0, mi / math.sqrt(h_true * h_pred)))


def ari(pred, truth) -> float:
    """Pair-counting adjusted Rand index with zero expectation under chance."""
    table = confusion_matrix(pred, truth)
    n = int(table.sum())

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = float(comb2(table).sum())
    sum_rows = float(comb2(table.sum(axis=1)).sum())
    sum_cols = float(comb2(table.sum(axis=0)).sum())
    expected = sum_rows * sum_cols / comb2(n)
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def labels_from_assignment(y: np.ndarray) -> np.ndarray:
    """Hard labels by per-row argmax; ties go to the lowest column."""
    y = np.asarray(y)
    if y.ndim != 2:
        raise ContractError(f"expected an N x C matrix, got shape {y.shape}")
    return y.argmax(axis=1).astype(np.int64)


def evaluate(pred, truth) -> MetricsReport:
    acc, mapping = accuracy(pred, truth)
    return MetricsReport(
        acc=acc,
        nmi=nmi(pred, truth),
        ari=ari(pred, truth),
        confusion=confusion_matrix(pred, truth),
        mapping=mapping,
    )
