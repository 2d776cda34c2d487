"""Clustering evaluation: best-mapping accuracy, NMI, ARI.

Accuracy solves an optimal one-to-one matching between predicted and true
clusters on the confusion matrix with the Hungarian method (Kuhn, 1955), in
its shortest-augmenting-path form, written here in plain Python. NMI uses
the geometric-mean normalization and natural logs; ARI is standard pair
counting. Degenerate partitions follow fixed conventions so results stay
deterministic: two single-cluster partitions score 1.0, a single-cluster
partition against a varied one scores 0.0 (and the ARI denominator-zero
case means identical partitions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class MetricsReport:
    acc: float
    nmi: float
    ari: float

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


def _contingency(pred, truth):
    """The confusion matrix with the truth and predicted label values of
    its rows and columns."""
    pred, truth = _as_labels(pred), _as_labels(truth)
    if pred.shape[0] != truth.shape[0]:
        raise ContractError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] == 0:
        raise ContractError("empty label vectors")
    truth_values, truth_codes = np.unique(truth, return_inverse=True)
    pred_values, pred_codes = np.unique(pred, return_inverse=True)
    table = np.zeros((truth_values.size, pred_values.size), dtype=np.int64)
    np.add.at(table, (truth_codes, pred_codes), 1)
    return table, truth_values, pred_values


def _max_assignment(table):
    """A maximum-weight one-to-one matching of a 2-D count table, as int64
    (row, column) index arrays with rows ascending; min(rows, columns) pairs.

    Shortest augmenting paths with row and column potentials, O(n²m) on the
    orientation with n <= m. It runs on Python ints: the tables are
    clusters x clusters, small enough that per-call numpy overhead would
    dominate, and integer potentials keep the optimum exact at any count.
    """
    flip = table.shape[0] > table.shape[1]
    weights = (table.T if flip else table).tolist()
    n, m = len(weights), len(weights[0])
    u, v = [0] * (n + 1), [0] * (m + 1)
    owner, way = [0] * (m + 1), [0] * (m + 1)  # owner[j]: 1-based row on column j, 0 if free
    for i in range(1, n + 1):
        owner[0], j0 = i, 0
        minv, used = [math.inf] * (m + 1), [False] * (m + 1)
        while owner[j0]:  # grow the alternating tree until it reaches a free column
            used[j0] = True
            i0, delta, j1 = owner[j0], math.inf, 0
            row, ui = weights[i0 - 1], u[i0]
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = -row[j - 1] - ui - v[j]
                    if reduced < minv[j]:
                        minv[j], way[j] = reduced, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to the root
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    pairs = sorted((j - 1, owner[j] - 1) if flip else (owner[j] - 1, j - 1) for j in range(1, m + 1) if owner[j])
    rows, cols = zip(*pairs)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def _best_match(table, truth_values, pred_values):
    true_idx, pred_idx = _max_assignment(table)
    matched = int(table[true_idx, pred_idx].sum())
    mapping = {int(pred_values[p]): int(truth_values[t]) for t, p in zip(true_idx, pred_idx)}
    return matched / int(table.sum()), mapping


def _nmi(table) -> float:
    table = table.astype(np.float64)
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


def _ari(table) -> float:
    n = int(table.sum())
    if n < 2:
        return 1.0  # no pairs to disagree on

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


def accuracy(pred, truth):
    """Best matched fraction under an optimal injective cluster mapping.

    Rectangular confusion matrices are allowed; unmatched predicted clusters
    contribute nothing. Returns (acc, mapping), the mapping from predicted
    label values to matched truth label values.
    """
    return _best_match(*_contingency(pred, truth))


def nmi(pred, truth) -> float:
    """Mutual information over the geometric mean of the two entropies."""
    return _nmi(_contingency(pred, truth)[0])


def ari(pred, truth) -> float:
    """Pair-counting adjusted Rand index with zero expectation under chance."""
    return _ari(_contingency(pred, truth)[0])


def labels_from_assignment(y: np.ndarray) -> np.ndarray:
    """Hard labels by per-row argmax; ties go to the lowest column."""
    y = np.asarray(y)
    if y.ndim != 2:
        raise ContractError(f"expected an N x C matrix, got shape {y.shape}")
    return y.argmax(axis=1).astype(np.int64)


def evaluate(pred, truth) -> MetricsReport:
    table, truth_values, pred_values = _contingency(pred, truth)
    acc, _ = _best_match(table, truth_values, pred_values)
    return MetricsReport(acc=acc, nmi=_nmi(table), ari=_ari(table))
