"""Per-view similarity graphs, relation transfer to missing views, and the
symmetric-normalized propagation operator consumed by the GCN encoders.

All functions here are pure numpy; the resulting operators enter the
computation graph as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateGraphError

INVALID = -1.0  # sentinel for similarity entries involving unobserved instances

TRANSFER_RULES = ("copy", "union", "intersection")

BLOCK_BYTES = 4 * 2**20  # differences squared_distances holds at once


@dataclass
class SimilarityMatrix:
    """Pairwise RBF similarities, meaningful only on the observed block."""

    values: np.ndarray   # N x N; INVALID where either instance is unobserved
    observed: np.ndarray  # bool per instance
    bandwidth: float


def squared_distances(x: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances via explicit differences.

    Row blocks of the upper triangle are reduced with one ``einsum`` each,
    holding about ``BLOCK_BYTES`` of differences at a time (one row at
    least), and mirrored into the lower half. Every entry reduces the same
    D-length run of differences as the one-shot ``einsum`` over the whole
    N x N x D tensor, so the result equals it bit for bit whatever the
    blocking: it is deterministic, exactly symmetric and zero on the
    diagonal. It is not bit-equal to a scalar loop once D >= 3, since the
    reduction may sum in another order.
    """
    n, d = x.shape
    d2 = np.empty((n, n))
    start = 0
    while start < n:
        rows = max(1, BLOCK_BYTES // max(1, 8 * d * (n - start)))
        stop = min(n, start + rows)
        diff = x[start:stop, None, :] - x[None, start:, :]
        block = np.einsum("ijk,ijk->ij", diff, diff)
        d2[start:stop, start:] = block
        d2[start:, start:stop] = block.T
        start = stop
    return d2


def median_bandwidth(d2: np.ndarray) -> float:
    """Median squared distance over distinct pairs of the observed block
    ``d2``; 1.0 if all zero."""
    n_obs = d2.shape[0]
    if n_obs < 2:
        raise DataError("bandwidth heuristic needs at least 2 observed instances")
    med = float(np.median(d2[~np.tri(n_obs, dtype=bool)]))  # strict upper triangle
    return med if med > 0 else 1.0


def rbf_similarity(d2: np.ndarray, observed: np.ndarray, t: float) -> SimilarityMatrix:
    """exp(-squared distance / t) between observed instances.

    ``d2`` holds the squared distances among the observed instances, in
    index order. Rows and columns of unobserved instances carry the INVALID
    sentinel so a later KNN step cannot silently pick them up.
    """
    if t <= 0:
        raise ConfigError(f"rbf bandwidth must be positive, got {t}")
    observed = np.asarray(observed, dtype=bool)
    n = observed.shape[0]
    if int(observed.sum()) < 2:
        raise DataError("need at least 2 observed instances to build a graph")
    values = np.full((n, n), INVALID)
    idx = np.where(observed)[0]
    values[np.ix_(idx, idx)] = np.exp(-d2 / t)
    return SimilarityMatrix(values=values, observed=observed, bandwidth=float(t))


def knn_adjacency(similarity: SimilarityMatrix, k: int) -> np.ndarray:
    """Raw directed KNN rows: the K most similar observed neighbors per row.

    Ties in similarity resolve to the lower index. Rows of unobserved
    instances are left all-zero; symmetrization happens in
    :func:`finalize_adjacency`.
    """
    observed = similarity.observed
    n = observed.shape[0]
    n_obs = int(observed.sum())
    if not (1 <= k <= n_obs - 1):
        raise ConfigError(f"k must lie in [1, {n_obs - 1}], got {k}")
    idx = np.where(observed)[0]
    sims = similarity.values[np.ix_(idx, idx)]
    np.fill_diagonal(sims, -np.inf)
    # keep every entry above the row's k-th largest, then fill the remaining
    # slots from the entries equal to it in ascending index order
    kth = np.partition(sims, -k, axis=1)[:, [-k]]
    above = sims > kth
    tied = sims == kth
    keep = above | (tied & (np.cumsum(tied, axis=1) <= k - above.sum(axis=1, keepdims=True)))
    adj = np.zeros((n, n))
    adj[np.ix_(idx, idx)] = keep
    return adj


def transfer_relations(adjacencies: list, mask: np.ndarray, rule: str = "copy") -> list:
    """Fill each missing row from the same instance's observed views.

    ``adjacencies`` holds one raw N x N 0/1 matrix per view; the inputs are
    not modified. ``copy`` takes the row of the lowest-indexed observed view,
    ``union`` the elementwise OR over all observed views, ``intersection``
    the AND. With two views the three rules coincide. Transferred edges may
    point at instances that are themselves unobserved in the destination
    view; they are kept, since aggregation still flows through the remaining
    neighbors.
    """
    if rule not in TRANSFER_RULES:
        raise ConfigError(f"unknown transfer rule {rule!r}")
    mask = np.asarray(mask, dtype=bool)
    n_views = mask.shape[1]
    if n_views != len(adjacencies):
        raise DataError("mask and adjacency list disagree on view count")
    if not mask.any(axis=1).all():
        missing = int(np.where(~mask.any(axis=1))[0][0])
        raise DataError(f"instance {missing} is missing in every view")
    first = mask.argmax(axis=1)  # lowest-indexed observed view of each instance
    combine = {"union": np.maximum, "intersection": np.minimum}.get(rule)
    out = []
    for v in range(n_views):
        a = adjacencies[v].copy()
        missing = ~mask[:, v]
        for w in range(n_views):
            rows = missing & (first == w)
            a[rows] = adjacencies[w][rows]
        if combine is not None:
            for w in range(n_views):
                rows = missing & mask[:, w]
                a[rows] = combine(a[rows], adjacencies[w][rows])
        out.append(a)
    return out


def finalize_adjacency(adjacencies: list) -> list:
    """OR-symmetrize every view, zero the diagonal, reject isolated nodes."""
    out = []
    for v, a in enumerate(adjacencies):
        sym = np.maximum(a, a.T)
        np.fill_diagonal(sym, 0.0)
        sym = (sym > 0).astype(np.float64)
        isolated = np.where(sym.sum(axis=1) == 0)[0]
        if isolated.size:
            raise DegenerateGraphError(
                f"view {v}: instance {int(isolated[0])} has no neighbors after symmetrization"
            )
        out.append(sym)
    return out


def normalize(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    tilde = adjacency + np.eye(adjacency.shape[0])
    degree = tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    return tilde * np.outer(inv_sqrt, inv_sqrt)
