"""Per-view similarity graphs, relation transfer to missing views, and the
symmetric-normalized propagation operator consumed by the GCN encoders.

Only the per-view blocks among observed instances (squared distances,
similarities, KNN selection) are dense. From the KNN step on, every graph
is an N x N ``scipy.sparse`` CSR 0/1 pattern assembled from index arrays
with numpy (sort, drop repeated keys, count rows), so memory grows with the
edge count. The resulting operators enter the computation graph as
constants.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ConfigError, DataError, DegenerateGraphError

TRANSFER_RULES = ("copy", "union", "intersection")

BLOCK_BYTES = 4 * 2**20  # differences squared_distances holds at once


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


def rbf_similarity(d2: np.ndarray, t: float) -> np.ndarray:
    """exp(-squared distance / t) among the observed instances of a view.

    ``d2`` holds their squared distances in index order; so does the
    returned n_obs x n_obs block.
    """
    if t <= 0:
        raise ConfigError(f"rbf bandwidth must be positive, got {t}")
    if d2.shape[0] < 2:
        raise DataError("need at least 2 observed instances to build a graph")
    sims = d2 / -t  # equals -d2 / t bit for bit, without the extra temporary
    return np.exp(sims, out=sims)


def knn_adjacency(similarity: np.ndarray, observed: np.ndarray, k: int) -> sparse.csr_matrix:
    """Raw directed KNN rows: the K most similar observed neighbors per row.

    ``similarity`` is the block among the observed instances of ``observed``
    (:func:`rbf_similarity`); it is not modified. Ties in similarity resolve
    to the lower index. The result is an N x N 0/1 pattern with K entries in
    each observed row and none in the others, so no edge leaves or reaches
    an unobserved instance; symmetrization happens in
    :func:`finalize_adjacency`.
    """
    observed = np.asarray(observed, dtype=bool)
    idx = np.flatnonzero(observed)
    n_obs = idx.size
    if not (1 <= k <= n_obs - 1):
        raise ConfigError(f"k must lie in [1, {n_obs - 1}], got {k}")
    sims = similarity.copy()
    np.fill_diagonal(sims, -np.inf)
    # keep every entry above the row's k-th largest, then fill the remaining
    # slots from the entries equal to it in ascending index order
    kth = np.partition(sims, -k, axis=1)[:, [-k]]
    above = sims > kth
    tied = sims == kth
    keep = above | (tied & (np.cumsum(tied, axis=1) <= k - above.sum(axis=1, keepdims=True)))
    rows, cols = np.divmod(np.flatnonzero(keep), n_obs)
    n = observed.shape[0]
    return _pattern(idx[rows] * n + idx[cols], n)


def transfer_relations(adjacencies: list, mask: np.ndarray, rule: str = "copy") -> list:
    """Fill each missing row from the same instance's observed views.

    ``adjacencies`` holds one raw N x N 0/1 pattern per view, CSR without
    repeated entries or a dense array; the inputs are not modified and the
    results are CSR. ``copy`` takes the row of the lowest-indexed observed
    view, ``union`` the elementwise OR over all observed views,
    ``intersection`` the AND. With two views the three rules coincide.
    Transferred edges may point at instances that are themselves unobserved
    in the destination view; they are kept, since aggregation still flows
    through the remaining neighbors.
    """
    if rule not in TRANSFER_RULES:
        raise ConfigError(f"unknown transfer rule {rule!r}")
    mask = np.asarray(mask, dtype=bool)
    n, n_views = mask.shape
    if n_views != len(adjacencies):
        raise DataError("mask and adjacency list disagree on view count")
    if not mask.any(axis=1).all():
        missing = int(np.where(~mask.any(axis=1))[0][0])
        raise DataError(f"instance {missing} is missing in every view")
    first = mask.argmax(axis=1)  # lowest-indexed observed view of each instance
    sources = mask.sum(axis=1)  # observed views of each instance
    keys = [_keys(a) for a in adjacencies]
    out = []
    for v in range(n_views):
        parts = []
        for w, key in enumerate(keys):
            # observed rows keep their own edges; a missing row takes those
            # of its source views
            rows = key // n
            source = first[rows] == w if rule == "copy" else mask[rows, w]
            parts.append(key[np.where(mask[rows, v], w == v, source)])
        key = np.sort(np.concatenate(parts))
        if rule == "union":
            key = _runs(key)
        elif rule == "intersection":  # an edge every source view of its row holds
            key = _runs(key, np.where(mask[:, v], 1, sources)[key // n])
        out.append(_pattern(key, n))
    return out


def finalize_adjacency(adjacencies: list) -> list:
    """OR-symmetrize every view, drop the diagonal, reject isolated nodes.

    Takes 0/1 patterns as CSR or dense arrays and returns CSR patterns.
    """
    out = []
    for v, a in enumerate(adjacencies):
        n = a.shape[0]
        key = _keys(a)
        rows, cols = np.divmod(key[key % (n + 1) != 0], n)  # off the diagonal
        key = _runs(np.sort(np.concatenate([rows * n + cols, cols * n + rows])))
        degree = np.bincount(key // n, minlength=n)
        if not degree.all():
            raise DegenerateGraphError(
                f"view {v}: instance {int(np.argmin(degree))} has no neighbors after symmetrization"
            )
        out.append(_pattern(key, n))
    return out


def normalize(adjacency) -> sparse.csr_matrix:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2.

    ``adjacency`` is a symmetric 0/1 pattern, CSR or dense; a diagonal entry
    counts as the self-loop. Each stored value is
    ``inv_sqrt[i] * inv_sqrt[j]`` with ``inv_sqrt = 1 / sqrt(degree)``, the
    same product the dense form ``(A + I) * outer(inv_sqrt, inv_sqrt)``
    takes, so the operator equals it bit for bit.
    """
    n = adjacency.shape[0]
    key = _keys(adjacency)
    key = np.sort(np.concatenate([key[key % (n + 1) != 0], np.arange(n) * (n + 1)]))
    rows, cols = np.divmod(key, n)
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=n))
    return _pattern(key, n, inv_sqrt[rows] * inv_sqrt[cols])


# An edge (i, j) of an N x N pattern is handled as its key i * N + j: keys
# sort in CSR order, and the diagonal is where key % (N + 1) == 0.


def _keys(adjacency) -> np.ndarray:
    """Sorted int64 keys of a 0/1 pattern's edges, CSR or dense."""
    if not sparse.issparse(adjacency):
        return np.flatnonzero(adjacency)
    n, indptr = adjacency.shape[0], adjacency.indptr
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + adjacency.indices


def _runs(key: np.ndarray, need=None) -> np.ndarray:
    """Distinct values of the sorted ``key``; with ``need`` (one count per
    entry), only the values repeated at least that often."""
    distinct = np.ones(key.size, dtype=bool)
    distinct[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(distinct)
    if need is not None:
        lengths = np.diff(np.append(starts, key.size))
        starts = starts[lengths >= need[starts]]
    return key[starts]


def _pattern(key: np.ndarray, n: int, data=None) -> sparse.csr_matrix:
    """N x N CSR matrix from sorted distinct edge keys; 1.0 where ``data``
    is not given."""
    rows, cols = np.divmod(key, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_matrix((np.ones(key.size) if data is None else data, cols, indptr), shape=(n, n))
