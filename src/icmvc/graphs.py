"""Per-view similarity graphs, relation transfer to missing views, and the
symmetric-normalized propagation operator consumed by the GCN encoders.

Only the per-view blocks among observed instances (squared distances,
similarities, KNN selection) are dense; the distances come from one Gram
matrix, computed without BLAS, so they need no n_obs x n_obs x D array. From
the KNN step on, the graph steps pass each other the sorted, distinct int64
keys ``i * N + j`` of an N x N 0/1 pattern's edges and work on them with
numpy (sort, drop repeated keys, count rows), so memory grows with the edge
count. Keys sort in CSR order, and the diagonal is where
``key % (N + 1) == 0``. :func:`normalize` turns each view's keys into its
operator, the one ``scipy.sparse`` CSR matrix built per view; the operators
enter the computation graph as constants.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ConfigError, DataError, DegenerateGraphError

TRANSFER_RULES = ("copy", "union", "intersection")


def squared_distances(x: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances from one Gram matrix.

    ``d2 = (sq_i + sq_j) - 2 G_ij`` is formed in place in ``G = xs xs^T``,
    with ``xs = x - x[0]`` and ``sq = diag(G)``. ``G`` is an ``einsum``, not
    BLAS, so its bits do not depend on the BLAS thread count. ``sq_i + sq_j``
    enters as one term, so ``d2`` is exactly symmetric; it is clamped at 0,
    zero on the diagonal and between equal rows, and exact on dyadic grids.
    Otherwise its error grows with |x_i - x_0|^2 + |x_j - x_0|^2.
    """
    xs = x - x[:1]
    d2 = np.einsum("ik,jk->ij", xs, xs)
    sq = np.diag(d2).copy()
    d2 *= -2.0
    d2 += np.add.outer(sq, sq)  # exactly 0 where rows are equal, the diagonal included
    return np.maximum(d2, 0.0, out=d2)


def median_bandwidth(d2: np.ndarray) -> float:
    """Median squared distance over distinct pairs of the observed block
    ``d2``; 1.0 if all zero.

    ``d2`` is symmetric with a zero diagonal, as :func:`squared_distances`
    returns it, so sorted, its entries are the N zeros of the diagonal and
    then every pair's distance twice: the h-th smallest pair distance
    (counting from 0) sits at N + 2h and N + 2h + 1. One partition of a
    copy there gives the upper middle; for an even pair count the lower
    middle is the largest entry below it. The two are averaged as
    ``np.median`` averages them, so the result equals ``np.median`` of the
    strict upper triangle exactly.
    """
    n_obs = d2.shape[0]
    if n_obs < 2:
        raise DataError("bandwidth heuristic needs at least 2 observed instances")
    pairs = n_obs * (n_obs - 1) // 2
    at = n_obs + 2 * (pairs // 2)
    flat = np.partition(d2, at, axis=None)
    med = float(flat[at]) if pairs % 2 else float((flat[:at].max() + flat[at]) / 2)
    return med if med > 0 else 1.0


def rbf_similarity(d2: np.ndarray, t: float) -> np.ndarray:
    """exp(-squared distance / t) among the observed instances of a view.

    ``d2`` holds their squared distances in index order; so does the
    returned n_obs x n_obs block. ``t`` must be positive, as
    :func:`median_bandwidth`'s always is.
    """
    with np.errstate(over="ignore"):  # a subnormal t sends far pairs to -inf, whose exp is the 0 they tend to
        sims = d2 / -t  # equals -d2 / t bit for bit, without the extra temporary
    return np.exp(sims, out=sims)


def knn_adjacency(similarity: np.ndarray, observed: np.ndarray, k: int) -> np.ndarray:
    """Raw directed KNN rows: the K most similar observed neighbors per row.

    ``similarity`` is the block among the observed instances of ``observed``
    (:func:`rbf_similarity`); it is not modified. Ties in similarity resolve
    to the lower index. Returns the sorted edge keys of an N x N pattern with
    K edges in each observed row and none in the others, so no edge leaves
    or reaches an unobserved instance; symmetrization happens in
    :func:`finalize_adjacency`.
    """
    observed = np.asarray(observed, dtype=bool)
    idx = np.flatnonzero(observed)
    n_obs = idx.size
    if not (1 <= k <= n_obs - 1):
        raise ConfigError(f"k must lie in [1, {n_obs - 1}], got {k}")
    kth = similarity.copy()
    np.fill_diagonal(kth, -np.inf)
    kth.partition(-k, axis=1)
    kth = kth[:, [-k]]  # each row's k-th largest off the diagonal
    # keep every entry off the diagonal at least that large; a row holding
    # more than k of them keeps those above it and fills the remaining slots
    # from the entries equal to it in ascending index order
    keep = similarity >= kth
    np.fill_diagonal(keep, False)
    flat = np.flatnonzero(keep)
    if flat.size > n_obs * k:
        surplus = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        above = keep[surplus] & (similarity[surplus] > kth[surplus])
        tied = keep[surplus] & ~above
        free = k - np.count_nonzero(above, axis=1, keepdims=True)
        keep[surplus] = above | (tied & (np.cumsum(tied, axis=1) <= free))
        flat = np.flatnonzero(keep)
    rows, cols = np.divmod(flat, n_obs)
    return idx[rows] * observed.shape[0] + idx[cols]


def transfer_relations(keys_per_view: list, mask: np.ndarray, rule: str = "copy") -> list:
    """Fill each missing row from the same instance's observed views.

    ``keys_per_view`` holds the sorted, distinct edge keys of one raw N x N
    pattern per view (N = ``mask.shape[0]``); the inputs are not modified
    and the results are keys of the same kind. ``copy`` takes the row of the
    lowest-indexed observed view, ``union`` the elementwise OR over all
    observed views, ``intersection`` the AND. With two views the three rules
    coincide. Transferred edges may point at instances that are themselves
    unobserved in the destination view; they are kept, since aggregation
    still flows through the remaining neighbors.
    """
    if rule not in TRANSFER_RULES:
        raise ConfigError(f"unknown transfer rule {rule!r}")
    mask = np.asarray(mask, dtype=bool)
    n, n_views = mask.shape
    if n_views != len(keys_per_view):
        raise DataError("mask and edge-key list disagree on view count")
    if not mask.any(axis=1).all():
        missing = int(np.where(~mask.any(axis=1))[0][0])
        raise DataError(f"instance {missing} is missing in every view")
    first = mask.argmax(axis=1)  # lowest-indexed observed view of each instance
    sources = mask.sum(axis=1)  # observed views of each instance
    rows = [key // n for key in keys_per_view]
    out = []
    for v in range(n_views):
        parts = []
        for w, key in enumerate(keys_per_view):
            # observed rows keep their own edges; a missing row takes those
            # of its source views
            source = first[rows[w]] == w if rule == "copy" else mask[rows[w], w]
            parts.append(key[np.where(mask[rows[w], v], w == v, source)])
        key = np.sort(np.concatenate(parts), kind="stable")  # merges the sorted parts
        if rule == "union":
            key = _runs(key)
        elif rule == "intersection":  # an edge every source view of its row holds
            key = _runs(key, np.where(mask[:, v], 1, sources)[key // n])
        out.append(key)
    return out


def finalize_adjacency(keys_per_view: list, n: int) -> list:
    """OR-symmetrize every view, drop the diagonal, reject isolated nodes.

    Takes and returns the sorted, distinct edge keys of N x N patterns.
    """
    out = []
    for v, key in enumerate(keys_per_view):
        key = key[key % (n + 1) != 0]  # off the diagonal
        rows, cols = np.divmod(key, n)
        key = _runs(np.sort(np.concatenate([key, cols * n + rows])))
        degree = np.bincount(key // n, minlength=n)
        if not degree.all():
            raise DegenerateGraphError(
                f"view {v}: instance {int(np.argmin(degree))} has no neighbors after symmetrization"
            )
        out.append(key)
    return out


def normalize(key: np.ndarray, n: int) -> sparse.csr_matrix:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2.

    ``key`` holds the sorted, distinct edge keys of a symmetric N x N 0/1
    pattern; a diagonal key counts as the self-loop. Returns the operator as
    an N x N CSR matrix, the only one graph preparation builds. Each stored
    value is ``inv_sqrt[i] * inv_sqrt[j]`` with ``inv_sqrt = 1 /
    sqrt(degree)``, the same product the dense form ``(A + I) *
    outer(inv_sqrt, inv_sqrt)`` takes, so the operator equals it bit for bit.
    """
    # the stable sort merges the two sorted runs: off-diagonal keys, diagonal
    key = np.sort(np.concatenate([key[key % (n + 1) != 0], np.arange(n) * (n + 1)]), kind="stable")
    rows, cols = np.divmod(key, n)
    degree = np.bincount(rows, minlength=n)
    inv_sqrt = 1.0 / np.sqrt(degree)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    return sparse.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], cols, indptr), shape=(n, n))


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
