"""The training objective: an instance-level contrastive term over projected
embeddings, a cluster-level contrastive term over assignment columns with an
entropy bonus, and a KL guidance term toward a sharpened high-confidence
target. The three terms are summed with unit weights. Both contrastive
terms are one fused op, ``nk.contrast_pair``, with an analytic backward; the
cluster term passes it the transposed assignments.

Conventions tests rely on:
  * similarity s(u, w) is cosine, with zero rows scoring 0 against anything,
  * natural logarithms everywhere,
  * the same-view denominator sum keeps its j = i term by default
    (``include_self``), matching the loss definition as written,
  * the guidance target is a constant: no gradient flows into the
    assignments it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .errors import ConfigError, ContractError


@dataclass
class TargetDistribution:
    """Elementwise-max assignment Q and its row-normalized square P."""

    q: np.ndarray
    p: np.ndarray


@dataclass
class LossBreakdown:
    l_ins: float
    l_clu: float
    l_hg: float
    total: float

    def as_row(self):
        return [self.l_ins, self.l_clu, self.l_hg, self.total]


def cosine_similarity_matrix(u: nk.DiffNode, w: nk.DiffNode) -> nk.DiffNode:
    """All pairwise cosines between rows of u and rows of w."""
    return nk.matmul(nk.row_l2_normalize(u), nk.transpose(nk.row_l2_normalize(w)))


def _check_row_stochastic(y: nk.DiffNode, name: str):
    sums = y.value.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-6:
        raise ContractError(f"{name} is not row-stochastic (row sums off by {np.max(np.abs(sums - 1.0)):.2e})")


def instance_contrastive_loss(z1: nk.DiffNode, z2: nk.DiffNode, tau_instance: float, include_self: bool = True) -> nk.DiffNode:
    """Cross-view alignment of projected embeddings, averaged over 2N anchors."""
    if z1.value.shape != z2.value.shape:
        raise ContractError(f"projection shapes differ: {z1.value.shape} vs {z2.value.shape}")
    n = z1.value.shape[0]
    return nk.contrast_pair(z1, z2, tau_instance, include_self) * (1.0 / (2.0 * n))


def _column_mean_entropy(y: nk.DiffNode) -> nk.DiffNode:
    n = y.value.shape[0]
    cluster_mass = nk.reduce(y, "col_sum") * (1.0 / n)
    return nk.unary(nk.reduce(cluster_mass * nk.unary(cluster_mass, "log"), "sum"), "neg")


def cluster_contrastive_loss(y1: nk.DiffNode, y2: nk.DiffNode, tau_cluster: float, include_self: bool = True) -> nk.DiffNode:
    """Column-wise contrast of assignment vectors plus entropy maximization.

    Each column of an assignment matrix collects one cluster's membership
    probabilities; matching columns across views are positives. Subtracting
    the assignment entropies penalizes piling every instance onto one
    cluster.
    """
    _check_row_stochastic(y1, "Y1")
    _check_row_stochastic(y2, "Y2")
    c = y1.value.shape[1]
    cols1, cols2 = nk.transpose(y1), nk.transpose(y2)
    contrast = nk.contrast_pair(cols1, cols2, tau_cluster, include_self)
    entropy = _column_mean_entropy(y1) + _column_mean_entropy(y2)
    return contrast * (1.0 / (2.0 * c)) - entropy


def high_confidence_target(y1, y2, y_fused) -> TargetDistribution:
    """Pick the most confident assignment per entry, then sharpen rows.

    Accepts nodes or arrays; the result is detached either way. Squaring and
    renormalizing pushes confident rows toward one-hot and keeps genuinely
    ambiguous rows flat.
    """
    arrays = [a.value if isinstance(a, nk.DiffNode) else np.asarray(a, dtype=float) for a in (y1, y2, y_fused)]
    q = np.maximum.reduce(arrays)
    sq = q * q
    p = sq / sq.sum(axis=1, keepdims=True)
    return TargetDistribution(q=q, p=p)


def guidance_loss(y: nk.DiffNode, target: TargetDistribution) -> nk.DiffNode:
    """Relative entropy of the fixed target against the live assignments.

    Computed as the per-instance mean of sum_j p * (log p - log y), with
    0 log 0 treated as 0; gradient flows into y only. Averaging over
    instances keeps this term's weight independent of dataset size, so the
    unit-weight sum with the other two (instance-averaged) terms stays
    balanced; the raw sum grows with N and drowns them, which collapses the
    assignment to fewer clusters.
    """
    p = nk.constant(target.p)
    n = y.value.shape[0]
    log_ratio = nk.unary(p, "log") - nk.unary(y, "log")
    return nk.reduce(p * log_ratio, "sum") * (1.0 / n)


def total_loss(
    z1,
    z2,
    y1,
    y2,
    y_fused,
    tau_instance: float = 1.0,
    tau_cluster: float = 0.5,
    use_ins: bool = True,
    use_clu: bool = True,
    use_hg: bool = True,
    include_self: bool = True,
    target: TargetDistribution | None = None,
):
    """Unit-weight sum of the enabled terms; returns (node, LossBreakdown).

    The guidance target defaults to a fresh one built from the current
    assignments; pass ``target`` to reuse a cached distribution.
    """
    if use_hg and not use_clu:
        raise ConfigError("the guidance term requires the clustering term")
    parts = []
    l_ins = l_clu = l_hg = 0.0
    if use_ins:
        node = instance_contrastive_loss(z1, z2, tau_instance, include_self)
        l_ins = float(node.value[0, 0])
        parts.append(node)
    if use_clu:
        node = cluster_contrastive_loss(y1, y2, tau_cluster, include_self)
        l_clu = float(node.value[0, 0])
        parts.append(node)
    if use_hg:
        if target is None:
            target = high_confidence_target(y1, y2, y_fused)
        node = guidance_loss(y_fused, target)
        l_hg = float(node.value[0, 0])
        parts.append(node)
    if parts:
        total = parts[0]
        for part in parts[1:]:
            total = total + part
    else:
        total = nk.constant(0.0)
    return total, LossBreakdown(l_ins=l_ins, l_clu=l_clu, l_hg=l_hg, total=float(total.value[0, 0]))
