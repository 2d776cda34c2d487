"""The training objective: an instance-level contrastive term over projected
embeddings, a cluster-level contrastive term over assignment columns with an
entropy bonus, and a KL guidance term toward a sharpened high-confidence
target. An ablation (a key of ``ABLATION_MODES``) names the terms that are
summed, with unit weights. Both contrastive terms are one fused op,
``nk.contrast_pair``, with an analytic backward; the cluster term passes it
the transposed assignments.

Conventions tests rely on:
  * similarity s(u, w) is cosine, with zero rows scoring 0 against anything,
  * natural logarithms everywhere,
  * the same-view denominator sum keeps its j = i term, matching the loss
    definition as written,
  * the guidance target is a constant: no gradient flows into the
    assignments it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .errors import ContractError

# the loss terms each ablation sums: instance contrast, cluster contrast, high-confidence guidance
ABLATION_MODES = {
    "full": ("ins", "clu", "hg"),
    "no-ins": ("clu", "hg"),
    "no-hg": ("ins", "clu"),
    "no-hg-no-clu": ("ins",),
}


@dataclass
class LossBreakdown:
    l_ins: float
    l_clu: float
    l_hg: float
    total: float

    def as_row(self):
        return [self.l_ins, self.l_clu, self.l_hg, self.total]


def _check_row_stochastic(y: nk.DiffNode, name: str):
    sums = y.value.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-6:
        raise ContractError(f"{name} is not row-stochastic (row sums off by {np.max(np.abs(sums - 1.0)):.2e})")


def instance_contrastive_loss(z1: nk.DiffNode, z2: nk.DiffNode, tau_instance: float) -> nk.DiffNode:
    """Cross-view alignment of projected embeddings, averaged over 2N anchors."""
    n = z1.value.shape[0]
    return nk.contrast_pair(z1, z2, tau_instance) * (1.0 / (2.0 * n))


def _column_mean_entropy(y: nk.DiffNode) -> nk.DiffNode:
    n = y.value.shape[0]
    cluster_mass = nk.reduce(y, "col_sum") * (1.0 / n)
    return nk.unary(nk.reduce(cluster_mass * nk.unary(cluster_mass, "log"), "sum"), "neg")


def cluster_contrastive_loss(y1: nk.DiffNode, y2: nk.DiffNode, tau_cluster: float) -> nk.DiffNode:
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
    contrast = nk.contrast_pair(cols1, cols2, tau_cluster)
    entropy = _column_mean_entropy(y1) + _column_mean_entropy(y2)
    return contrast * (1.0 / (2.0 * c)) - entropy


def high_confidence_target(y1, y2, y_fused) -> np.ndarray:
    """The target P: the most confident assignment Q per entry, with rows sharpened.

    Accepts nodes or arrays; the result is detached either way. Squaring and
    renormalizing Q pushes confident rows toward one-hot and keeps genuinely
    ambiguous rows flat.
    """
    arrays = [a.value if isinstance(a, nk.DiffNode) else np.asarray(a, dtype=float) for a in (y1, y2, y_fused)]
    q = np.maximum.reduce(arrays)
    sq = q * q
    return sq / sq.sum(axis=1, keepdims=True)


def guidance_loss(y: nk.DiffNode, target: np.ndarray) -> nk.DiffNode:
    """Relative entropy of the fixed target against the live assignments.

    Computed as the per-instance mean of sum_j p * (log p - log y), with
    0 log 0 treated as 0; gradient flows into y only. Averaging over
    instances keeps this term's weight independent of dataset size, so the
    unit-weight sum with the other two (instance-averaged) terms stays
    balanced; the raw sum grows with N and drowns them, which collapses the
    assignment to fewer clusters.
    """
    p = nk.constant(target)
    n = y.value.shape[0]
    log_ratio = nk.unary(p, "log") - nk.unary(y, "log")
    return nk.reduce(p * log_ratio, "sum") * (1.0 / n)


def total_loss(z1, z2, y1, y2, y_fused, tau_instance: float, tau_cluster: float, ablation: str, target):
    """Unit-weight sum of the terms that ``ABLATION_MODES[ablation]`` names;
    returns (node, LossBreakdown). ``target`` is P from
    ``high_confidence_target``, read only when the guidance term is named.
    """
    parts = {}
    for term in ABLATION_MODES[ablation]:
        if term == "ins":
            parts[term] = instance_contrastive_loss(z1, z2, tau_instance)
        elif term == "clu":
            parts[term] = cluster_contrastive_loss(y1, y2, tau_cluster)
        else:
            parts[term] = guidance_loss(y_fused, target)
    nodes = list(parts.values())
    total = sum(nodes[1:], nodes[0])
    l_ins, l_clu, l_hg = (float(parts[t].value[0, 0]) if t in parts else 0.0 for t in ("ins", "clu", "hg"))
    return total, LossBreakdown(l_ins=l_ins, l_clu=l_clu, l_hg=l_hg, total=float(total.value[0, 0]))
