"""Experiment driver: graph preparation, the full-batch joint training loop,
the named ablations, and the k-means baselines.

One epoch is one Adam step over the whole dataset: encode every view,
fuse, project, classify, evaluate the loss terms that the config's
``ablation`` (a key of ``ABLATION_MODES``) enables, backpropagate.
The guidance target is rebuilt from the current assignments each epoch and
treated as a constant within the step. Training needs no pretraining and no
post-hoc clustering while the clustering term is active; with it ablated
away (``no-hg-no-clu``), final labels come from k-means on the fused
representation.

``prepare()`` builds each view's graph as sorted edge keys and returns the
propagation operators as ``scipy.sparse`` CSR matrices, which ``train()``
propagates through as they are. Only one epoch's tape is alive at a time:
each epoch drops its references to the tape before the next forward.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .dataio import ViewSet, zero_fill
from .errors import ConfigError, DataError, DivergenceError
from .graphs import (
    finalize_adjacency,
    knn_adjacency,
    median_bandwidth,
    normalize,
    rbf_similarity,
    squared_distances,
    transfer_relations,
)
from .metrics import evaluate, labels_from_assignment
from .network import forward, init_model
from .objectives import ABLATION_MODES, high_confidence_target, total_loss


@dataclass
class TrainConfig:
    """Every choice one training makes. ``ablation`` names the loss terms it
    uses: ``full`` (all three), ``no-ins``, ``no-hg`` or ``no-hg-no-clu``."""

    knn_k: int = 10
    bandwidth: float | None = None  # None -> per-view median heuristic
    lr: float = 0.001
    epochs: int = 500
    tau_instance: float = 1.0
    tau_cluster: float = 0.5
    tau_attention: float = 1.0
    hidden_dim: int = 128
    embed_dim: int = 64
    gcn_layers: int = 2
    seed: int = 0
    ablation: str = "full"

    def validate(self):
        for name in ("epochs", "knn_k", "hidden_dim", "embed_dim", "gcn_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        bandwidth = ("bandwidth",) if self.bandwidth is not None else ()  # None: median heuristic
        for name in ("lr", "tau_instance", "tau_cluster", "tau_attention") + bandwidth:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.ablation not in ABLATION_MODES:
            raise ConfigError(f"ablation must be one of {', '.join(ABLATION_MODES)}, got {self.ablation!r}")
        return self


@dataclass
class TrainResult:
    labels: np.ndarray
    history: list                  # LossBreakdown per epoch
    metric_history: list           # MetricsReport per epoch, or [] without labels
    embeddings: np.ndarray         # final fused representation
    wall_time: float
    final_metrics: object = None   # MetricsReport when truth labels were given
    params: object = None          # trained ModelParams, for checkpointing


def prepare(views: ViewSet, mask: np.ndarray, config: TrainConfig):
    """Graph construction for every view: squared distances (once per view),
    similarity and KNN among the observed instances, then relation transfer
    and symmetrization on sorted edge keys ``i * N + j``; ``normalize`` makes
    each view's keys into its CSR operator, the only sparse matrix built.
    Returns the operators and the zero-filled features."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (views.n_instances, views.n_views):
        raise DataError(f"mask shape {mask.shape} does not match data")
    n = views.n_instances
    raw = []
    for v in range(views.n_views):
        observed = mask[:, v]
        d2 = squared_distances(views.views[v][observed])
        t = config.bandwidth if config.bandwidth is not None else median_bandwidth(d2)
        sim = rbf_similarity(d2, t)
        del d2  # one n_obs² block fewer alive through the KNN step
        raw.append(knn_adjacency(sim, observed, config.knn_k))
        del sim  # and none left over while the next view's distances form
    operators = [normalize(key, n) for key in finalize_adjacency(transfer_relations(raw, mask), n)]
    return operators, zero_fill(views, mask)


@functools.cache
def _pin_allocator():
    """Fix glibc's malloc thresholds, once per process; a no-op where libc has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD, at glibc's 64-bit maximum
    mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD, at twice that


def train(views: ViewSet, mask: np.ndarray, n_clusters: int, config: TrainConfig, labels=None) -> TrainResult:
    """Joint optimization; returns final labels and per-epoch history.

    The contrastive objectives are defined over view pairs, so training
    expects exactly two views (graph preparation itself handles any number).
    The first call fixes glibc's mmap and trim thresholds for the whole
    process. Left dynamic, they rise only once a large block is freed, so
    whether the epochs' temporaries go back to the OS and fault in again
    would hang on what ran first: unpinned, a 40-epoch N=300 D=2 training
    took about 68,000 minor page faults; pinned, under ten.
    """
    config.validate()
    if views.n_views != 2:
        raise ConfigError(f"training requires exactly 2 views, got {views.n_views}")
    if n_clusters < 2:
        raise ConfigError(f"need at least 2 clusters, got {n_clusters}")
    _pin_allocator()
    started = time.perf_counter()
    operators, filled = prepare(views, mask, config)
    params = init_model(filled.dims, n_clusters, config.hidden_dim, config.embed_dim, config.gcn_layers, config.seed)
    optimizer = nk.AdamState(params.parameters(), config.lr)
    terms = ABLATION_MODES[config.ablation]

    history, metric_history = [], []
    # overflow past a diverging step is caught below as a non-finite loss
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            emb, asg = forward(params, operators, filled.views, config.tau_attention)
            target = high_confidence_target(asg.per_view[0], asg.per_view[1], asg.fused) if "hg" in terms else None
            total, breakdown = total_loss(
                emb.projections[0],
                emb.projections[1],
                asg.per_view[0],
                asg.per_view[1],
                asg.fused,
                config.tau_instance,
                config.tau_cluster,
                config.ablation,
                target,
            )
            if not np.isfinite(breakdown.total):
                raise DivergenceError(epoch, breakdown)
            nk.backward(total)
            nk.adam_step(optimizer)
            nk.zero_grads(optimizer.params)  # spent: the next forward need not hold them
            history.append(breakdown)
            if labels is not None:
                metric_history.append(evaluate(labels_from_assignment(asg.fused.value), labels))
            if epoch < config.epochs - 1:
                del emb, asg, total  # free this tape before the next forward builds one

    if "clu" in terms:
        final_labels = labels_from_assignment(asg.fused.value)
    else:
        final_labels = kmeans(emb.fused.value, n_clusters, seed=config.seed)
    final_metrics = evaluate(final_labels, labels) if labels is not None else None
    return TrainResult(
        labels=final_labels,
        history=history,
        metric_history=metric_history,
        embeddings=emb.fused.value,
        wall_time=time.perf_counter() - started,
        final_metrics=final_metrics,
        params=params,
    )


# ---------------------------------------------------------------------------
# k-means and the naive baselines

KMEANS_MAX_ITER = 300  # Lloyd iterations per restart, unless the labels settle sooner


def kmeans(x: np.ndarray, n_clusters: int, seed: int = 0, restarts: int = 20) -> np.ndarray:
    """Lloyd iterations with distance-weighted seeding, best of ``restarts``."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n_clusters > n:
        raise ConfigError(f"cannot form {n_clusters} clusters from {n} points")
    rng = np.random.Generator(np.random.PCG64(seed))
    best_labels, best_inertia = None, np.inf
    for _ in range(max(1, restarts)):
        centers = _seed_centers(x, n_clusters, rng)
        labels = None
        for _iteration in range(KMEANS_MAX_ITER):
            distances = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = distances.argmin(axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(n_clusters):
                members = x[labels == c]
                if members.shape[0] == 0:
                    # revive an empty cluster at the point farthest from its center
                    worst = distances[np.arange(n), labels].argmax()
                    centers[c] = x[worst]
                    labels[worst] = c
                else:
                    centers[c] = members.mean(axis=0)
        inertia = float(((x - centers[labels]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels.copy()
    return best_labels.astype(np.int64)


def _seed_centers(x: np.ndarray, n_clusters: int, rng) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, n_clusters):
        total = closest.sum()
        if total > 0:
            probabilities = closest / total
            idx = rng.choice(n, p=probabilities)
        else:
            idx = rng.integers(n)
        centers[c] = x[idx]
        closest = np.minimum(closest, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def mean_impute(views: ViewSet, mask: np.ndarray) -> ViewSet:
    """Replace each missing row by the mean of that view's observed rows."""
    mask = np.asarray(mask, dtype=bool)
    imputed = []
    for v, matrix in enumerate(views.views):
        observed = mask[:, v]
        if not observed.any():
            raise DataError(f"view {v} has no observed instances to average")
        out = matrix.copy()
        out[~observed] = matrix[observed].mean(axis=0)
        imputed.append(out)
    return ViewSet(imputed)


def baseline(views: ViewSet, mask: np.ndarray, labels: np.ndarray, n_clusters: int, kind: str, seed: int = 0):
    """Mean-impute + k-means reference clusterings.

    ``bsv`` clusters each view separately and reports the best-scoring one;
    ``concat`` clusters the horizontally stacked views.
    """
    if kind not in ("bsv", "concat"):
        raise ConfigError(f"unknown baseline {kind!r}")
    imputed = mean_impute(views, mask)
    if kind == "concat":
        stacked = np.hstack(imputed.views)
        pred = kmeans(stacked, n_clusters, seed=seed)
        return evaluate(pred, labels)
    best = None
    for matrix in imputed.views:
        pred = kmeans(matrix, n_clusters, seed=seed)
        report = evaluate(pred, labels)
        if best is None or report.acc > best.acc:
            best = report
    return best
