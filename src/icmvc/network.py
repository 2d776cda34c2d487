"""Forward architecture: per-view GCN encoders with skip connections,
instance-level attention fusion, per-view projection heads, and one
weight-shared soft classifier.

All encoders end at a common hidden width so the fused representation is a
row-wise convex combination of the per-view ones and a single classifier can
serve every path. Every GCN layer is one ``nk.gcn_layer`` node and every
affine layer one ``nk.affine`` node.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio, numkit as nk
from .errors import ConfigError, FormatError, ShapeError


@dataclass
class TwoLayerMLP:
    """Affine, nonlinearity, affine."""

    w1: nk.DiffNode
    b1: nk.DiffNode
    w2: nk.DiffNode
    b2: nk.DiffNode

    def apply(self, x: nk.DiffNode) -> nk.DiffNode:
        return nk.affine(nk.affine(x, self.w1, self.b1, "relu"), self.w2, self.b2)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class ModelParams:
    """Every trainable matrix, grouped by role.

    ``encoder_weights[v][m]`` is the m-th GCN layer of view v (first layer
    maps the view dimension to the hidden width, the rest are square).
    ``classifier`` is shared: the same two nodes score every view and the
    fused representation.
    """

    encoder_weights: list            # per view: list of DiffNode
    fusion: TwoLayerMLP              # (V*d) -> d -> V
    heads: list                      # per view: TwoLayerMLP, d -> d -> d_z
    classifier_w: nk.DiffNode        # d -> C
    classifier_b: nk.DiffNode

    def parameters(self):
        return [node for _, node in self.named_parameters()]

    def named_parameters(self):
        pairs = []
        for v, weights in enumerate(self.encoder_weights):
            for m, w in enumerate(weights):
                pairs.append((f"encoder{v}.layer{m}", w))
        for name, node in zip(("w1", "b1", "w2", "b2"), self.fusion.parameters()):
            pairs.append((f"fusion.{name}", node))
        for v, head in enumerate(self.heads):
            for name, node in zip(("w1", "b1", "w2", "b2"), head.parameters()):
                pairs.append((f"head{v}.{name}", node))
        pairs.append(("classifier.w", self.classifier_w))
        pairs.append(("classifier.b", self.classifier_b))
        return pairs


@dataclass
class EmbeddingBundle:
    per_view: list          # H^v nodes, each N x d
    fused: nk.DiffNode      # N x d
    projections: list       # Z^v nodes, each N x d_z
    attention: nk.DiffNode  # N x V, rows on the simplex


@dataclass
class AssignmentBundle:
    per_view: list          # Y^v, each N x C row-stochastic (nodes or arrays)
    fused: nk.DiffNode      # Y


def _uniform_init(rng, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(rows)
    return rng.uniform(-bound, bound, size=(rows, cols))


def _mlp(rng, d_in: int, d_hidden: int, d_out: int) -> TwoLayerMLP:
    return TwoLayerMLP(
        w1=nk.leaf(_uniform_init(rng, d_in, d_hidden)),
        b1=nk.leaf(np.zeros((1, d_hidden))),
        w2=nk.leaf(_uniform_init(rng, d_hidden, d_out)),
        b2=nk.leaf(np.zeros((1, d_out))),
    )


def init_model(view_dims, n_clusters: int, hidden_dim: int, embed_dim: int, gcn_layers: int, seed: int) -> ModelParams:
    """Seeded uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    if gcn_layers < 1:
        raise ConfigError(f"need at least one encoder layer, got {gcn_layers}")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_views = len(view_dims)
    encoders = []
    for d_v in view_dims:
        weights = [nk.leaf(_uniform_init(rng, d_v, hidden_dim))]
        for _ in range(gcn_layers - 1):
            weights.append(nk.leaf(_uniform_init(rng, hidden_dim, hidden_dim)))
        encoders.append(weights)
    fusion = _mlp(rng, n_views * hidden_dim, hidden_dim, n_views)
    heads = [_mlp(rng, hidden_dim, hidden_dim, embed_dim) for _ in range(n_views)]
    classifier_w = nk.leaf(_uniform_init(rng, hidden_dim, n_clusters))
    classifier_b = nk.leaf(np.zeros((1, n_clusters)))
    return ModelParams(encoders, fusion, heads, classifier_w, classifier_b)


def encode_view(x: nk.DiffNode, operator, weights) -> nk.DiffNode:
    """Stacked relu GCN layers (``nk.gcn_layer``); from the second on, a residual is added.

    ``operator`` is the view's constant propagation matrix, dense or
    ``scipy.sparse``. The first layer changes width (view dimension to
    hidden), so it carries no skip. Zero-filled missing rows generally become
    nonzero here through neighbor aggregation.
    """
    h = nk.gcn_layer(x, operator, weights[0])
    for w in weights[1:]:
        h = nk.gcn_layer(h, operator, w, residual=True)
    return h


def attention_fuse(per_view, fusion: TwoLayerMLP, tau_att: float):
    """Per-instance view weights from a gated score head, then a convex mix.

    Scores pass through a sigmoid before the temperature softmax, which caps
    the weight ratio between any two views at e**(1/tau).
    """
    n_views = len(per_view)
    scores = fusion.apply(nk.concat_cols(per_view))
    if scores.value.shape[1] != n_views:
        raise ShapeError(f"fusion head emits {scores.value.shape[1]} scores for {n_views} views")
    lam = nk.row_softmax(nk.unary(scores, "sigmoid"), tau_att)
    fused = None
    for v, h in enumerate(per_view):
        contribution = nk.slice_cols(lam, v, v + 1) * h
        fused = contribution if fused is None else fused + contribution
    return fused, lam


def classify(h: nk.DiffNode, classifier_w: nk.DiffNode, classifier_b: nk.DiffNode) -> nk.DiffNode:
    """Shared affine map to cluster logits, then a row softmax."""
    return nk.row_softmax(nk.affine(h, classifier_w, classifier_b), 1.0)


def forward(params: ModelParams, operators, views, tau_att: float):
    """Full pass: encode each view, fuse, project, classify everything."""
    xs = [nk.constant(x) for x in views]
    hs = [encode_view(x, op, w) for x, op, w in zip(xs, operators, params.encoder_weights)]
    fused, lam = attention_fuse(hs, params.fusion, tau_att)
    zs = [head.apply(h) for h, head in zip(hs, params.heads)]
    ys = [classify(h, params.classifier_w, params.classifier_b) for h in hs]
    y_fused = classify(fused, params.classifier_w, params.classifier_b)
    embeddings = EmbeddingBundle(per_view=hs, fused=fused, projections=zs, attention=lam)
    assignments = AssignmentBundle(per_view=ys, fused=y_fused)
    return embeddings, assignments


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(params: ModelParams, path, config: dict | None = None) -> list:
    """One decimal CSV per parameter plus a manifest with shapes; returns the
    names of the files written, each prefixed with the directory's own name."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    shapes = {}
    for name, node in params.named_parameters():
        dataio.write_matrix(path / f"{name}.csv", node.value)
        shapes[name] = list(node.value.shape)
    digest = hashlib.sha256(json.dumps(config or {}, sort_keys=True).encode()).hexdigest()[:16]
    manifest = {"shapes": shapes, "config_hash": digest}
    dataio.atomic_write(path / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return [f"{path.name}/{name}.csv" for name in shapes] + [f"{path.name}/manifest.json"]


def load_checkpoint(params: ModelParams, path):
    """Restore parameter values in place; shapes must match exactly."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    for name, node in params.named_parameters():
        if name not in manifest["shapes"]:
            raise FormatError(f"checkpoint is missing parameter {name}")
        value = dataio.read_matrix(path / f"{name}.csv")
        if list(value.shape) != manifest["shapes"][name] or value.shape != node.value.shape:
            raise ShapeError(f"{name}: checkpoint shape {value.shape} != model shape {node.value.shape}")
        node.value = value
    return params
