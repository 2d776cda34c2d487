"""Incomplete multi-view clustering with graph-based missing-value handling.

The pipeline: per-view RBF/KNN graphs with relation transfer into missing
views, GCN encoders whose message passing fills zeroed rows, instance-level
attention fusion, contrastive alignment at the instance and cluster level,
and a self-sharpening high-confidence guidance target, trained jointly
full-batch with Adam.
"""

from .dataio import ViewSet, load_dataset, make_mask, save_dataset, synth_blobs, zero_fill
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateGraphError,
    DivergenceError,
    FormatError,
    GenerationError,
    IcmvcError,
    ParseError,
    ShapeError,
)
from .metrics import MetricsReport, accuracy, ari, evaluate, labels_from_assignment, nmi
from .objectives import (
    LossBreakdown,
    TargetDistribution,
    cluster_contrastive_loss,
    cosine_similarity_matrix,
    guidance_loss,
    high_confidence_target,
    instance_contrastive_loss,
    total_loss,
)
from .trainer import TrainConfig, TrainResult, baseline, kmeans, prepare, train

__version__ = "0.1.0"

__all__ = [
    "ViewSet",
    "load_dataset",
    "make_mask",
    "save_dataset",
    "synth_blobs",
    "zero_fill",
    "MetricsReport",
    "accuracy",
    "nmi",
    "ari",
    "evaluate",
    "labels_from_assignment",
    "LossBreakdown",
    "TargetDistribution",
    "cosine_similarity_matrix",
    "instance_contrastive_loss",
    "cluster_contrastive_loss",
    "high_confidence_target",
    "guidance_loss",
    "total_loss",
    "TrainConfig",
    "TrainResult",
    "prepare",
    "train",
    "baseline",
    "kmeans",
    "IcmvcError",
    "ShapeError",
    "ConfigError",
    "ContractError",
    "DataError",
    "FormatError",
    "ParseError",
    "DegenerateGraphError",
    "GenerationError",
    "DivergenceError",
]
