"""Which icmvc names the traced run rebinds, and how spans become the
per-layer metrics listed in ``BENCHMARK.json``.

Every binding names the module in which the *caller* looks the function up:
``train`` reaches ``prepare``, the graph steps, ``forward`` and the metric
helpers through ``icmvc.trainer``'s globals; ``forward`` reaches the encoder,
fusion and classifier through ``icmvc.network``; ``total_loss`` reaches the
loss terms through ``icmvc.objectives``; the trainer calls ``nk.backward``
and ``nk.adam_step`` as attributes of ``icmvc.numkit``; ``sweep`` reaches
``train`` and ``load_dataset`` through ``icmvc.cli``.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import Span, Tracer, max_overlap

TRAIN_SPANS = ("trainer.train", "cli.train")
MIB = float(2**20)

# (module the caller looks the name up in, attribute, span name)
BINDINGS = (
    ("icmvc.cli", "load_dataset", "dataio.load_dataset"),
    ("icmvc.cli", "train", "cli.train"),
    ("icmvc.trainer", "prepare", "trainer.prepare"),
    ("icmvc.trainer", "zero_fill", "dataio.zero_fill"),
    ("icmvc.trainer", "median_bandwidth", "graphs.median_bandwidth"),
    ("icmvc.trainer", "rbf_similarity", "graphs.rbf_similarity"),
    ("icmvc.trainer", "knn_adjacency", "graphs.knn_adjacency"),
    ("icmvc.trainer", "transfer_relations", "graphs.transfer_relations"),
    ("icmvc.trainer", "finalize_adjacency", "graphs.finalize_adjacency"),
    ("icmvc.trainer", "normalize", "graphs.normalize"),
    ("icmvc.trainer", "init_model", "network.init_model"),
    ("icmvc.trainer", "forward", "network.forward"),
    ("icmvc.network", "encode_view", "network.encode_view"),
    ("icmvc.network", "attention_fuse", "network.attention_fuse"),
    ("icmvc.network", "classify", "network.classify"),
    ("icmvc.trainer", "high_confidence_target", "objectives.target"),
    ("icmvc.objectives", "instance_contrastive_loss", "objectives.instance"),
    ("icmvc.objectives", "cluster_contrastive_loss", "objectives.cluster"),
    ("icmvc.objectives", "guidance_loss", "objectives.guidance"),
    ("icmvc.numkit", "backward", "numkit.backward"),
    ("icmvc.numkit", "adam_step", "numkit.adam"),
    ("icmvc.trainer", "evaluate", "metrics.evaluate"),
    ("icmvc.trainer", "labels_from_assignment", "metrics.evaluate"),
)

# per-layer metric -> unit; the order is the order of BENCHMARK.json
UNITS = {
    "graphs.median_bandwidth_s": "s",
    "graphs.rbf_similarity_s": "s",
    "graphs.knn_adjacency_s": "s",
    "graphs.transfer_relations_s": "s",
    "graphs.finalize_adjacency_s": "s",
    "graphs.normalize_s": "s",
    "graphs.prepare_peak_mb": "MiB",
    "graphs.operator_mb": "MiB",
    "graphs.operator_nnz": "count",
    "network.encode_view_ms": "ms",
    "objectives.instance_ms": "ms",
    "numkit.backward_ms": "ms",
    "numkit.tape_nodes": "count",
    "numkit.tape_edges": "count",
    "numkit.tape_mb": "MiB",
    "numkit.useful_vjp_share": "ratio",
    "numkit.adam_ms": "ms",
    "network.attention_fuse_ms": "ms",
    "network.classify_ms": "ms",
    "network.forward_ms": "ms",
    "objectives.cluster_ms": "ms",
    "objectives.guidance_ms": "ms",
    "objectives.target_ms": "ms",
    "metrics.evaluate_ms": "ms",
    "metrics.final_acc": "ratio",
    "metrics.final_nmi": "ratio",
    "trainer.epoch_ms_p50": "ms",
    "trainer.epoch_ms_p90": "ms",
    "dataio.load_dataset_s": "s",
    "dataio.zero_fill_s": "s",
    "cli.cell_train_s_p50": "s",
    "cli.cells_concurrent_max": "count",
    "trace.overhead_pct": "%",
}

# self time per prepare() call, in seconds
PER_PREPARE = {
    "graphs.median_bandwidth_s": "graphs.median_bandwidth",
    "graphs.rbf_similarity_s": "graphs.rbf_similarity",
    "graphs.knn_adjacency_s": "graphs.knn_adjacency",
    "graphs.transfer_relations_s": "graphs.transfer_relations",
    "graphs.finalize_adjacency_s": "graphs.finalize_adjacency",
    "graphs.normalize_s": "graphs.normalize",
    "dataio.zero_fill_s": "dataio.zero_fill",
}

# self time per epoch, in milliseconds
PER_EPOCH = {
    "network.encode_view_ms": "network.encode_view",
    "network.attention_fuse_ms": "network.attention_fuse",
    "network.classify_ms": "network.classify",
    "network.forward_ms": "network.forward",
    "objectives.instance_ms": "objectives.instance",
    "objectives.cluster_ms": "objectives.cluster",
    "objectives.guidance_ms": "objectives.guidance",
    "objectives.target_ms": "objectives.target",
    "numkit.backward_ms": "numkit.backward",
    "numkit.adam_ms": "numkit.adam",
    "metrics.evaluate_ms": "metrics.evaluate",
}


def tape_stats(root, params) -> dict:
    """Size of the tape behind ``root`` and the share of its edges that
    backpropagation needs: an edge into a node is useful when that node is
    a parameter or has one among its ancestors."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in seen)
    param_ids = {id(p) for p in params}
    leads = {}
    edges = useful = 0
    for node in order:  # parents come before their children
        leads[id(node)] = id(node) in param_ids or any(leads[id(p)] for p in node.parents)
        edges += len(node.parents)
        useful += sum(1 for p in node.parents if leads[id(p)])
    return {
        "nodes": len(order),
        "edges": edges,
        "bytes": sum(node.value.nbytes for node in order),
        "useful_edges": useful,
    }


def operator_stats(operators) -> dict:
    """Computed bytes and nonzeros of the propagation operators, dense or sparse."""
    nbytes = nnz = 0
    for op in operators:
        if hasattr(op, "nnz"):
            nbytes += sum(getattr(op, a).nbytes for a in ("data", "indices", "indptr") if hasattr(op, a))
            nnz += int(op.nnz)
        else:
            arr = np.asarray(op)
            nbytes += arr.nbytes
            nnz += int(np.count_nonzero(arr))
    return {"bytes": nbytes, "nnz": nnz}


class LayerProbe:
    """Installs every binding on a tracer and gathers the counts taken at
    layer boundaries: parameters per training, tape size per training (from
    its first backward) and operator size per prepare."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.params: dict[Span | None, list] = {}
        self.tapes: dict[Span | None, dict] = {}
        self.operators: list[dict] = []

    def install(self):
        hooks = {
            "network.init_model": self._on_init_model,
            "numkit.backward": self._on_backward,
            "trainer.prepare": self._on_prepare,
        }
        for module, attr, name in BINDINGS:
            self.tracer.wrap(module, attr, name, after=hooks.get(name))
        return self

    def _on_init_model(self, span, result, args, kwargs):
        self.params[span.ancestor(TRAIN_SPANS)] = list(result.parameters())

    def _on_backward(self, span, result, args, kwargs):
        training = span.ancestor(TRAIN_SPANS)
        if training not in self.tapes:
            self.tapes[training] = tape_stats(args[0], self.params.get(training, ()))

    def _on_prepare(self, span, result, args, kwargs):
        self.operators.append(operator_stats(result[0]))


def _epoch_intervals(tracer: Tracer) -> list[float]:
    """Seconds between consecutive ``forward`` calls of the same training."""
    starts: dict[Span | None, list[float]] = {}
    for span in tracer.named("network.forward"):
        starts.setdefault(span.ancestor(TRAIN_SPANS), []).append(span.start)
    gaps = []
    for values in starts.values():
        values.sort()
        gaps.extend(b - a for a, b in zip(values, values[1:]))
    return gaps


def layer_metrics(probe: LayerProbe, epochs: int, trainings: int, measured: dict) -> dict:
    """Per-layer values keyed as in ``UNITS``.

    ``epochs`` and ``trainings`` count what the traced calls ran; graph and
    data steps are reported per training (one prepare each), loop steps per
    epoch. ``measured`` holds the values taken outside the spans (peak
    memory of a prepare, overhead, final scores). A metric whose spans are
    all absent reads 0.
    """
    tracer = probe.tracer
    self_seconds = tracer.self_seconds()
    values = dict(measured)
    for metric, name in PER_PREPARE.items():
        values[metric] = self_seconds.get(name, 0.0) / trainings
    for metric, name in PER_EPOCH.items():
        values[metric] = 1e3 * self_seconds.get(name, 0.0) / epochs

    loads = tracer.named("dataio.load_dataset")
    values["dataio.load_dataset_s"] = statistics.median(s.duration for s in loads) if loads else 0.0

    ops = probe.operators
    values["graphs.operator_mb"] = statistics.median(o["bytes"] for o in ops) / MIB if ops else 0.0
    values["graphs.operator_nnz"] = statistics.median(o["nnz"] for o in ops) if ops else 0

    tapes = list(probe.tapes.values())
    values["numkit.tape_nodes"] = statistics.median(t["nodes"] for t in tapes) if tapes else 0
    values["numkit.tape_edges"] = statistics.median(t["edges"] for t in tapes) if tapes else 0
    values["numkit.tape_mb"] = statistics.median(t["bytes"] for t in tapes) / MIB if tapes else 0.0
    values["numkit.useful_vjp_share"] = (
        sum(t["useful_edges"] for t in tapes) / sum(t["edges"] for t in tapes) if tapes else 0.0
    )

    gaps = _epoch_intervals(tracer)
    values["trainer.epoch_ms_p50"] = 1e3 * float(np.percentile(gaps, 50)) if gaps else 0.0
    values["trainer.epoch_ms_p90"] = 1e3 * float(np.percentile(gaps, 90)) if gaps else 0.0

    cells = tracer.named("cli.train") or tracer.named("trainer.train")
    values["cli.cell_train_s_p50"] = statistics.median(s.duration for s in cells) if cells else 0.0
    values["cli.cells_concurrent_max"] = max_overlap(cells)
    return {name: (values[name], unit) for name, unit in UNITS.items()}
