"""Tests of the benchmark's span tracer and per-layer accounting.

    PYTHONPATH=src python -m pytest -q perfbench/check_tracer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import icmvc  # noqa: E402
from icmvc import numkit as nk  # noqa: E402
from icmvc import trainer  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer, max_overlap  # noqa: E402


MEASURED = {
    "graphs.prepare_peak_mb": 1.0,
    "trace.overhead_pct": 1.5,
    "metrics.final_acc": 0.5,
    "metrics.final_nmi": 0.25,
}


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def tiny_inputs(n=24, seed=3):
    views, labels = icmvc.synth_blobs(n, 2, 2, dim=3, noise_sigma=0.5, seed=seed)
    mask = icmvc.make_mask(n, 2, 0.25, seed)
    return views, labels, mask


def traced_training(tracer, epochs=3):
    views, labels, mask = tiny_inputs()
    config = icmvc.TrainConfig(epochs=epochs, knn_k=3, hidden_dim=8, embed_dim=4, seed=1)
    with tracer.span("trainer.train"):
        return trainer.train(views, mask, 2, config, labels=labels)


def test_self_time_is_inclusive_minus_children():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 5.0, 10.0))
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            pass
    a, b, c = tracer.spans
    assert (a.duration, b.duration, c.duration) == (10.0, 2.0, 1.0)
    assert a.self_time == a.duration - b.duration - c.duration == 7.0
    assert b.parent is a and c.parent is a and a.parent is None
    assert tracer.self_seconds() == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_nested_rebinding_attributes_to_the_caller():
    with Tracer() as tracer:
        probe = layers.LayerProbe(tracer).install()
        result = traced_training(tracer, epochs=3)
    root = tracer.named("trainer.train")[0]
    prepare = tracer.named("trainer.prepare")
    assert len(prepare) == 1 and prepare[0].parent is root
    for name in ("graphs.median_bandwidth", "graphs.rbf_similarity", "graphs.knn_adjacency"):
        spans = tracer.named(name)
        assert len(spans) == 2 and all(s.parent is prepare[0] for s in spans)
    forwards = tracer.named("network.forward")
    assert len(forwards) == 3 and all(f.parent is root for f in forwards)
    encodes = tracer.named("network.encode_view")
    assert len(encodes) == 6 and all(e.parent in forwards for e in encodes)
    assert all(s.parent is root for s in tracer.named("numkit.backward"))
    assert all(s.parent is root for s in tracer.named("objectives.instance"))
    # self times of a root and everything under it add up to the root's duration
    assert sum(s.self_time for s in tracer.spans) == pytest.approx(root.duration, rel=1e-9)
    assert len(result.history) == 3
    assert set(probe.tapes) == {root} and probe.tapes[root]["nodes"] > 0


def test_rebinding_is_undone_and_does_not_change_outputs():
    original = (trainer.forward, trainer.prepare, nk.backward)
    baseline = traced_training(Tracer())
    with Tracer() as tracer:
        layers.LayerProbe(tracer).install()
        assert trainer.forward is not original[0]
        traced = traced_training(tracer)
    assert (trainer.forward, trainer.prepare, nk.backward) == original
    from workloads import training_digests

    assert training_digests(traced) == training_digests(baseline)


def test_absent_names_are_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(
        layers,
        "BINDINGS",
        layers.BINDINGS
        + (
            ("icmvc.network", "project_instances_gone", "network.project"),
            ("icmvc.module_gone", "anything", "gone.anything"),
        ),
    )
    monkeypatch.delattr(icmvc.trainer, "evaluate")
    with Tracer() as tracer:
        probe = layers.LayerProbe(tracer).install()
    assert {"icmvc.network.project_instances_gone", "icmvc.module_gone.anything", "icmvc.trainer.evaluate"} <= set(
        tracer.absent
    )
    metrics = layers.layer_metrics(probe, epochs=1, trainings=1, measured=MEASURED)
    assert list(metrics) == list(layers.UNITS)


def test_layer_metrics_cover_every_listed_metric():
    with Tracer() as tracer:
        probe = layers.LayerProbe(tracer).install()
        traced_training(tracer, epochs=4)
    metrics = layers.layer_metrics(probe, epochs=4, trainings=1, measured=MEASURED)
    assert list(metrics) == list(layers.UNITS)
    values = {k: v for k, (v, _) in metrics.items()}
    assert values["graphs.prepare_peak_mb"] == 1.0 and values["metrics.final_acc"] == 0.5
    assert values["graphs.operator_nnz"] > 0
    assert values["numkit.backward_ms"] > 0 and values["network.encode_view_ms"] > 0
    assert 0.0 < values["numkit.useful_vjp_share"] < 1.0
    assert values["cli.cells_concurrent_max"] == 1
    assert values["trainer.epoch_ms_p90"] >= values["trainer.epoch_ms_p50"] > 0


def test_tape_stats_counts_useful_edges():
    a = nk.constant([[1.0, 2.0], [3.0, 4.0]])
    w = nk.constant([[0.5], [0.25]])
    h = nk.matmul(a, w)  # edges into a (not useful) and into w (useful)
    root = nk.reduce(h, "sum")  # edge into h (useful)
    stats = layers.tape_stats(root, [w])
    assert stats == {"nodes": 4, "edges": 3, "bytes": (4 + 2 + 2 + 1) * 8, "useful_edges": 2}


def test_max_overlap():
    tracer = Tracer(clock=FakeClock(0.0, 0.0, 1.0, 2.0))
    outer = tracer.open("x")
    inner = tracer.open("x")
    tracer.close(inner)
    tracer.close(outer)
    assert max_overlap([outer, inner]) == 2
    assert max_overlap([]) == 0


def test_setup_ends_where_init_model_returns(monkeypatch, tmp_path):
    import workloads

    w = workloads.Workload("tiny", "", n=40, dim=3, clusters=2, eta=0.3, epochs=2)
    inputs = workloads.make_inputs(w, 5, tmp_path)
    timed = workloads.run_training(w, inputs, 5)
    assert not timed.problems and 0.0 < timed.setup_seconds < timed.seconds

    class NoMarker(Tracer):
        def wrap(self, *args, **kwargs):
            return False

    monkeypatch.setattr(workloads, "Tracer", NoMarker)
    unmarked = workloads.run_training(w, inputs, 5)
    assert unmarked.setup_seconds is None and unmarked.failed == 1
    assert any("init_model" in p for p in unmarked.problems)
