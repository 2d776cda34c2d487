import collections
import importlib
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from icmvc import cli, trainer
from icmvc.dataio import ViewSet, make_mask, save_dataset, synth_blobs
from icmvc.errors import ConfigError, DataError, DivergenceError
from icmvc.network import forward
from icmvc.trainer import ABLATION_MODES, TrainConfig, baseline, kmeans, prepare, train
from oracles import loop_knn, loop_normalize, loop_rbf, loop_symmetrize, loop_transfer, scipy_csr

SMALL = dict(hidden_dim=16, embed_dim=8)


def small_config(**kw):
    base = dict(SMALL, knn_k=4, epochs=5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def small_problem(seed=0, n=36, eta=0.25):
    views, labels = synth_blobs(n, 2, 3, dim=4, noise_sigma=0.4, seed=seed)
    mask = make_mask(n, 2, eta=eta, seed=seed)
    return views, mask, labels


# ---------------------------------------------------------------------------
# prepare


def test_prepare_full_mask_matches_no_missing_pipeline():
    views, _, _ = small_problem()
    full = np.ones((views.n_instances, 2), dtype=bool)
    _, filled = prepare(views, full, small_config())
    for original, out in zip(views.views, filled.views):
        np.testing.assert_array_equal(original, out)


def test_prepare_missing_row_matches_loop_construction():
    rng = np.random.default_rng(0)
    n = 6
    views = ViewSet([rng.integers(-8, 9, size=(n, 2)).astype(float) * 0.25 for _ in range(2)])
    mask = np.ones((n, 2), dtype=bool)
    mask[3, 0] = False
    config = small_config(knn_k=2)
    ops, _ = prepare(views, mask, config)

    raw = []
    for v in range(2):
        sims = loop_rbf(views.views[v].tolist(), mask[:, v].tolist(), 2.0)
        raw.append(loop_knn(sims, mask[:, v].tolist(), 2))
    transferred = loop_transfer(raw, mask.tolist(), "copy")
    for v in range(2):
        expected = np.array(loop_normalize(loop_symmetrize(transferred[v])))
        np.testing.assert_allclose(scipy_csr(ops[v]).toarray(), expected, atol=1e-12)


def test_prepare_rejects_a_wrong_shape_mask_before_any_graph_step(monkeypatch):
    views, _, _ = small_problem()
    monkeypatch.setattr(trainer, "squared_distances", lambda x: pytest.fail("a graph step ran"))
    with pytest.raises(DataError, match="mask shape"):
        prepare(views, np.ones((views.n_instances, 3), dtype=bool), small_config())


def test_prepare_handles_every_instance_incomplete():
    views, _, _ = small_problem(n=40)
    mask = make_mask(40, 2, eta=1.0, seed=2)
    ops, filled = prepare(views, mask, small_config())
    assert len(ops) == 2
    for v in range(2):
        zeroed = ~mask[:, v]
        assert np.all(filled.views[v][zeroed] == 0.0)


def test_prepare_memory_does_not_grow_with_n_squared_times_d():
    # a 255 x 255 x 128 float64 difference tensor alone would be about 64 MiB
    views, _ = synth_blobs(300, 2, 3, dim=128, noise_sigma=0.5, seed=0)
    mask = make_mask(300, 2, eta=0.3, seed=0)
    tracemalloc.start()
    try:
        prepare(views, mask, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_prepare_memory_grows_with_edges_not_n_squared():
    # every N x N float64 array would be about 7.6 MiB at N=1000
    views, _ = synth_blobs(1000, 2, 3, dim=10, noise_sigma=0.5, seed=0)
    mask = make_mask(1000, 2, eta=0.3, seed=0)
    tracemalloc.start()
    try:
        prepare(views, mask, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


def test_prepare_peak_in_observed_blocks():
    # one n_obs x n_obs float64 block is about 50 MiB here; the Gram form holds
    # two while the distances form, and no view's blocks outlive it. The blocked
    # difference form, which kept a view's blocks into the next, peaked at 3.15
    views, _ = synth_blobs(3000, 2, 3, dim=10, noise_sigma=0.5, seed=0)
    mask = make_mask(3000, 2, eta=0.3, seed=0)
    block = 8 * int(mask.sum(axis=0).max()) ** 2
    tracemalloc.start()
    try:
        prepare(views, mask, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * block


# ---------------------------------------------------------------------------
# train


def test_train_single_epoch_history():
    views, mask, labels = small_problem()
    result = train(views, mask, 3, small_config(epochs=1), labels=labels)
    assert len(result.history) == 1
    assert len(result.metric_history) == 1
    assert np.isfinite(result.history[0].total)


def test_train_deterministic():
    views, mask, labels = small_problem(seed=1)
    a = train(views, mask, 3, small_config(epochs=4, seed=9), labels=labels)
    b = train(views, mask, 3, small_config(epochs=4, seed=9), labels=labels)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.embeddings, b.embeddings)
    for ha, hb in zip(a.history, b.history):
        assert ha.as_row() == hb.as_row()


def test_train_label_free_result_identical():
    views, mask, labels = small_problem(seed=2)
    with_labels = train(views, mask, 3, small_config(epochs=3), labels=labels)
    without = train(views, mask, 3, small_config(epochs=3))
    np.testing.assert_array_equal(with_labels.labels, without.labels)
    np.testing.assert_array_equal(with_labels.embeddings, without.embeddings)
    for ha, hb in zip(with_labels.history, without.history):
        assert ha.as_row() == hb.as_row()
    assert without.metric_history == [] and without.final_metrics is None


@pytest.mark.parametrize("ablation", ["full", "no-hg-no-clu"])
def test_returned_params_reproduce_the_labels_and_embeddings(ablation):
    # the returned weights, which `run --save-model` checkpoints, are the ones
    # the last epoch evaluated: no Adam step follows it
    views, mask, labels = small_problem(seed=8)
    config = small_config(epochs=5, ablation=ablation, seed=8)
    result = train(views, mask, 3, config, labels=labels)
    operators, filled = prepare(views, mask, config)
    emb, asg = forward(result.params, operators, filled.views, config.tau_attention)
    np.testing.assert_array_equal(emb.fused.value, result.embeddings)
    if ablation == "full":
        np.testing.assert_array_equal(asg.fused.value.argmax(axis=1), result.labels)
    else:
        np.testing.assert_array_equal(kmeans(emb.fused.value, 3, seed=config.seed), result.labels)


# the (module, name) pairs that perfbench/layers.py rebinds: each name is looked
# up in that module's globals by its caller, so moving a call breaks the benchmark
TRAINING_NAMES = (
    ("icmvc.trainer", "prepare"),
    ("icmvc.trainer", "zero_fill"),
    ("icmvc.trainer", "median_bandwidth"),
    ("icmvc.trainer", "rbf_similarity"),
    ("icmvc.trainer", "knn_adjacency"),
    ("icmvc.trainer", "transfer_relations"),
    ("icmvc.trainer", "finalize_adjacency"),
    ("icmvc.trainer", "normalize"),
    ("icmvc.trainer", "init_model"),
    ("icmvc.trainer", "forward"),
    ("icmvc.network", "encode_view"),
    ("icmvc.network", "attention_fuse"),
    ("icmvc.network", "classify"),
    ("icmvc.trainer", "high_confidence_target"),
    ("icmvc.objectives", "instance_contrastive_loss"),
    ("icmvc.objectives", "cluster_contrastive_loss"),
    ("icmvc.objectives", "guidance_loss"),
    ("icmvc.numkit", "backward"),
    ("icmvc.numkit", "adam_step"),
    ("icmvc.trainer", "evaluate"),
    ("icmvc.trainer", "labels_from_assignment"),
)
CLI_NAMES = (("icmvc.cli", "load_dataset"), ("icmvc.cli", "train"))


def test_benchmark_hooked_names_are_called_where_they_are_looked_up(monkeypatch, tmp_path):
    calls = collections.Counter()

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    for key in TRAINING_NAMES + CLI_NAMES:
        module = importlib.import_module(key[0])
        monkeypatch.setattr(module, key[1], counting(key, getattr(module, key[1])))
    views, mask, labels = small_problem(seed=3)
    train(views, mask, 3, small_config(epochs=3, ablation="full"), labels=labels)
    assert [key for key in TRAINING_NAMES if not calls[key]] == []
    assert calls["icmvc.trainer", "forward"] == 3 and calls["icmvc.trainer", "init_model"] == 1
    assert calls["icmvc.numkit", "backward"] == calls["icmvc.numkit", "adam_step"] == 2  # none after the last epoch

    calls.clear()
    save_dataset(tmp_path / "data", views, labels)
    args = ["run", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out"), "--eta", "0.25", "--epochs", "2"]
    assert cli.main(args + ["--dim", "16", "--embed-dim", "8", "--knn", "4"]) == 0
    assert calls["icmvc.cli", "load_dataset"] == 1 and calls["icmvc.cli", "train"] == 1


def test_train_requires_two_views():
    views, mask, _ = small_problem()
    three = ViewSet(views.views + [views.views[0].copy()])
    with pytest.raises(ConfigError):
        train(three, np.ones((views.n_instances, 3), dtype=bool), 3, small_config())


def test_train_divergence_aborts_with_epoch():
    views, mask, _ = small_problem()
    config = small_config(tau_instance=1e-4)  # exp(1/tau) overflows
    with pytest.raises(DivergenceError) as info:
        train(views, mask, 3, config)
    assert info.value.epoch == 0


def test_train_converges_on_small_blobs():
    views, mask, labels = small_problem(seed=4, n=45)
    result = train(views, mask, 3, small_config(epochs=120, seed=4), labels=labels)
    assert result.final_metrics.acc >= 0.9


def test_train_early_descent():
    views, mask, labels = small_problem(seed=5, n=45)
    result = train(views, mask, 3, small_config(epochs=50, seed=5))
    first = np.mean([h.total for h in result.history[0:10]])
    last = np.mean([h.total for h in result.history[40:50]])
    assert last < first


def test_train_keeps_one_tape_alive(monkeypatch):
    # an epoch's tape must be freed before the next forward builds one
    earlier = []

    def tracking_forward(*args, **kwargs):
        assert all(ref() is None for ref in earlier), "an earlier epoch's tape is still alive"
        emb, asg = real_forward(*args, **kwargs)
        earlier.append(weakref.ref(asg.fused.value))
        return emb, asg

    real_forward = trainer.forward
    monkeypatch.setattr(trainer, "forward", tracking_forward)
    views, mask, labels = small_problem(seed=3)
    train(views, mask, 3, small_config(epochs=4), labels=labels)
    assert len(earlier) == 4


def test_train_epoch_memory_peak():
    # backward frees interior gradients, contrast_pair holds one 256 x 600 block of
    # its pair matrix at a time, train() drops the leaf gradients after each Adam
    # step, and the tape keeps only what backward reads (about 9.4 MiB); holding
    # interior gradients to the end of the epoch peaked at 18.5 MiB, keeping the
    # leaf gradients at 13.1, the whole 600 x 600 pair matrix at 12.2, and the
    # fusion head's stacked views and per-view attention products at 10.9
    views, labels = synth_blobs(300, 2, 3, dim=10, noise_sigma=0.5, seed=1)
    mask = make_mask(300, 2, eta=0.3, seed=1)
    tracemalloc.start()
    try:
        train(views, mask, 3, TrainConfig(epochs=3, seed=1), labels=labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.75 * 2**20


FAULT_PROBE = """
import resource, sys
from icmvc import TrainConfig, make_mask, synth_blobs
from icmvc.trainer import train
views, labels = synth_blobs(300, 2, 3, dim=int(sys.argv[1]), noise_sigma=0.5, seed=1)
mask = make_mask(300, 2, 0.3, 1)
for _ in range(2):  # the first training warms up; the second is counted
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(views, mask, 3, TrainConfig(epochs=40, seed=1), labels=labels)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
@pytest.mark.parametrize("dim", [2, 10])
def test_epoch_loop_does_not_refault_its_memory(dim):
    # with glibc's thresholds left dynamic, each such training took about
    # 68,000 minor faults at D=2, handing its temporaries back every epoch
    env = dict(os.environ, PYTHONPATH=str(Path(trainer.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(dim)], env=env, capture_output=True, text=True, check=True)
    assert int(done.stdout) < 300


BLAS_THREADS_PROBE = """
import hashlib
import numpy as np
from icmvc import TrainConfig, make_mask, numkit as nk, synth_blobs
from icmvc.trainer import train
rng = np.random.default_rng(0)
a, b = nk.leaf(rng.normal(size=(1000, 64))), nk.leaf(rng.normal(size=(1000, 64)))
root = nk.contrast_pair(a, b, 0.5)
nk.backward(root)
print(hashlib.sha256(root.value.tobytes() + a.grad.tobytes() + b.grad.tobytes()).hexdigest())
views, labels = synth_blobs(300, 2, 3, dim=10, noise_sigma=0.5, seed=1)
result = train(views, make_mask(300, 2, 0.3, 1), 3, TrainConfig(epochs=20, seed=1), labels=labels)
print(hashlib.sha256(np.array([h.as_row() for h in result.history]).tobytes() + result.embeddings.tobytes()).hexdigest())
"""


def test_contrast_pair_and_training_are_bit_identical_at_one_and_two_blas_threads():
    # contrast_pair's gradient products sum at most CONTRAST_BLOCK_ROWS terms
    # each. That holds the bits only at some shapes: whether OpenBLAS sums a
    # product alike at 1 and 2 threads also depends on its output shape, and
    # a 20-epoch training at N=150 differs between the two
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(trainer.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], env=env, capture_output=True, text=True, check=True)
        runs.append(done.stdout.split())
    contrast, training = zip(*runs)
    assert contrast[0] == contrast[1]
    assert training[0] == training[1]


def complementary_views(seed):
    """Two views of 300 instances (labels ``i % 3``) that each merge a different
    pair of clusters: view 0 puts clusters 0 and 1 on one center, view 1
    clusters 1 and 2; the other center lies 6 away on axis 0, noise σ=0.5, D=10."""
    labels = np.arange(300) % 3
    rng = np.random.default_rng(seed)
    views = []
    for apart in (2, 0):
        centers = np.zeros((3, 10))
        centers[apart, 0] = 6.0
        views.append(centers[labels] + 0.5 * rng.normal(size=(300, 10)))
    return ViewSet(views), labels


def symmetrize_allowing_isolated(keys_per_view, n):
    """``finalize_adjacency`` without its isolated-node check."""
    out = []
    for key in keys_per_view:
        key = key[key % (n + 1) != 0]
        rows, cols = np.divmod(key, n)
        out.append(np.unique(np.concatenate([key, cols * n + rows])))
    return out


@pytest.mark.slow
def test_relation_transfer_beats_no_transfer_on_complementary_views(monkeypatch):
    # each view alone separates only two of the three clusters, so a missing
    # row's graph neighbors must come from the other view; without transfer
    # a missing row keeps only its self-loop
    for seed in (1, 2):
        views, labels = complementary_views(seed)
        mask, config = make_mask(300, 2, 0.3, seed), TrainConfig(epochs=200, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(trainer, "transfer_relations", lambda keys, mask: keys)
            patch.setattr(trainer, "finalize_adjacency", symmetrize_allowing_isolated)
            without = train(views, mask, 3, config, labels=labels).final_metrics.acc
        with_transfer = train(views, mask, 3, config, labels=labels).final_metrics.acc
        assert with_transfer >= without + 0.05, (seed, with_transfer, without)


# ---------------------------------------------------------------------------
# ablation


@pytest.mark.parametrize(
    "flags",
    [
        dict(ablation="no-ins"),
        dict(ablation="no-hg"),
        dict(ablation="no-hg-no-clu"),
    ],
)
def test_ablation_history_columns_zero(flags):
    views, mask, labels = small_problem(seed=6)
    result = train(views, mask, 3, small_config(epochs=3, **flags), labels=labels)
    terms = ABLATION_MODES[flags["ablation"]]
    for term in ("ins", "clu", "hg"):
        zeroed = all(getattr(h, f"l_{term}") == 0.0 for h in result.history)
        assert zeroed != (term in terms)


def test_ablation_kmeans_fallback_without_clustering_term():
    views, mask, labels = small_problem(seed=7, n=45)
    config = small_config(epochs=60, ablation="no-hg-no-clu", seed=7)
    result = train(views, mask, 3, config, labels=labels)
    assert result.final_metrics is not None
    assert len(np.unique(result.labels)) == 3
    assert all(h.l_clu == 0.0 and h.l_hg == 0.0 for h in result.history)


def test_ablation_rejects_unknown_names():
    for name in ("custom", "no-clu", "Full", ""):  # "no-clu" would be guidance without clustering
        with pytest.raises(ConfigError, match="ablation"):
            small_config(ablation=name).validate()


def test_config_ablation_names():
    assert small_config().ablation == "full"
    assert list(ABLATION_MODES) == ["full", "no-ins", "no-hg", "no-hg-no-clu"]
    for name in ABLATION_MODES:
        assert small_config(ablation=name).validate().ablation == name


# ---------------------------------------------------------------------------
# kmeans


def test_kmeans_each_point_own_cluster():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 2)) * 5
    labels = kmeans(x, 6, seed=0)
    assert len(np.unique(labels)) == 6
    centers = np.stack([x[labels == c].mean(axis=0) for c in range(6)])
    inertia = ((x - centers[labels]) ** 2).sum()
    assert inertia < 1e-20


def test_kmeans_separated_pairs():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    for seed in range(5):
        labels = kmeans(x, 2, seed=seed)
        assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]


def test_kmeans_beats_random_assignments():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 3))
    labels = kmeans(x, 3, seed=1)

    def inertia_of(assignment):
        total = 0.0
        for c in range(3):
            members = x[assignment == c]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        return total

    ours = inertia_of(labels)
    for _ in range(50):
        assert ours <= inertia_of(rng.integers(0, 3, size=20)) + 1e-12


def test_kmeans_rejects_too_many_clusters():
    with pytest.raises(ConfigError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_deterministic():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(30, 4))
    np.testing.assert_array_equal(kmeans(x, 3, seed=5), kmeans(x, 3, seed=5))


def test_kmeans_with_more_clusters_than_distinct_points():
    # three distinct points, four clusters: seeding's last center finds no distance
    # left to weight by, and two equal centers leave Lloyd an empty cluster to revive
    x = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]]), 3, axis=0)
    labels = kmeans(x, 4, seed=0)
    assert sorted(np.unique(labels)) == [0, 1, 2, 3]
    for c in range(4):
        assert len(np.unique(x[labels == c], axis=0)) == 1  # no cluster mixes distinct points


# ---------------------------------------------------------------------------
# baselines


def test_baselines_perfect_on_clean_blobs():
    views, labels = synth_blobs(30, 2, 3, dim=4, noise_sigma=0.0, seed=11)
    mask = np.ones((30, 2), dtype=bool)
    for kind in ("bsv", "concat"):
        report = baseline(views, mask, labels, 3, kind, seed=0)
        assert report.acc == 1.0


def test_baseline_single_view_concat_equals_bsv():
    views, labels = synth_blobs(24, 2, 3, dim=4, noise_sigma=0.2, seed=12)
    single = ViewSet([views.views[0]])
    mask = np.ones((24, 1), dtype=bool)
    a = baseline(single, mask, labels, 3, "bsv", seed=3)
    b = baseline(single, mask, labels, 3, "concat", seed=3)
    assert a.acc == b.acc and a.nmi == b.nmi and a.ari == b.ari


def test_baseline_mean_imputes_missing_rows():
    views, mask, labels = small_problem(seed=13)
    imputed = trainer.mean_impute(views, mask)
    for v in range(2):
        missing = ~mask[:, v]
        if missing.any():
            expected = views.views[v][mask[:, v]].mean(axis=0)
            for row in imputed.views[v][missing]:
                np.testing.assert_allclose(row, expected, atol=1e-12)


def test_baseline_rejects_unknown_kind():
    views, mask, labels = small_problem()
    with pytest.raises(ConfigError):
        baseline(views, mask, labels, 3, "pca")


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(epochs=0),
        dict(lr=0.0),
        dict(tau_instance=0.0),
        dict(tau_cluster=-1.0),
        dict(tau_attention=0.0),
        dict(knn_k=0),
        dict(seed=-1),
        dict(ablation="custom"),
        dict(gcn_layers=0),
        dict(lr=-0.001),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw).validate()
