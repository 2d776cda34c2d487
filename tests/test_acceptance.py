"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy end-to-end runs (criteria 6-8) share session fixtures. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines;
the whole module takes on the order of ten minutes on one core because it
includes thirty-plus full 500-epoch training runs.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from icmvc import metrics as metrics_mod
from icmvc import numkit as nk
from icmvc import objectives as obj
from icmvc.cli import main as cli_main
from icmvc.dataio import make_mask, synth_blobs
from icmvc.errors import DegenerateGraphError
from icmvc.graphs import normalize as graph_normalize
from icmvc.network import forward, init_model
from icmvc.trainer import TrainConfig, baseline, train
from oracles import (
    dense_to_keys,
    exhaustive_accuracy,
    formula_nmi,
    loop_cluster_loss,
    loop_guidance_loss,
    loop_instance_loss,
    numeric_gradient_multi,
    pair_counting_ari,
    relative_error,
)
from test_graphs import run_loop_pipeline, run_pipeline

BENCH = dict(n=300, n_views=2, n_clusters=3, dim=10, noise_sigma=0.5)
BENCH_SEEDS = (1, 2, 3)
SWEEP_SEEDS = (1, 2, 3, 4, 5)


def announce(number: int, description: str):
    print(f"\nACCEPTANCE {number} PASS: {description}")


def bench_run(seed: int, eta: float):
    views, labels = synth_blobs(
        BENCH["n"], BENCH["n_views"], BENCH["n_clusters"], BENCH["dim"], BENCH["noise_sigma"], seed=seed
    )
    mask = make_mask(BENCH["n"], BENCH["n_views"], eta, seed=seed)
    result = train(views, mask, BENCH["n_clusters"], TrainConfig(seed=seed), labels=labels)
    return views, labels, mask, result


@pytest.fixture(scope="session")
def runs_eta03():
    return {seed: bench_run(seed, 0.3) for seed in SWEEP_SEEDS}


@pytest.fixture(scope="session")
def runs_eta0():
    return {seed: bench_run(seed, 0.0) for seed in SWEEP_SEEDS}


# ---------------------------------------------------------------------------
# 1. gradient correctness


def relu_margin(params, operators, views):
    """Smallest |pre-activation| over every relu in the forward pass.

    Central differences are only a valid gradient oracle where the loss is
    smooth within the step size; a fixture whose relu input sits closer to
    zero than the perturbation reach gets screened out, not weakened.
    """
    named = dict(params.named_parameters())
    margins = []
    hidden_states = []
    for v in range(2):
        pre1 = operators[v] @ views[v] @ named[f"encoder{v}.layer0"].value
        margins.append(np.abs(pre1).min())
        h1 = np.maximum(pre1, 0.0)
        pre2 = operators[v] @ h1 @ named[f"encoder{v}.layer1"].value
        margins.append(np.abs(pre2).min())
        h2 = np.maximum(pre2, 0.0) + h1
        hidden_states.append(h2)
        head_pre = h2 @ named[f"head{v}.w1"].value + named[f"head{v}.b1"].value
        margins.append(np.abs(head_pre).min())
    fusion_pre = np.hstack(hidden_states) @ named["fusion.w1"].value + named["fusion.b1"].value
    margins.append(np.abs(fusion_pre).min())
    return min(margins)


def smooth_fixtures(count, n, n_clusters, hidden, margin=1e-4):
    found = []
    candidate = 0
    while len(found) < count:
        assert candidate < 200, "could not find enough kink-free gradient-check fixtures"
        rng = np.random.default_rng(candidate)
        raw = (rng.random((n, n)) < 0.45).astype(float)
        adjacency = np.maximum(raw, raw.T)
        np.fill_diagonal(adjacency, 0.0)
        if (adjacency.sum(axis=1) == 0).any():
            candidate += 1
            continue
        operators = [graph_normalize(dense_to_keys(adjacency), n)] * 2
        views = [rng.normal(size=(n, 4)), rng.normal(size=(n, 5))]
        params = init_model([4, 5], n_clusters, hidden_dim=hidden, embed_dim=8, gcn_layers=2, seed=candidate)
        if relu_margin(params, operators, views) >= margin:
            found.append((candidate, operators, views, params))
        candidate += 1
    return found


def straight_line_losses(weights, operators, views, frozen_p, tau_i=1.0, tau_c=0.5):
    """Plain-numpy duplicate of the forward pass and all three losses.

    Used as the finite-difference target so each evaluation costs a handful
    of array ops instead of a full tape build; doubling the implementation
    also keeps the oracle independent of the graph engine under test.
    """

    def relu(x):
        return np.maximum(x, 0.0)

    def softmax(x):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def unit_rows(x):
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    hs = []
    for v in range(2):
        h = relu(operators[v] @ views[v] @ weights[f"encoder{v}.layer0"])
        h = relu(operators[v] @ h @ weights[f"encoder{v}.layer1"]) + h
        hs.append(h)
    hidden = relu(np.hstack(hs) @ weights["fusion.w1"] + weights["fusion.b1"])
    gate = 1.0 / (1.0 + np.exp(-(hidden @ weights["fusion.w2"] + weights["fusion.b2"])))
    lam = softmax(gate)
    fused = lam[:, [0]] * hs[0] + lam[:, [1]] * hs[1]
    zs = [
        relu(hs[v] @ weights[f"head{v}.w1"] + weights[f"head{v}.b1"]) @ weights[f"head{v}.w2"]
        + weights[f"head{v}.b2"]
        for v in range(2)
    ]
    ys = [softmax(h @ weights["classifier.w"] + weights["classifier.b"]) for h in hs]
    y_fused = softmax(fused @ weights["classifier.w"] + weights["classifier.b"])

    def nt_xent(a, b, tau):
        an, bn = unit_rows(a), unit_rows(b)
        total = 0.0
        for u, w in ((an, bn), (bn, an)):
            sim_uu = np.exp(u @ u.T / tau)
            sim_uw = np.exp(u @ w.T / tau)
            rows = np.log(sim_uu.sum(axis=1) + sim_uw.sum(axis=1)) - np.log(np.diag(sim_uw))
            total += rows.sum()
        return total / (2.0 * a.shape[0])

    l_ins = nt_xent(zs[0], zs[1], tau_i)
    l_clu = nt_xent(ys[0].T, ys[1].T, tau_c)
    for y in ys:
        p = y.mean(axis=0)
        l_clu += (p * np.log(p)).sum()
    l_hg = (frozen_p * (np.log(frozen_p) - np.log(np.maximum(y_fused, 1e-12)))).sum() / y_fused.shape[0]
    return l_ins, l_clu, l_hg, l_ins + l_clu + l_hg


def test_criterion_1_gradients():
    started = time.perf_counter()
    n, n_clusters, hidden = 8, 3, 16
    worst = 0.0
    for seed, operators, views, params in smooth_fixtures(20, n, n_clusters, hidden):
        emb0, asg0 = forward(params, operators, views)
        frozen = obj.high_confidence_target(asg0.per_view[0], asg0.per_view[1], asg0.fused)

        def losses():
            emb, asg = forward(params, operators, views)
            l_ins = obj.instance_contrastive_loss(emb.projections[0], emb.projections[1], 1.0)
            l_clu = obj.cluster_contrastive_loss(asg.per_view[0], asg.per_view[1], 0.5)
            l_hg = obj.guidance_loss(asg.fused, frozen)
            total = l_ins + l_clu + l_hg
            return l_ins, l_clu, l_hg, total

        analytic = {}
        for k in range(4):
            nk.zero_grads(params.parameters())
            nodes = losses()
            nk.backward(nodes[k])
            analytic[k] = {name: node.grad.copy() for name, node in params.named_parameters()}

        weights = {name: node.value for name, node in params.named_parameters()}
        graph_values = tuple(float(node.value[0, 0]) for node in losses())
        straight_values = straight_line_losses(weights, operators, views, frozen.p)
        np.testing.assert_allclose(straight_values, graph_values, rtol=0, atol=1e-10)

        def values():
            return straight_line_losses(weights, operators, views, frozen.p)

        for name, node in params.named_parameters():
            numeric = numeric_gradient_multi(values, node.value, 4, h=1e-5)
            for k in range(4):
                err = relative_error(analytic[k][name], numeric[k])
                worst = max(worst, err)
                assert err <= 1e-4, f"seed {seed}, loss {k}, block {name}: rel err {err:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    announce(1, f"all loss gradients within 1e-4 of finite differences (worst {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. closed-form loss identities


def test_criterion_2_closed_forms():
    z = nk.constant([[0.6, -0.8]])
    l_ins = obj.instance_contrastive_loss(z, nk.constant([[0.6, -0.8]]), 1.0)
    assert abs(float(l_ins.value[0, 0]) - math.log(2.0)) <= 1e-9

    for c in (2, 3, 5):
        y = nk.constant(np.full((6, c), 1.0 / c))
        l_clu = obj.cluster_contrastive_loss(y, nk.constant(np.full((6, c), 1.0 / c)), 0.5)
        expected = math.log(2.0) - math.log(c)
        assert abs(float(l_clu.value[0, 0]) - expected) <= 1e-9

    rng = np.random.default_rng(0)
    y = rng.random((5, 3)) + 0.1
    y = y / y.sum(axis=1, keepdims=True)
    target = obj.TargetDistribution(q=y.copy(), p=y.copy())
    assert abs(float(obj.guidance_loss(nk.constant(y), target).value[0, 0])) <= 1e-12
    announce(2, "ln 2, ln 2 - ln C (zero at C=2), and zero self-KL identities hold")


# ---------------------------------------------------------------------------
# 3. loop-oracle equivalence


def test_criterion_3_loop_oracles():
    rng = np.random.default_rng(1)
    for fixture in range(100):
        n = int(rng.integers(1, 9))
        c = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        tau_i = float(rng.uniform(0.4, 1.5))
        tau_c = float(rng.uniform(0.3, 1.0))
        z1, z2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        ys = []
        for _ in range(3):
            raw = rng.random((n, c)) + 0.05
            ys.append(raw / raw.sum(axis=1, keepdims=True))
        include = bool(fixture % 2)

        got_ins = float(obj.instance_contrastive_loss(nk.constant(z1), nk.constant(z2), tau_i, include).value[0, 0])
        assert abs(got_ins - loop_instance_loss(z1.tolist(), z2.tolist(), tau_i, include)) < 1e-12

        got_clu = float(obj.cluster_contrastive_loss(nk.constant(ys[0]), nk.constant(ys[1]), tau_c, include).value[0, 0])
        assert abs(got_clu - loop_cluster_loss(ys[0].tolist(), ys[1].tolist(), tau_c, include)) < 1e-12

        target = obj.high_confidence_target(*ys)
        got_hg = float(obj.guidance_loss(nk.constant(ys[2]), target).value[0, 0])
        assert abs(got_hg - loop_guidance_loss(ys[2].tolist(), target.p.tolist())) < 1e-12
    announce(3, "vectorized losses equal scalar-loop oracles within 1e-12 on 100 fixtures")


# ---------------------------------------------------------------------------
# 4. graph pipeline oracle


def test_criterion_4_graph_pipeline():
    rng = np.random.default_rng(2)
    checked = 0
    trials = 0
    while checked < 200:
        trials += 1
        assert trials < 2000, "graph oracle generator starved"
        n = int(rng.integers(5, 13))
        n_views = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        rule = ("copy", "union", "intersection")[trials % 3]
        mask = rng.random((n, n_views)) > 0.25
        mask[~mask.any(axis=1), 0] = True
        if any(int(mask[:, v].sum()) < k + 1 for v in range(n_views)):
            continue
        views = [
            rng.integers(-8, 9, size=(n, int(rng.integers(1, 4)))).astype(float) * 0.25
            for _ in range(n_views)
        ]
        expected_adj, expected_ops = run_loop_pipeline(views, mask, k, 2.0, rule)
        if expected_adj is None:
            with pytest.raises(DegenerateGraphError):
                run_pipeline(views, mask, k, 2.0, rule)
            continue
        got_adj, got_ops = run_pipeline(views, mask, k, 2.0, rule)
        for v in range(n_views):
            np.testing.assert_array_equal(got_adj[v], expected_adj[v])
            np.testing.assert_allclose(got_ops[v], expected_ops[v], atol=1e-12, rtol=0)
        checked += 1
    announce(4, "200 random graph pipelines match the brute-force reference")


# ---------------------------------------------------------------------------
# 5. metric oracles


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(4, 28))
        truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
        pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
        acc, _ = metrics_mod.accuracy(pred, truth)
        assert acc == pytest.approx(exhaustive_accuracy(pred.tolist(), truth.tolist()), abs=1e-15)
        assert abs(metrics_mod.nmi(pred, truth) - formula_nmi(pred.tolist(), truth.tolist())) < 1e-12
        assert abs(metrics_mod.ari(pred, truth) - pair_counting_ari(pred.tolist(), truth.tolist())) < 1e-12
        c = int(pred.max()) + 1
        perm = rng.permutation(c)
        relabeled = perm[pred]
        assert metrics_mod.accuracy(relabeled, truth)[0] == pytest.approx(acc, abs=1e-15)
        assert metrics_mod.nmi(relabeled, truth) == pytest.approx(metrics_mod.nmi(pred, truth), abs=1e-12)
        assert metrics_mod.ari(relabeled, truth) == pytest.approx(metrics_mod.ari(pred, truth), abs=1e-12)
    announce(5, "ACC/NMI/ARI match exhaustive and formula oracles, relabeling-invariant")


# ---------------------------------------------------------------------------
# 6. end-to-end synthetic benchmark


def test_criterion_6_benchmark(runs_eta03):
    accs, baselines = [], []
    for seed in BENCH_SEEDS:
        views, labels, mask, result = runs_eta03[seed]
        accs.append(result.final_metrics.acc)
        assert result.wall_time <= 300.0, f"seed {seed} took {result.wall_time:.0f}s"
        baselines.append(baseline(views, mask, labels, BENCH["n_clusters"], "concat", seed=seed).acc)
    hits = sum(a >= 0.90 for a in accs)
    assert hits >= 2, f"only {hits} of 3 seeds reached 0.90: {accs}"
    assert np.mean(accs) > np.mean(baselines), f"model {np.mean(accs)} vs concat {np.mean(baselines)}"
    announce(
        6,
        f"benchmark ACC {['%.3f' % a for a in accs]} (concat {['%.3f' % b for b in baselines]})",
    )


# ---------------------------------------------------------------------------
# 7. missing-rate robustness echo


def test_criterion_7_missing_rate_echo(runs_eta03, runs_eta0):
    acc_missing = np.mean([runs_eta03[s][3].final_metrics.acc for s in SWEEP_SEEDS])
    acc_complete = np.mean([runs_eta0[s][3].final_metrics.acc for s in SWEEP_SEEDS])
    gap = abs(acc_complete - acc_missing)
    assert gap <= 0.05, f"ACC gap {gap:.3f} between eta=0 ({acc_complete:.3f}) and eta=0.3 ({acc_missing:.3f})"
    announce(7, f"mean ACC {acc_missing:.3f} at eta=0.3 vs {acc_complete:.3f} at eta=0 (gap {gap:.3f})")


# ---------------------------------------------------------------------------
# 8. convergence echo


def test_criterion_8_convergence(runs_eta03):
    for seed in BENCH_SEEDS:
        history = runs_eta03[seed][3].history
        early = np.mean([h.total for h in history[0:10]])
        late = np.mean([h.total for h in history[40:50]])
        assert late < early, f"seed {seed}: epochs 41-50 mean {late:.4f} not below epochs 1-10 mean {early:.4f}"
    announce(8, "epoch 41-50 mean loss strictly below epoch 1-10 mean on every benchmark seed")


# ---------------------------------------------------------------------------
# 9. determinism of the CLI artifacts


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "bench"
    rc = cli_main(
        ["gen", "--n", "300", "--clusters", "3", "--dim", "10", "--sigma", "0.5", "--seed", "1", "--out", str(data)]
    )
    assert rc == 0
    cmd = ["run", "--data", str(data), "--eta", "0.3", "--seed", "1", "--epochs", "60"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(cmd + ["--out", str(a)]) == 0
    assert cli_main(cmd + ["--out", str(b)]) == 0
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    announce(9, "identical config + seed reproduce metrics.json and history.csv byte for byte")


# ---------------------------------------------------------------------------
# 10. ablation harness


def test_criterion_10_ablation_harness(tmp_path):
    data = tmp_path / "bench"
    rc = cli_main(
        ["gen", "--n", "300", "--clusters", "3", "--dim", "10", "--sigma", "0.5", "--seed", "1", "--out", str(data)]
    )
    assert rc == 0
    out = tmp_path / "ablation"
    rc = cli_main(
        ["ablate", "--data", str(data), "--out", str(out), "--eta", "0.3", "--seeds", "1,2,3,4,5"]
    )
    assert rc == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"full", "no-ins", "no-hg", "no-hg-no-clu"}
    full_acc = float(rows["full"][1])
    no_ins_acc = float(rows["no-ins"][1])
    if full_acc < no_ins_acc - 0.02:
        warnings.warn(
            f"directional check failed softly: full {full_acc:.3f} < no-ins {no_ins_acc:.3f} - 0.02"
        )
        verdict = "soft-check WARNED"
    else:
        verdict = "soft-check ok"
    announce(10, f"four ablation configurations completed (full {full_acc:.3f}, no-ins {no_ins_acc:.3f}, {verdict})")
