import math

import numpy as np
import pytest

from icmvc import numkit as nk
from icmvc import objectives as obj
from icmvc.errors import ConfigError, ContractError
from oracles import (
    loop_cluster_loss,
    loop_guidance_loss,
    loop_instance_loss,
    loop_target,
    numeric_gradient,
    relative_error,
)


def scalar(node):
    return float(node.value[0, 0])


def random_stochastic(rng, n, c):
    raw = rng.random((n, c)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# instance contrastive loss


def test_instance_loss_identical_embeddings_single_instance():
    z = nk.constant([[1.0, 2.0]])
    loss = obj.instance_contrastive_loss(z, nk.constant([[1.0, 2.0]]), 1.0)
    assert abs(scalar(loss) - math.log(2.0)) < 1e-9


def test_instance_loss_orthogonal_single_instance():
    z1 = nk.constant([[1.0, 0.0]])
    z2 = nk.constant([[0.0, 1.0]])
    loss = obj.instance_contrastive_loss(z1, z2, 1.0)
    assert abs(scalar(loss) - math.log(math.e + 1.0)) < 1e-9


def test_instance_loss_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 6))
        z1 = rng.normal(size=(n, d))
        z2 = rng.normal(size=(n, d))
        tau = float(rng.uniform(0.4, 1.5))
        got = scalar(obj.instance_contrastive_loss(nk.constant(z1), nk.constant(z2), tau))
        want = loop_instance_loss(z1.tolist(), z2.tolist(), tau)
        assert abs(got - want) < 1e-12


def test_instance_loss_rejects_bad_temperature():
    z = nk.constant([[1.0, 0.0]])
    with pytest.raises(ConfigError):
        obj.instance_contrastive_loss(z, z, 0.0)


def test_instance_loss_permutation_invariant():
    rng = np.random.default_rng(1)
    z1 = rng.normal(size=(6, 4))
    z2 = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    base = scalar(obj.instance_contrastive_loss(nk.constant(z1), nk.constant(z2), 0.8))
    permuted = scalar(obj.instance_contrastive_loss(nk.constant(z1[perm]), nk.constant(z2[perm]), 0.8))
    assert abs(base - permuted) < 1e-10


def _composed_contrast_pair(a, b, tau):
    """nk.contrast_pair rebuilt from elementary numkit ops, one anchor direction at a time."""
    total = nk.constant(0.0)
    for x, y in ((a, b), (b, a)):
        nx, ny = nk.row_l2_normalize(x), nk.row_l2_normalize(y)
        sim_xy = nk.matmul(nx, nk.transpose(ny))
        exp_xx = nk.unary(nk.matmul(nx, nk.transpose(nx)) * (1.0 / tau), "exp")
        denom = nk.reduce(exp_xx, "row_sum") + nk.reduce(nk.unary(sim_xy * (1.0 / tau), "exp"), "row_sum")
        total = total + nk.reduce(nk.unary(denom, "log") - nk.diag_col(sim_xy) * (1.0 / tau), "sum")
    return total


def test_fused_contrast_matches_composed_ops():
    rng = np.random.default_rng(9)
    cases = []
    for trial in range(16):
        n = int(rng.integers(1, 10))
        d = int(rng.integers(2, 6))
        tau = float(rng.uniform(0.3, 1.5))
        data_a, data_b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        if trial % 4 == 3:
            data_a[n // 2] = 0.0
        cases.append((data_a, data_b, tau))
    # 2N rows over several CONTRAST_BLOCK_ROWS blocks: at n=300 the second block
    # holds the last rows of a and the first of b and the third is short; at
    # n=129 the second block starts past row n, so it holds no positive pair
    for n, zero_row in ((300, None), (200, 199), (129, 128)):
        data_a, data_b = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        if zero_row is not None:
            data_b[zero_row] = 0.0
        cases.append((data_a, data_b, 0.6))
    for data_a, data_b, tau in cases:
        fused_a, fused_b = nk.leaf(data_a), nk.leaf(data_b)
        fused = nk.contrast_pair(fused_a, fused_b, tau)
        nk.backward(fused)
        composed_a, composed_b = nk.leaf(data_a), nk.leaf(data_b)
        composed = _composed_contrast_pair(composed_a, composed_b, tau)
        nk.backward(composed)
        assert abs(scalar(fused) - scalar(composed)) < 1e-12
        np.testing.assert_allclose(fused_a.grad, composed_a.grad, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fused_b.grad, composed_b.grad, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# cluster contrastive loss


@pytest.mark.parametrize("c", [2, 3, 5])
def test_cluster_loss_uniform_closed_form(c):
    y = nk.constant(np.full((7, c), 1.0 / c))
    loss = obj.cluster_contrastive_loss(y, nk.constant(np.full((7, c), 1.0 / c)), 0.5)
    assert abs(scalar(loss) - (math.log(2.0) - math.log(c))) < 1e-9


def test_cluster_loss_uniform_c2_is_zero():
    y = nk.constant(np.full((5, 2), 0.5))
    loss = obj.cluster_contrastive_loss(y, nk.constant(np.full((5, 2), 0.5)), 0.5)
    assert abs(scalar(loss)) < 1e-9


def test_cluster_loss_degenerate_assignment_has_zero_entropy():
    y = np.zeros((6, 3))
    y[:, 0] = 1.0
    node = nk.constant(y)
    cluster_mass = node.value.mean(axis=0)
    entropy = -sum(p * math.log(p) for p in cluster_mass if p > 0)
    assert entropy == 0.0
    # the full loss still evaluates finitely
    loss = obj.cluster_contrastive_loss(node, nk.constant(y), 0.5)
    assert np.isfinite(scalar(loss))


def test_cluster_loss_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(2, 5))
        y1 = random_stochastic(rng, n, c)
        y2 = random_stochastic(rng, n, c)
        tau = float(rng.uniform(0.3, 1.2))
        got = scalar(obj.cluster_contrastive_loss(nk.constant(y1), nk.constant(y2), tau))
        want = loop_cluster_loss(y1.tolist(), y2.tolist(), tau)
        assert abs(got - want) < 1e-12


def test_cluster_loss_rejects_non_stochastic_rows():
    bad = nk.constant(np.ones((3, 2)))
    with pytest.raises(ContractError):
        obj.cluster_contrastive_loss(bad, bad, 0.5)


def test_cluster_loss_invariant_to_shared_column_permutation():
    rng = np.random.default_rng(3)
    y1 = random_stochastic(rng, 6, 4)
    y2 = random_stochastic(rng, 6, 4)
    perm = rng.permutation(4)
    base = scalar(obj.cluster_contrastive_loss(nk.constant(y1), nk.constant(y2), 0.5))
    permuted = scalar(obj.cluster_contrastive_loss(nk.constant(y1[:, perm]), nk.constant(y2[:, perm]), 0.5))
    assert abs(base - permuted) < 1e-10


# ---------------------------------------------------------------------------
# high-confidence target


def test_target_one_hot_fixed_point():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    target = obj.high_confidence_target(y, y, y)
    np.testing.assert_allclose(target, y, atol=0)


def test_target_uniform_fixed_point():
    y = np.full((3, 4), 0.25)
    target = obj.high_confidence_target(y, y, y)
    np.testing.assert_allclose(target, y, atol=1e-15)


def test_target_hand_example():
    y1 = np.array([[0.9, 0.1]])
    y2 = np.array([[0.5, 0.5]])
    yf = np.array([[0.6, 0.4]])
    target = obj.high_confidence_target(y1, y2, yf)
    np.testing.assert_allclose(target, [[0.81 / 1.06, 0.25 / 1.06]], atol=1e-12)


def test_target_matches_loop_oracle():
    rng = np.random.default_rng(4)
    y1 = random_stochastic(rng, 5, 3)
    y2 = random_stochastic(rng, 5, 3)
    yf = random_stochastic(rng, 5, 3)
    target = obj.high_confidence_target(y1, y2, yf)
    _, p = loop_target(y1.tolist(), y2.tolist(), yf.tolist())
    np.testing.assert_allclose(target, p, atol=1e-14)


# ---------------------------------------------------------------------------
# guidance loss


def test_guidance_zero_when_target_equals_assignment():
    rng = np.random.default_rng(5)
    y = random_stochastic(rng, 6, 3)
    target = y.copy()
    assert abs(scalar(obj.guidance_loss(nk.constant(y), target))) < 1e-12


def test_guidance_single_term():
    target = np.array([[1.0, 0.0]])
    loss = obj.guidance_loss(nk.constant([[0.5, 0.5]]), target)
    assert abs(scalar(loss) - math.log(2.0)) < 1e-12


def test_guidance_nonnegative_on_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        sources = [random_stochastic(rng, n, c) for _ in range(3)]
        target = obj.high_confidence_target(*sources)
        y = random_stochastic(rng, n, c)
        assert scalar(obj.guidance_loss(nk.constant(y), target)) >= -1e-12


def test_guidance_matches_loop_oracle():
    rng = np.random.default_rng(7)
    y = random_stochastic(rng, 7, 4)
    target = obj.high_confidence_target(
        random_stochastic(rng, 7, 4), random_stochastic(rng, 7, 4), random_stochastic(rng, 7, 4)
    )
    got = scalar(obj.guidance_loss(nk.constant(y), target))
    want = loop_guidance_loss(y.tolist(), target.tolist())
    assert abs(got - want) < 1e-12


def test_guidance_positive_iff_sharpening_moves_target():
    soft = np.array([[0.7, 0.3], [0.4, 0.6]])
    target = obj.high_confidence_target(soft, soft, soft)
    assert scalar(obj.guidance_loss(nk.constant(soft), target)) > 0
    hard = np.array([[1.0, 0.0], [0.0, 1.0]])
    target = obj.high_confidence_target(hard, hard, hard)
    assert abs(scalar(obj.guidance_loss(nk.constant(hard), target))) < 1e-10


def test_guidance_gradient_only_into_assignments():
    rng = np.random.default_rng(8)
    y_sources = [nk.leaf(random_stochastic(rng, 4, 3)) for _ in range(3)]
    target = obj.high_confidence_target(*y_sources)
    y_live = nk.leaf(random_stochastic(rng, 4, 3))
    nk.backward(obj.guidance_loss(y_live, target))
    assert np.any(y_live.grad != 0)
    for src in y_sources:
        np.testing.assert_array_equal(src.grad, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# total loss


def test_total_is_sum_of_parts():
    rng = np.random.default_rng(9)
    z1, z2 = nk.constant(rng.normal(size=(5, 4))), nk.constant(rng.normal(size=(5, 4)))
    ys = [nk.constant(random_stochastic(rng, 5, 3)) for _ in range(3)]
    _, breakdown = obj.total_loss(z1, z2, *ys, 1.0, 0.5, "full", obj.high_confidence_target(*ys))
    assert abs(breakdown.total - (breakdown.l_ins + breakdown.l_clu + breakdown.l_hg)) < 1e-12


@pytest.mark.parametrize("ablation", list(obj.ABLATION_MODES))
def test_total_ablation_zeroes_terms(ablation):
    rng = np.random.default_rng(10)
    z1, z2 = nk.constant(rng.normal(size=(4, 3))), nk.constant(rng.normal(size=(4, 3)))
    ys = [nk.constant(random_stochastic(rng, 4, 2)) for _ in range(3)]
    _, breakdown = obj.total_loss(z1, z2, *ys, 1.0, 0.5, ablation, obj.high_confidence_target(*ys))
    named = obj.ABLATION_MODES[ablation]
    for term in ("ins", "clu", "hg"):
        assert (getattr(breakdown, f"l_{term}") != 0.0) == (term in named), term
    assert abs(breakdown.total - sum(getattr(breakdown, f"l_{term}") for term in named)) < 1e-12


# ---------------------------------------------------------------------------
# gradients of each loss against finite differences


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    n, c, d = 5, 3, 4
    z1 = nk.leaf(rng.normal(size=(n, d)))
    z2 = nk.leaf(rng.normal(size=(n, d)))
    a1 = nk.leaf(rng.normal(size=(n, c)))
    a2 = nk.leaf(rng.normal(size=(n, c)))
    af = nk.leaf(rng.normal(size=(n, c)))
    frozen = obj.high_confidence_target(
        nk.row_softmax(a1, 1.0).value, nk.row_softmax(a2, 1.0).value, nk.row_softmax(af, 1.0).value
    )

    def build():
        y1, y2, yf = (nk.row_softmax(a, 1.0) for a in (a1, a2, af))
        ins = obj.instance_contrastive_loss(z1, z2, 0.9)
        clu = obj.cluster_contrastive_loss(y1, y2, 0.5)
        hg = obj.guidance_loss(yf, frozen)
        return ins + clu + hg

    nk.backward(build())
    for node in (z1, z2, a1, a2, af):
        numeric = numeric_gradient(lambda: scalar(build()), node.value)
        assert relative_error(node.grad, numeric) < 1e-4
