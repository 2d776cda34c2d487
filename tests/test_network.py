import json
import math

import numpy as np
import pytest

from icmvc import network as net
from icmvc import numkit as nk
from icmvc.errors import ConfigError, FormatError, ShapeError
from oracles import dense_to_keys, numeric_gradient, relative_error, scipy_csr


def scalar(node):
    return float(node.value[0, 0])


# ---------------------------------------------------------------------------
# gcn_layer


def test_gcn_layer_identity_stack():
    h = np.abs(np.random.default_rng(0).normal(size=(3, 3)))
    out = nk.gcn_layer(nk.constant(h), np.eye(3), nk.constant(np.eye(3)))
    np.testing.assert_allclose(out.value, h, atol=0)


def test_gcn_layer_hand_example():
    op = np.array([[0.5, 0.5], [0.5, 0.5]])
    h = nk.constant([[2.0, 0.0], [0.0, 2.0]])
    out = nk.gcn_layer(h, op, nk.constant(np.eye(2)))
    np.testing.assert_allclose(out.value, np.ones((2, 2)), atol=0)


def test_gcn_layer_gradient_wrt_weight():
    rng = np.random.default_rng(1)
    op = np.abs(rng.normal(size=(4, 4)))
    h = nk.constant(rng.normal(size=(4, 3)))
    w = nk.leaf(rng.normal(size=(3, 5)))

    def forward():
        return scalar(nk.reduce(nk.unary(nk.gcn_layer(h, op, w), "square"), "sum"))

    nk.backward(nk.reduce(nk.unary(nk.gcn_layer(h, op, w), "square"), "sum"))
    numeric = numeric_gradient(forward, w.value)
    assert relative_error(w.grad, numeric) < 1e-5


def test_gcn_layer_shape_mismatch():
    with pytest.raises(ShapeError):
        nk.gcn_layer(nk.constant(np.ones((3, 2))), np.ones((3, 3)), nk.constant(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# encode_view


def test_missing_row_filled_from_neighbor():
    # instance 0 zero-filled, connected to observed instance 1
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    from icmvc.graphs import normalize

    op = normalize(dense_to_keys(adjacency), 2)
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = net.encode_view(nk.constant(x), op, [nk.leaf(w)])
    assert np.any(out.value[0] != 0.0)


def test_zero_row_stays_zero_on_edgeless_graph():
    op = np.eye(3)
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    rng = np.random.default_rng(2)
    weights = [nk.leaf(rng.normal(size=(2, 4))), nk.leaf(rng.normal(size=(4, 4)))]
    out = net.encode_view(nk.constant(x), op, weights)
    np.testing.assert_array_equal(out.value[0], np.zeros(4))


def straight_line_encode(x, op, weights):
    # independent reimplementation: plain loops over layers
    h = np.maximum(op @ x @ weights[0], 0.0)
    for w in weights[1:]:
        h = np.maximum(op @ h @ w, 0.0) + h
    return h


def test_encode_view_matches_straight_line_reimplementation():
    rng = np.random.default_rng(3)
    from icmvc.graphs import normalize

    adjacency = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ],
        dtype=float,
    )
    op = normalize(dense_to_keys(adjacency), 4)
    x = rng.normal(size=(4, 3))
    weights = [rng.normal(size=(3, 5)), rng.normal(size=(5, 5))]
    out = net.encode_view(nk.constant(x), op, [nk.leaf(w) for w in weights])
    np.testing.assert_allclose(out.value, straight_line_encode(x, op, weights), atol=1e-14)


# ---------------------------------------------------------------------------
# attention fusion


def make_fusion(n_views, d, seed=0):
    rng = np.random.default_rng(seed)
    return net.TwoLayerMLP(
        w1=nk.leaf(rng.normal(size=(n_views * d, d)) * 0.3),
        b1=nk.leaf(np.zeros((1, d))),
        w2=nk.leaf(rng.normal(size=(d, n_views)) * 0.3),
        b2=nk.leaf(np.zeros((1, n_views))),
    )


def test_attention_equal_scores_give_uniform_weights():
    d = 4
    fusion = make_fusion(2, d, seed=1)
    fusion.w1.value[:] = 0.0
    fusion.w2.value[:] = 0.0
    hs = [nk.constant(np.random.default_rng(4).normal(size=(5, d))) for _ in range(2)]
    _, lam = net.attention_fuse(hs, fusion, 1.0)
    np.testing.assert_allclose(lam.value, 0.5, atol=1e-12)


def test_attention_sigmoid_bounds_ratio():
    # saturated scores (1, 0) after the sigmoid give weights (e, 1)/(e+1)
    gate = np.array([[1.0, 0.0]])
    e = math.e
    expected = np.array([[e / (e + 1.0), 1.0 / (e + 1.0)]])
    lam = nk.row_softmax(nk.constant(gate), 1.0)
    np.testing.assert_allclose(lam.value, expected, atol=1e-12)
    assert lam.value[0, 0] / lam.value[0, 1] <= e + 1e-12


def test_attention_convex_combination():
    d = 2
    fusion = make_fusion(2, d, seed=2)
    fusion.w1.value[:] = 0.0
    fusion.w2.value[:] = 0.0
    h1 = nk.constant([[2.0, 4.0]])
    h2 = nk.constant([[0.0, 0.0]])
    fused, lam = net.attention_fuse([h1, h2], fusion, 1.0)
    np.testing.assert_allclose(lam.value, [[0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(fused.value, [[1.0, 2.0]], atol=1e-12)


def test_attention_rows_on_simplex_and_reconstruction():
    rng = np.random.default_rng(5)
    d, n, n_views = 6, 9, 3
    fusion = make_fusion(n_views, d, seed=3)
    hs = [nk.constant(rng.normal(size=(n, d))) for _ in range(n_views)]
    fused, lam = net.attention_fuse(hs, fusion, 1.0)
    np.testing.assert_allclose(lam.value.sum(axis=1), np.ones(n), atol=1e-9)
    assert np.all(lam.value > 0) and np.all(lam.value < 1)
    manual = sum(lam.value[:, [v]] * hs[v].value for v in range(n_views))
    assert np.max(np.abs(manual - fused.value)) < 1e-9


def test_init_model_needs_an_encoder_layer():
    with pytest.raises(ConfigError, match="at least one encoder layer, got 0"):
        net.init_model([3, 5], 3, hidden_dim=8, embed_dim=4, gcn_layers=0, seed=0)


def test_attention_rejects_bad_temperature():
    fusion = make_fusion(2, 3)
    hs = [nk.constant(np.ones((2, 3))) for _ in range(2)]
    with pytest.raises(ConfigError):
        net.attention_fuse(hs, fusion, tau_att=0.0)


# ---------------------------------------------------------------------------
# projection heads and classifier


def test_projection_zero_weights_give_zero():
    head = net.TwoLayerMLP(
        w1=nk.leaf(np.zeros((3, 3))),
        b1=nk.leaf(np.zeros((1, 3))),
        w2=nk.leaf(np.zeros((3, 2))),
        b2=nk.leaf(np.zeros((1, 2))),
    )
    out = head.apply(nk.constant(np.ones((4, 3))))
    np.testing.assert_array_equal(out.value, np.zeros((4, 2)))


def test_projection_identity_head():
    head = net.TwoLayerMLP(
        w1=nk.leaf(np.eye(3)),
        b1=nk.leaf(np.zeros((1, 3))),
        w2=nk.leaf(np.eye(3)),
        b2=nk.leaf(np.zeros((1, 3))),
    )
    h = np.abs(np.random.default_rng(6).normal(size=(4, 3)))
    out = head.apply(nk.constant(h))
    np.testing.assert_allclose(out.value, h, atol=0)


def test_projection_gradient():
    rng = np.random.default_rng(7)
    head = net.TwoLayerMLP(
        w1=nk.leaf(rng.normal(size=(3, 4))),
        b1=nk.leaf(rng.normal(size=(1, 4))),
        w2=nk.leaf(rng.normal(size=(4, 2))),
        b2=nk.leaf(rng.normal(size=(1, 2))),
    )
    h = nk.constant(rng.normal(size=(5, 3)))

    def forward():
        return scalar(nk.reduce(nk.unary(head.apply(h), "square"), "sum"))

    nk.backward(nk.reduce(nk.unary(head.apply(h), "square"), "sum"))
    for node in head.parameters():
        numeric = numeric_gradient(forward, node.value)
        assert relative_error(node.grad, numeric) < 1e-5


def test_classifier_zero_weights_uniform():
    w = nk.leaf(np.zeros((4, 3)))
    b = nk.leaf(np.zeros((1, 3)))
    out = net.classify(nk.constant(np.random.default_rng(8).normal(size=(5, 4))), w, b)
    np.testing.assert_allclose(out.value, 1.0 / 3.0, atol=1e-15)


def test_classifier_rows_sum_to_one():
    rng = np.random.default_rng(9)
    w = nk.leaf(rng.normal(size=(4, 3)))
    b = nk.leaf(rng.normal(size=(1, 3)))
    out = net.classify(nk.constant(rng.normal(size=(6, 4))), w, b)
    np.testing.assert_allclose(out.value.sum(axis=1), np.ones(6), atol=1e-12)


def test_classifier_weight_sharing():
    rng = np.random.default_rng(10)
    w = nk.leaf(rng.normal(size=(4, 3)))
    b = nk.leaf(rng.normal(size=(1, 3)))
    h = rng.normal(size=(5, 4))
    out1 = net.classify(nk.constant(h), w, b)
    out2 = net.classify(nk.constant(h.copy()), w, b)
    np.testing.assert_array_equal(out1.value, out2.value)


# ---------------------------------------------------------------------------
# whole-model forward


def tiny_setup(seed=0, n=6, n_clusters=3, hidden=8, embed=4):
    rng = np.random.default_rng(seed)
    from icmvc.graphs import normalize

    raw = (rng.random((n, n)) < 0.5).astype(float)
    adjacency = np.maximum(raw, raw.T)
    np.fill_diagonal(adjacency, 0.0)
    ops = [normalize(dense_to_keys(adjacency), n) for _ in range(2)]
    views = [rng.normal(size=(n, 3)), rng.normal(size=(n, 5))]
    params = net.init_model([3, 5], n_clusters, hidden_dim=hidden, embed_dim=embed, gcn_layers=2, seed=seed)
    return params, ops, views


def test_forward_shapes():
    params, ops, views = tiny_setup()
    emb, asg = net.forward(params, ops, views, 1.0)
    assert emb.fused.value.shape == (6, 8)
    assert [z.value.shape for z in emb.projections] == [(6, 4), (6, 4)]
    assert emb.attention.value.shape == (6, 2)
    assert asg.fused.value.shape == (6, 3)
    for y in asg.per_view + [asg.fused]:
        np.testing.assert_allclose(y.value.sum(axis=1), np.ones(6), atol=1e-9)


def test_forward_fused_is_convex_combination():
    params, ops, views = tiny_setup(seed=3)
    emb, _ = net.forward(params, ops, views, 1.0)
    lam = emb.attention.value
    manual = lam[:, [0]] * emb.per_view[0].value + lam[:, [1]] * emb.per_view[1].value
    assert np.max(np.abs(manual - emb.fused.value)) < 1e-9


def test_classifier_perturbation_moves_all_assignments():
    params, ops, views = tiny_setup(seed=4)
    _, before = net.forward(params, ops, views, 1.0)
    params.classifier_w.value[0, 0] += 0.5
    _, after = net.forward(params, ops, views, 1.0)
    for y0, y1 in zip(before.per_view + [before.fused], after.per_view + [after.fused]):
        assert np.max(np.abs(y0.value - y1.value)) > 1e-12


def test_encoder_perturbation_is_view_local():
    params, ops, views = tiny_setup(seed=5)
    emb_before, _ = net.forward(params, ops, views, 1.0)
    params.encoder_weights[0][0].value = params.encoder_weights[0][0].value + 0.3
    emb_after, _ = net.forward(params, ops, views, 1.0)
    assert np.max(np.abs(emb_before.per_view[0].value - emb_after.per_view[0].value)) > 1e-12
    np.testing.assert_array_equal(emb_before.per_view[1].value, emb_after.per_view[1].value)


def test_full_model_gradients_match_finite_differences():
    from icmvc import objectives as obj

    params, ops, views = tiny_setup(seed=6, n=5, hidden=6, embed=3)

    def build():
        emb, asg = net.forward(params, ops, views, 1.0)
        total, _ = obj.total_loss(
            emb.projections[0], emb.projections[1], asg.per_view[0], asg.per_view[1], asg.fused,
            1.0, 0.5, "full", frozen_target,
        )
        return total

    emb0, asg0 = net.forward(params, ops, views, 1.0)
    frozen_target = obj.high_confidence_target(asg0.per_view[0], asg0.per_view[1], asg0.fused)
    nk.backward(build())
    for name, node in params.named_parameters():
        numeric = numeric_gradient(lambda: scalar(build()), node.value)
        assert relative_error(node.grad, numeric) < 1e-4, name


def test_sparse_operators_match_dense_in_values_and_gradients():
    from icmvc import objectives as obj

    params, ops, views = tiny_setup(seed=9, n=12)
    runs = []
    for operators in ([scipy_csr(op).toarray() for op in ops], ops):
        emb, asg = net.forward(params, operators, views, 1.0)
        target = obj.high_confidence_target(asg.per_view[0], asg.per_view[1], asg.fused)
        total, _ = obj.total_loss(
            emb.projections[0], emb.projections[1], asg.per_view[0], asg.per_view[1], asg.fused, 1.0, 0.5, "full", target
        )
        nk.backward(total)
        outputs = emb.per_view + emb.projections + asg.per_view + [emb.fused, emb.attention, asg.fused, total]
        runs.append(([node.value for node in outputs], [node.grad.copy() for node in params.parameters()]))
    (dense_values, dense_grads), (csr_values, csr_grads) = runs
    for dense, csr in zip(dense_values + dense_grads, csr_values + csr_grads):
        np.testing.assert_allclose(csr, dense, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    params, ops, views = tiny_setup(seed=7)
    emb_ref, _ = net.forward(params, ops, views, 1.0)
    net.save_checkpoint(params, tmp_path / "ckpt", config={"hidden": 8})

    fresh = net.init_model([3, 5], 3, hidden_dim=8, embed_dim=4, gcn_layers=2, seed=999)
    net.load_checkpoint(fresh, tmp_path / "ckpt")
    emb_new, _ = net.forward(fresh, ops, views, 1.0)
    np.testing.assert_array_equal(emb_ref.fused.value, emb_new.fused.value)


def test_checkpoint_shape_mismatch(tmp_path):
    params, _, _ = tiny_setup(seed=8)
    net.save_checkpoint(params, tmp_path / "ckpt")
    other = net.init_model([3, 5], 3, hidden_dim=16, embed_dim=4, gcn_layers=2, seed=0)
    with pytest.raises(ShapeError):
        net.load_checkpoint(other, tmp_path / "ckpt")


def test_checkpoint_missing_a_parameter_raises_format_error(tmp_path):
    params, _, _ = tiny_setup(seed=9)
    net.save_checkpoint(params, tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    dropped = next(iter(manifest["shapes"]))
    del manifest["shapes"][dropped]
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=dropped):
        net.load_checkpoint(params, tmp_path / "ckpt")
