import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse

from icmvc import numkit as nk
from icmvc.errors import ConfigError, ContractError, ShapeError
from oracles import dense_to_keys, exhaustive_backward, numeric_gradient, relative_error


def scalar(node):
    return float(node.value[0, 0])


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = nk.matmul(nk.constant(np.eye(2)), nk.constant(m))
    np.testing.assert_array_equal(out.value, m)


def test_matmul_hand_example():
    out = nk.matmul(nk.constant([[1.0, 2.0], [3.0, 4.0]]), nk.constant([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.value, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nk.matmul(nk.constant(np.ones((2, 3))), nk.constant(np.ones((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = nk.leaf(rng.normal(size=(3, 4)))
    b = nk.leaf(rng.normal(size=(4, 2)))

    def forward():
        return scalar(nk.reduce(nk.matmul(a, b), "sum"))

    nk.backward(nk.reduce(nk.matmul(a, b), "sum"))
    for node in (a, b):
        numeric = numeric_gradient(forward, node.value)
        assert relative_error(node.grad, numeric) < 1e-6


# ---------------------------------------------------------------------------
# elementwise / unary / reduce forward values


def test_relu_sign_split():
    out = nk.unary(nk.constant([[1.0, -1.0]]), "relu")
    np.testing.assert_array_equal(out.value, [[1.0, 0.0]])


@pytest.mark.parametrize(
    "kind,a,b,expected",
    [
        ("add", [[1.0, 2.0]], [[3.0, 4.0]], [[4.0, 6.0]]),
        ("sub", [[1.0, 2.0]], [[3.0, 4.0]], [[-2.0, -2.0]]),
        ("mul", [[1.0, 2.0]], [[3.0, 4.0]], [[3.0, 8.0]]),
    ],
)
def test_elementwise_values(kind, a, b, expected):
    out = nk.elementwise(nk.constant(a), nk.constant(b), kind)
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=0)


def test_elementwise_broadcast_and_gradient():
    rng = np.random.default_rng(1)
    a = nk.leaf(rng.normal(size=(4, 3)))
    col = nk.leaf(rng.normal(size=(4, 1)))
    row = nk.leaf(rng.normal(size=(1, 3)))

    def forward():
        prod = nk.elementwise(nk.elementwise(a, col, "mul"), row, "add")
        return scalar(nk.reduce(nk.unary(prod, "square"), "sum"))

    root = nk.elementwise(nk.elementwise(a, col, "mul"), row, "add")
    nk.backward(nk.reduce(nk.unary(root, "square"), "sum"))
    for node in (a, col, row):
        numeric = numeric_gradient(forward, node.value)
        assert relative_error(node.grad, numeric) < 1e-6


def test_elementwise_incompatible_shapes():
    with pytest.raises(ShapeError):
        nk.elementwise(nk.constant(np.ones((2, 3))), nk.constant(np.ones((3, 2))), "add")


def test_reduce_kinds():
    m = nk.constant([[1.0, 2.0], [3.0, 4.0]])
    assert scalar(nk.reduce(m, "sum")) == 10.0
    np.testing.assert_array_equal(nk.reduce(m, "row_sum").value, [[3.0], [7.0]])
    np.testing.assert_array_equal(nk.reduce(m, "col_sum").value, [[4.0, 6.0]])


def test_row_softmax_symmetry():
    out = nk.row_softmax(nk.constant([[0.0, 0.0]]), 1.0)
    np.testing.assert_allclose(out.value, [[0.5, 0.5]], atol=1e-15)


def test_row_softmax_direct_value():
    out = nk.row_softmax(nk.constant([[1.0, 0.0]]), 1.0)
    e = math.e
    np.testing.assert_allclose(out.value, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    out = nk.row_softmax(nk.constant(rng.normal(size=(20, 7)) * 5), 0.7)
    np.testing.assert_allclose(out.value.sum(axis=1), np.ones(20), atol=1e-12)
    assert np.all(out.value > 0) and np.all(out.value < 1)


def test_row_softmax_bad_temperature():
    with pytest.raises(ConfigError):
        nk.row_softmax(nk.constant([[1.0, 2.0]]), 0.0)


def test_row_l2_normalize_unit_rows_and_zero_row():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(6, 4))
    data[2] = 0.0
    out = nk.row_l2_normalize(nk.constant(data))
    norms = np.linalg.norm(out.value, axis=1)
    np.testing.assert_allclose(np.delete(norms, 2), 1.0, atol=1e-12)
    np.testing.assert_array_equal(out.value[2], np.zeros(4))


def test_concat_slice_transpose_diag_gradients():
    rng = np.random.default_rng(4)
    a = nk.leaf(rng.normal(size=(3, 2)))
    b = nk.leaf(rng.normal(size=(3, 3)))

    def build():
        cat = nk.concat_cols([a, b])
        piece = nk.slice_cols(cat, 1, 4)
        sym = nk.matmul(piece, nk.transpose(piece))
        return nk.reduce(nk.unary(diag := nk.diag_col(sym), "square"), "sum")

    nk.backward(build())
    for node in (a, b):
        numeric = numeric_gradient(lambda: scalar(build()), node.value)
        assert relative_error(node.grad, numeric) < 1e-5


# ---------------------------------------------------------------------------
# backward


def test_backward_requires_scalar_root():
    with pytest.raises(ContractError):
        nk.backward(nk.constant(np.ones((2, 2))))


def test_backward_sum_gives_ones():
    w = nk.leaf(np.arange(6, dtype=float).reshape(2, 3))
    nk.backward(nk.reduce(w, "sum"))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_sum_of_squares_gives_2w():
    w = nk.leaf(np.arange(6, dtype=float).reshape(2, 3))
    nk.backward(nk.reduce(nk.unary(w, "square"), "sum"))
    np.testing.assert_allclose(w.grad, 2 * w.value, atol=0)


def test_backward_unreachable_node_has_zero_grad():
    w = nk.leaf(np.ones((2, 2)))
    other = nk.leaf(np.ones((2, 2)))
    nk.backward(nk.reduce(w, "sum"))
    np.testing.assert_array_equal(other.grad, np.zeros((2, 2)))


def test_backward_repeated_calls_idempotent():
    w = nk.leaf(np.array([[1.0, 2.0]]))
    root = nk.reduce(nk.unary(w, "square"), "sum")
    nk.backward(root)
    first = w.grad.copy()
    nk.backward(root)
    np.testing.assert_array_equal(w.grad, first)


def test_backward_additive_over_graph_reuse():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(3, 3))

    shared = nk.leaf(data.copy())
    reused = nk.elementwise(nk.unary(shared, "square"), nk.unary(shared, "sigmoid"), "mul")
    nk.backward(nk.reduce(reused, "sum"))

    left = nk.leaf(data.copy())
    right = nk.leaf(data.copy())
    split = nk.elementwise(nk.unary(left, "square"), nk.unary(right, "sigmoid"), "mul")
    nk.backward(nk.reduce(split, "sum"))

    np.testing.assert_allclose(shared.grad, left.grad + right.grad, atol=1e-15)


def test_active_flag_follows_trainable_leaves():
    w = nk.leaf(np.ones((2, 2)))
    c = nk.constant(np.ones((2, 2)))
    assert w.active and not c.active
    assert not (c * 2.0).active and not nk.matmul(c, np.eye(2)).active
    assert (c @ w).active and nk.matmul(np.eye(2), w).active and nk.reduce(w, "sum").active


def test_backward_never_runs_a_vjp_into_a_constant():
    def boom(g):
        raise AssertionError("vjp into a constant ran")

    x = nk.constant(np.arange(6, dtype=float).reshape(2, 3))
    scaled = nk.DiffNode(2.0 * x.value, (x,), (boom,))
    w = nk.leaf(np.ones((3, 2)))
    prod = nk.DiffNode(scaled.value @ w.value, (scaled, w), (boom, lambda g: scaled.value.T @ g))
    nk.backward(nk.reduce(prod, "sum"))
    np.testing.assert_array_equal(w.grad, scaled.value.T @ np.ones((2, 2)))
    for node in (x, scaled):
        assert not node.active
        np.testing.assert_array_equal(node.grad, np.zeros(node.shape))


def test_backward_never_accumulates_into_a_shared_gradient():
    # add hands its upstream gradient to both operands as the same array;
    # a later in-place sum into w would corrupt the one w*w still needs
    w = nk.leaf(np.array([[1.0, 2.0]]))
    nk.backward(nk.reduce((w + w * w) * 4.0, "sum"))
    np.testing.assert_array_equal(w.grad, 4.0 * (1.0 + 2.0 * w.value))


@pytest.mark.parametrize("mode", ["full", "no-ins", "no-hg", "no-hg-no-clu"])
def test_backward_matches_exhaustive_sweep_on_full_model(mode):
    from icmvc import network as net
    from icmvc import objectives as obj
    from icmvc.graphs import normalize

    rng = np.random.default_rng(13)
    n = 12
    views = [rng.normal(size=(n, 3)), rng.normal(size=(n, 5))]
    views[0][[2, 7]] = 0.0  # zero-filled missing rows, as after masking
    ops = []
    for _ in views:
        raw = (rng.random((n, n)) < 0.4).astype(float)
        adjacency = np.maximum(raw, raw.T)
        np.fill_diagonal(adjacency, 0.0)
        ops.append(normalize(dense_to_keys(adjacency), n))
    params = net.init_model([3, 5], 3, hidden_dim=16, embed_dim=8, gcn_layers=2, seed=13)
    emb, asg = net.forward(params, ops, views, 1.0)
    target = obj.high_confidence_target(asg.per_view[0], asg.per_view[1], asg.fused)
    total, _ = obj.total_loss(
        emb.projections[0], emb.projections[1], asg.per_view[0], asg.per_view[1], asg.fused, 1.0, 0.5, mode, target
    )
    reference = exhaustive_backward(total)
    nk.backward(total)
    for name, node in params.named_parameters():
        want = reference.get(id(node), np.zeros(node.shape))
        assert np.array_equal(node.grad, want), name


def test_random_composition_gradients_match_finite_differences():
    # three stacked nonlinear layers exercised over 20 seeds
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = nk.constant(rng.normal(size=(4, 3)))
        w1 = nk.leaf(rng.normal(size=(3, 5)) * 0.7)
        w2 = nk.leaf(rng.normal(size=(5, 4)) * 0.7)
        w3 = nk.leaf(rng.normal(size=(4, 2)) * 0.7)

        def forward():
            h1 = nk.unary(nk.matmul(x, w1), "sigmoid")
            h2 = nk.unary(nk.matmul(h1, w2), "relu")
            h3 = nk.row_softmax(nk.matmul(h2, w3), 0.8)
            logp = nk.unary(h3, "log")
            return nk.reduce(nk.elementwise(logp, h3, "mul"), "sum")

        nk.backward(forward())
        for node in (w1, w2, w3):
            numeric = numeric_gradient(lambda: scalar(forward()), node.value)
            assert relative_error(node.grad, numeric) < 1e-4, f"seed {seed}"


def test_log_clamps_at_epsilon():
    out = nk.unary(nk.constant([[0.0]]), "log")
    assert out.value[0, 0] == math.log(nk.EPS)


# ---------------------------------------------------------------------------
# fused contrastive op


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("zero_row", [False, True])
def test_contrast_pair_gradients_match_finite_differences(n, zero_row):
    rng = np.random.default_rng(100 + n)
    a = nk.leaf(rng.normal(size=(n, 3)))
    b = nk.leaf(rng.normal(size=(n, 3)))
    if zero_row:
        a.value[n // 2] = 0.0

    def forward():
        return scalar(nk.contrast_pair(a, b, 0.7))

    nk.backward(nk.contrast_pair(a, b, 0.7))
    # a zero row sits on the normalization's kink: finite differences there
    # are meaningless, and its analytic gradient must be exactly zero
    kept = [i for i in range(n) if not (zero_row and i == n // 2)]
    for node, rows in ((a, kept), (b, list(range(n)))):
        numeric = numeric_gradient(forward, node.value)
        if rows:
            assert relative_error(node.grad[rows], numeric[rows]) < 1e-5
    if zero_row:
        assert np.all(a.grad[n // 2] == 0.0)


def test_contrast_pair_gradient_only_into_active_parent():
    rng = np.random.default_rng(7)
    data_a, data_b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    both_a, both_b = nk.leaf(data_a), nk.leaf(data_b)
    nk.backward(nk.contrast_pair(both_a, both_b, 0.5))
    frozen, live = nk.constant(data_a), nk.leaf(data_b)
    nk.backward(nk.contrast_pair(frozen, live, 0.5))
    assert not frozen.active
    np.testing.assert_array_equal(frozen.grad, np.zeros((5, 3)))
    np.testing.assert_array_equal(live.grad, both_b.grad)


def test_contrast_pair_parents_get_independent_gradients():
    rng = np.random.default_rng(8)
    a, b = nk.leaf(rng.normal(size=(4, 3))), nk.leaf(rng.normal(size=(4, 3)))
    root = nk.contrast_pair(a, b, 0.9)  # unit upstream: the vjp must still copy
    nk.backward(root)
    first_a, first_b = a.grad.copy(), b.grad.copy()
    a.grad[:] = 123.0
    np.testing.assert_array_equal(b.grad, first_b)
    nk.backward(root)
    np.testing.assert_array_equal(a.grad, first_a)
    np.testing.assert_array_equal(b.grad, first_b)


def test_contrast_pair_rejects_bad_temperature_and_shapes():
    a = nk.constant(np.ones((3, 2)))
    for tau in (0.0, -1.0):
        with pytest.raises(ConfigError):
            nk.contrast_pair(a, a, tau)
    with pytest.raises(ShapeError):
        nk.contrast_pair(a, nk.constant(np.ones((3, 3))), 1.0)
    with pytest.raises(ShapeError):
        nk.contrast_pair(a, nk.constant(np.ones((2, 2))), 1.0)


# ---------------------------------------------------------------------------
# fused layer ops


def weighted_square_sum(node, seed=0):
    # a loss whose upstream gradient differs in every entry
    weights = np.random.default_rng(seed).normal(size=node.shape)
    return nk.reduce(nk.unary(node, "square") * weights, "sum")


def random_operator(n, dense, seed=0):
    rng = np.random.default_rng(seed)
    op = np.where(rng.random((n, n)) < 0.4, rng.random((n, n)), 0.0)
    return op if dense else sparse.csr_matrix(op)


@pytest.mark.parametrize("act", [None, "relu"])
def test_affine_gradients_match_finite_differences(act):
    rng = np.random.default_rng(20)
    x, w, b = nk.leaf(rng.normal(size=(5, 3))), nk.leaf(rng.normal(size=(3, 4))), nk.leaf(rng.normal(size=(1, 4)))

    def build():
        return weighted_square_sum(nk.affine(x, w, b, act))

    nk.backward(build())
    for node in (x, w, b):
        numeric = numeric_gradient(lambda: scalar(build()), node.value)
        assert relative_error(node.grad, numeric) < 1e-6


def test_affine_matches_composed_ops_bit_for_bit():
    rng = np.random.default_rng(21)
    x, w, b = rng.normal(size=(6, 3)), rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
    np.testing.assert_array_equal(nk.affine(x, w, b).value, x @ w + b)
    np.testing.assert_array_equal(nk.affine(x, w, b, "relu").value, np.maximum(x @ w + b, 0.0))


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("residual", [False, True])
def test_gcn_layer_gradients_match_finite_differences(dense, residual):
    rng = np.random.default_rng(22)
    op = random_operator(6, dense, seed=23)
    h = nk.leaf(rng.normal(size=(6, 4)))
    w = nk.leaf(rng.normal(size=(4, 4 if residual else 3)))

    def build():
        return weighted_square_sum(nk.gcn_layer(h, op, w, residual))

    nk.backward(build())
    for node in (h, w):
        numeric = numeric_gradient(lambda: scalar(build()), node.value)
        assert relative_error(node.grad, numeric) < 1e-5


def test_fused_layers_give_gradients_only_to_active_parents():
    rng = np.random.default_rng(24)
    x = nk.constant(rng.normal(size=(5, 3)))  # a first layer's input
    w = nk.leaf(rng.normal(size=(3, 4)))
    b = nk.constant(np.zeros((1, 2)))
    hidden = nk.gcn_layer(x, random_operator(5, dense=False), w)
    out = nk.affine(hidden, nk.constant(rng.normal(size=(4, 2))), b, "relu")
    assert hidden.active and out.active
    nk.backward(weighted_square_sum(out))
    assert np.any(w.grad != 0.0)
    for node in (x, b):
        assert not node.active
        np.testing.assert_array_equal(node.grad, np.zeros(node.shape))


@pytest.mark.parametrize("make", ["affine", "gcn_layer"])
def test_fused_layer_parents_get_independent_gradients(make):
    rng = np.random.default_rng(25)
    x, w = nk.leaf(rng.normal(size=(4, 3))), nk.leaf(rng.normal(size=(3, 3)))
    if make == "affine":
        b = nk.leaf(rng.normal(size=(1, 3)))
        parents, root = (x, w, b), nk.reduce(nk.affine(x, w, b, "relu"), "sum")
    else:
        parents, root = (x, w), nk.reduce(nk.gcn_layer(x, random_operator(4, dense=True), w, residual=True), "sum")
    nk.backward(root)  # unit upstream: the vjps must still return fresh arrays
    first = [p.grad.copy() for p in parents]
    parents[0].grad[:] = 123.0
    for p, want in zip(parents[1:], first[1:]):
        np.testing.assert_array_equal(p.grad, want)
    nk.backward(root)
    for p, want in zip(parents, first):
        np.testing.assert_array_equal(p.grad, want)


@pytest.mark.parametrize("make", ["affine", "gcn_layer"])
def test_fused_layer_backward_follows_each_sweeps_upstream(make):
    # the masked upstream is shared within one sweep, never carried into the next
    rng = np.random.default_rng(26)
    x, w, b = nk.leaf(rng.normal(size=(4, 3))), nk.leaf(rng.normal(size=(3, 3))), nk.leaf(rng.normal(size=(1, 3)))
    op = random_operator(4, dense=False)

    def layer():
        return nk.affine(x, w, b, "relu") if make == "affine" else nk.gcn_layer(x, op, w, residual=True)

    shared = layer()
    nk.backward(weighted_square_sum(shared, seed=1))
    nk.backward(weighted_square_sum(shared, seed=2))
    second = [p.grad.copy() for p in (x, w)]
    nk.backward(weighted_square_sum(layer(), seed=2))
    for p, want in zip((x, w), second):
        np.testing.assert_array_equal(want, p.grad)


def tracked(node, refs):
    """An identity node whose vjp hands ``node`` a fresh upstream gradient, tracked weakly in ``refs``."""

    def vjp(g):
        upstream = g.copy()
        refs.append(weakref.ref(upstream))
        return upstream

    return nk.DiffNode(node.value, (node,), (vjp,))


def fused_layer_stack(width, between=lambda node: node):
    """A constant input through a GCN layer and a relu affine layer into a sum,
    with ``between`` applied to each layer's output; returns the root and the
    three trainable leaves."""
    rng = np.random.default_rng(27)
    n = 40
    x, op = nk.constant(rng.normal(size=(n, 8))), random_operator(n, dense=False, seed=28)
    w1, w2, b = (nk.leaf(rng.normal(size=s)) for s in ((8, width), (width, width), (1, width)))
    hidden = between(nk.gcn_layer(x, op, w1))
    return nk.reduce(between(nk.affine(hidden, w2, b, "relu")), "sum"), (w1, w2, b)


def test_backward_keeps_gradients_on_leaves_only():
    root, leaves = fused_layer_stack(6)
    reference = exhaustive_backward(root)
    nk.backward(root)
    interior, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.parents:
            interior.append(node)
            stack.extend(node.parents)
    assert len(interior) == 3
    for node in interior:
        np.testing.assert_array_equal(node.grad, np.zeros(node.shape))
    for leaf in leaves:
        assert np.any(leaf.grad != 0.0)
        np.testing.assert_array_equal(leaf.grad, reference[id(leaf)])


def test_backward_frees_the_upstream_of_each_fused_layer():
    upstreams = []
    root, _ = fused_layer_stack(5, lambda node: tracked(node, upstreams))
    nk.backward(root)
    assert len(upstreams) == 2 and all(ref() is None for ref in upstreams)


def test_backward_keeps_no_more_than_the_leaf_gradients():
    # interior gradients and the relu-masked upstream copies (N x width each) are freed
    tracemalloc.start()
    try:
        root, leaves = fused_layer_stack(256)
        built = tracemalloc.get_traced_memory()[0]
        nk.backward(root)
        kept = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert kept <= sum(leaf.value.nbytes for leaf in leaves) + 32 * 2**10


def test_contrast_pair_node_holds_no_pair_buffer():
    rng = np.random.default_rng(31)
    n = 300
    a, b = nk.leaf(rng.normal(size=(n, 4))), nk.leaf(rng.normal(size=(n, 4)))
    tracemalloc.start()
    try:
        root = nk.contrast_pair(a, b, 0.5)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert root.value.shape == (1, 1)
    assert kept < 0.1 * (2 * n) ** 2 * 8  # no 2N x 2N float64 outlives the forward


def test_fused_layers_reject_mismatched_shapes():
    x = nk.constant(np.ones((4, 3)))
    with pytest.raises(ShapeError):
        nk.affine(x, np.ones((2, 5)), np.zeros((1, 5)))
    with pytest.raises(ShapeError):
        nk.affine(x, np.ones((3, 5)), np.zeros((1, 4)))
    with pytest.raises(ShapeError):
        nk.affine(x, np.ones((3, 5)), np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        nk.gcn_layer(x, np.eye(5), np.ones((3, 3)))
    with pytest.raises(ShapeError):
        nk.gcn_layer(x, np.eye(4), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        nk.gcn_layer(x, np.eye(4), np.ones((3, 5)), residual=True)


# ---------------------------------------------------------------------------
# Adam


def test_adam_rejects_nonpositive_lr():
    with pytest.raises(ConfigError):
        nk.AdamState([nk.leaf(np.ones((1, 1)))], lr=0.0)


def test_adam_zero_gradient_leaves_params_unchanged():
    p = nk.leaf(np.array([[1.0, -2.0]]))
    state = nk.AdamState([p], lr=0.1)
    nk.adam_step(state, grads=[np.zeros((1, 2))])
    np.testing.assert_array_equal(p.value, [[1.0, -2.0]])


def test_adam_moments_decay_under_zero_gradient():
    p = nk.leaf(np.array([[1.0, -2.0]]))
    state = nk.AdamState([p], lr=0.1)
    nk.adam_step(state, grads=[np.array([[1.0, 1.0]])])
    moment_before = state.first_moment[0].copy()
    nk.adam_step(state, grads=[np.zeros((1, 2))])
    np.testing.assert_allclose(state.first_moment[0], 0.9 * moment_before)


def test_adam_first_step_moves_by_lr():
    # w=1, loss w^2, gradient 2: the bias-corrected first step is about lr
    p = nk.leaf(np.array([[1.0]]))
    state = nk.AdamState([p], lr=0.001)
    nk.adam_step(state, grads=[np.array([[2.0]])])
    assert abs(p.value[0, 0] - 0.999) < 1e-9


def test_adam_converges_on_quadratic():
    p = nk.leaf(np.array([[0.0]]))
    state = nk.AdamState([p], lr=0.1)
    for _ in range(200):
        loss = nk.reduce(nk.unary(p - 3.0, "square"), "sum")
        nk.backward(loss)
        nk.adam_step(state)
    assert abs(p.value[0, 0] - 3.0) < 0.05


def test_adam_step_count_increments():
    p = nk.leaf(np.zeros((1, 1)))
    state = nk.AdamState([p], lr=0.1)
    for expected in (1, 2, 3):
        nk.adam_step(state, grads=[np.ones((1, 1))])
        assert state.step_count == expected
