import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from icmvc import graphs, make_mask, synth_blobs
from icmvc.dataio import ViewSet
from icmvc.errors import ConfigError, DataError, DegenerateGraphError, ShapeError
from icmvc.graphs import (
    finalize_adjacency,
    knn_adjacency,
    median_bandwidth,
    normalize,
    rbf_similarity,
    squared_distances,
    transfer_relations,
)
from icmvc.trainer import TrainConfig, prepare
from oracles import (
    dense_to_keys,
    keys_to_dense,
    loop_knn,
    loop_normalize,
    loop_rbf,
    loop_squared_distances,
    loop_symmetrize,
    loop_transfer,
    scipy_csr,
)

ALL_OBSERVED = lambda n: np.ones(n, dtype=bool)


def quantized(rng, n, d):
    """Coordinates on a 0.25 grid: squared distances are exact in float64."""
    return rng.integers(-8, 9, size=(n, d)).astype(np.float64) * 0.25


def similarity(x, observed, t):
    """rbf_similarity over the squared distances of the observed rows of x."""
    observed = np.asarray(observed, dtype=bool)
    return rbf_similarity(squared_distances(x[observed]), t)


# ---------------------------------------------------------------------------
# squared_distances


@pytest.mark.parametrize("d", [1, 3, 10, 64])
def test_squared_distances_bit_equal_to_loop_on_dyadic_data(d):
    # on a 0.25 grid every product and partial sum is exact, so the Gram form
    # gives the loop's bits, and equal distances stay tied for the KNN tie rule
    rng = np.random.default_rng(d)
    x = quantized(rng, 40, d)
    x[rng.integers(0, 40, size=10)] = x[5]
    d2 = squared_distances(x)
    assert np.array_equal(d2, np.array(loop_squared_distances(x.tolist())))


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_squared_distances_symmetric_zero_diagonal_and_nonnegative(offset):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(101, 10)) * 3.0 + offset  # not quantized: the Gram form rounds
    twins = rng.integers(1, 90, size=20)
    x[twins] = x[0]
    x[-10:] = x[-11] + rng.normal(size=(10, 10)) * 1e-9  # near twins: the unclamped form goes negative
    d2 = squared_distances(x)
    assert np.array_equal(d2, d2.T)
    assert not np.diag(d2).any() and not d2[twins][:, twins].any() and not d2[0, twins].any()
    assert (d2 >= 0).all()
    # the rounding error scales with the squared norms of the rows shifted by the first
    diff = x[:, None, :] - x[None, :, :]
    sq = ((x - x[0]) ** 2).sum(axis=1)
    bound = 16 * x.shape[1] * np.finfo(float).eps * (sq[:, None] + sq[None, :])
    assert (np.abs(d2 - np.einsum("ijk,ijk->ij", diff, diff)) <= bound).all()


BLAS_THREADS_PROBE = """
import hashlib
import numpy as np
from icmvc import ViewSet, make_mask
from icmvc.graphs import squared_distances
from icmvc.trainer import TrainConfig, prepare
rng = np.random.default_rng(0)  # not synth_blobs: its rotations are BLAS products
views = ViewSet([rng.normal(size=(300, 300)) + np.repeat(rng.normal(size=(3, 300)), 100, axis=0) for _ in range(2)])
mask = make_mask(300, 2, 0.3, 0)
digest = hashlib.sha256()
for v in range(2):
    digest.update(squared_distances(views.views[v][mask[:, v]]).tobytes())
for op in prepare(views, mask, TrainConfig())[0]:
    digest.update(op.data.tobytes() + op.indices.tobytes() + op.indptr.tobytes())
print(digest.hexdigest())
"""


def test_prepare_is_bit_identical_at_one_and_two_blas_threads():
    # a BLAS product of a view wider than 256 may round differently per thread count
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(graphs.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], env=env, capture_output=True, text=True, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


# ---------------------------------------------------------------------------
# rbf_similarity


def test_rbf_identical_rows():
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    s = similarity(x, ALL_OBSERVED(2), t=3.7)
    assert s[0, 1] == 1.0


def test_rbf_unit_distance():
    s = similarity(np.array([[0.0], [1.0]]), ALL_OBSERVED(2), t=1.0)
    assert abs(s[0, 1] - math.exp(-1.0)) < 1e-15


def test_rbf_three_points():
    x = np.array([[0.0], [1.0], [3.0]])
    s = similarity(x, ALL_OBSERVED(3), t=2.0)
    assert abs(s[0, 2] - math.exp(-4.5)) < 1e-15
    assert abs(s[1, 2] - math.exp(-2.0)) < 1e-15
    np.testing.assert_allclose(s, s.T)


def test_rbf_subnormal_bandwidth_zeroes_distinct_pairs_without_a_warning():
    # d2 / -1e-320 overflows to -inf; the suite turns a RuntimeWarning into an error
    d2 = squared_distances(np.array([[0.0], [1.0], [3.0]]))
    np.testing.assert_array_equal(rbf_similarity(d2, 1e-320), np.eye(3))


def test_median_bandwidth_positive_on_duplicates():
    x = np.ones((4, 2))
    assert median_bandwidth(squared_distances(x)) == 1.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 30, 31, 33])  # pair counts n(n-1)/2 odd and even
@pytest.mark.parametrize("duplicates", [False, True])
def test_median_bandwidth_equals_np_median_of_upper_triangle(n, duplicates):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3)) * 1.7  # not quantized: the averaged middle pair rounds
    if duplicates:
        x[rng.integers(0, n, size=n // 2)] = x[0]
    d2 = squared_distances(x)
    expected = float(np.median(d2[np.triu_indices(n, 1)]))
    assert median_bandwidth(d2) == (expected if expected > 0 else 1.0)


# ---------------------------------------------------------------------------
# knn_adjacency


def test_knn_complete_graph_when_k_exhausts_candidates():
    rng = np.random.default_rng(0)
    x = quantized(rng, 5, 2)
    s = similarity(x, ALL_OBSERVED(5), t=2.0)
    adj = keys_to_dense(knn_adjacency(s, ALL_OBSERVED(5), k=4), 5)
    expected = np.ones((5, 5)) - np.eye(5)
    np.testing.assert_array_equal(adj, expected)


def test_knn_top1_rows():
    s = similarity(np.zeros((3, 1)), ALL_OBSERVED(3), t=1.0)
    s[:] = [[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]]
    adj = keys_to_dense(knn_adjacency(s, ALL_OBSERVED(3), k=1), 3)
    np.testing.assert_array_equal(adj, [[0, 1, 0], [1, 0, 0], [0, 1, 0]])


def test_knn_tie_breaks_to_lower_index():
    s = similarity(np.zeros((3, 1)), ALL_OBSERVED(3), t=1.0)
    s[:] = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]
    adj = keys_to_dense(knn_adjacency(s, ALL_OBSERVED(3), k=1), 3)
    assert adj[0, 1] == 1.0 and adj[0, 2] == 0.0


def test_knn_skips_unobserved_candidates():
    x = np.array([[0.0], [0.25], [4.0]])
    observed = np.array([True, False, True])
    s = similarity(x, observed, t=1.0)
    adj = keys_to_dense(knn_adjacency(s, observed, k=1), 3)
    # nearest observed neighbor of 0 is 2, despite 1 being closer
    np.testing.assert_array_equal(adj[0], [0, 0, 1])
    np.testing.assert_array_equal(adj[1], [0, 0, 0])


def test_knn_block_mixing_surplus_ties_and_plain_rows_matches_loop():
    rng = np.random.default_rng(8)
    n, k = 40, 4
    x = rng.integers(-40, 41, size=(n, 2)).astype(np.float64) * 0.25
    x[5:12] = x[5]  # seven duplicate points: six neighbors tie at similarity 1
    x[20:22] = x[20]
    observed = np.ones(n, dtype=bool)
    observed[[3, 17, 30]] = False
    s = similarity(x, observed, 3.0)
    # rows whose k-th largest similarity is shared by more entries than
    # slots left for it, and rows where it is not
    ranked = np.sort(np.where(np.eye(len(s), dtype=bool), -np.inf, s), axis=1)[:, ::-1]
    surplus = (ranked >= ranked[:, [k - 1]]).sum(axis=1) > k
    assert surplus.any() and not surplus.all()
    expected = loop_knn(loop_rbf(x.tolist(), observed.tolist(), 3.0), observed.tolist(), k)
    np.testing.assert_array_equal(keys_to_dense(knn_adjacency(s, observed, k), n), expected)


def test_knn_rejects_out_of_range_k():
    s = similarity(np.zeros((3, 1)), ALL_OBSERVED(3), t=1.0)
    for bad in (0, 3):
        with pytest.raises(ConfigError):
            knn_adjacency(s, ALL_OBSERVED(3), k=bad)


def test_knn_never_links_unobserved_and_only_transfer_fills_their_rows():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(30):
        n, n_views, k = int(rng.integers(6, 15)), int(rng.integers(2, 4)), 2
        mask = rng.random((n, n_views)) > 0.3
        mask[~mask.any(axis=1), 0] = True
        if (mask.sum(axis=0) < k + 1).any():
            continue
        raw = [knn_adjacency(similarity(quantized(rng, n, 2), mask[:, v], 2.0), mask[:, v], k) for v in range(n_views)]
        dense = [keys_to_dense(a, n) for a in raw]
        for v in range(n_views):
            unobserved = ~mask[:, v]
            assert not dense[v][unobserved].any() and not dense[v][:, unobserved].any()
            np.testing.assert_array_equal(dense[v].sum(axis=1), np.where(mask[:, v], k, 0))
        for rule in graphs.TRANSFER_RULES:
            out = [keys_to_dense(a, n) for a in transfer_relations(raw, mask, rule)]
            for v in range(n_views):
                observed = mask[:, v]
                np.testing.assert_array_equal(out[v][observed], dense[v][observed])
                for i in np.flatnonzero(~observed):
                    sources = [dense[w][i] for w in np.flatnonzero(mask[i])]
                    assert (out[v][i] <= np.max(sources, axis=0)).all()
                    if rule == "copy":
                        np.testing.assert_array_equal(out[v][i], sources[0])
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# transfer_relations


def test_transfer_full_mask_is_identity():
    rng = np.random.default_rng(1)
    mask = np.ones((5, 2), dtype=bool)
    adjs = [(rng.random((5, 5)) < 0.4).astype(float) for _ in range(2)]
    for rule in ("copy", "union", "intersection"):
        out = transfer_relations([dense_to_keys(a) for a in adjs], mask, rule)
        for v in range(2):
            np.testing.assert_array_equal(keys_to_dense(out[v], 5), adjs[v])


def test_transfer_copies_row_from_observed_view():
    mask = np.ones((4, 2), dtype=bool)
    mask[2, 0] = False
    a1 = np.zeros((4, 4))
    a2 = np.zeros((4, 4))
    a2[2] = [1.0, 0.0, 0.0, 1.0]
    keys = [dense_to_keys(a1), dense_to_keys(a2)]
    out = transfer_relations(keys, mask, "copy")
    np.testing.assert_array_equal(keys_to_dense(out[0], 4)[2], [1.0, 0.0, 0.0, 1.0])
    assert keys[0].size == 0  # the input list is left as it was
    np.testing.assert_array_equal(keys[1], [8, 11])


def test_transfer_union_and_intersection_three_views():
    rng = np.random.default_rng(2)
    for trial in range(30):
        n = int(rng.integers(4, 13))
        mask = rng.random((n, 3)) > 0.3
        mask[~mask.any(axis=1), 0] = True
        adjs = [(rng.random((n, n)) < 0.35).astype(float) for _ in range(3)]
        for rule in ("copy", "union", "intersection"):
            out = transfer_relations([dense_to_keys(a) for a in adjs], mask, rule)
            expected = loop_transfer(
                [a.tolist() for a in adjs], mask.tolist(), rule
            )
            for v in range(3):
                np.testing.assert_array_equal(keys_to_dense(out[v], n), np.array(expected[v]))


def test_transfer_rejects_instance_missing_everywhere():
    mask = np.ones((3, 2), dtype=bool)
    mask[1] = False
    adjs = [dense_to_keys(np.zeros((3, 3))) for _ in range(2)]
    with pytest.raises(DataError):
        transfer_relations(adjs, mask, "copy")


def test_transfer_rejects_unknown_rule():
    mask = np.ones((3, 2), dtype=bool)
    adjs = [dense_to_keys(np.zeros((3, 3))) for _ in range(2)]
    with pytest.raises(ConfigError):
        transfer_relations(adjs, mask, "xor")


# ---------------------------------------------------------------------------
# finalize_adjacency / normalize


def _finalized(adj):
    n = len(adj)
    return keys_to_dense(finalize_adjacency([dense_to_keys(adj)], n)[0], n)


def _normalized(adj):
    return scipy_csr(normalize(dense_to_keys(adj), len(adj))).toarray()


def test_finalize_symmetric_fixed_point():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(_finalized(a), a)


def test_finalize_or_symmetrizes():
    raw = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(_finalized(raw), expected)


def test_finalize_zeroes_diagonal():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = _finalized(a)
    np.testing.assert_array_equal(np.diag(out), [0.0, 0.0])


def test_finalize_rejects_isolated_node():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    with pytest.raises(DegenerateGraphError):
        _finalized(a)


def test_normalize_edgeless_gives_identity():
    np.testing.assert_array_equal(_normalized(np.zeros((4, 4))), np.eye(4))


def test_normalize_single_pair():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(_normalized(a), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_three_node_path():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    op = _normalized(a)
    assert abs(op[0, 1] - 1.0 / math.sqrt(6.0)) < 1e-15
    assert abs(op[1, 1] - 1.0 / 3.0) < 1e-15


def test_normalize_exactly_symmetric():
    rng = np.random.default_rng(3)
    raw = (rng.random((8, 8)) < 0.4).astype(float)
    op = _normalized(_finalized(np.maximum(raw, raw.T)))
    assert np.array_equal(op, op.T)


def test_normalize_perron_vector():
    # A(+I) applied to sqrt(degree) reproduces sqrt(degree)
    rng = np.random.default_rng(4)
    raw = (rng.random((7, 7)) < 0.5).astype(float)
    adj = _finalized(np.maximum(raw, raw.T))
    op = _normalized(adj)
    degree = (adj + np.eye(7)).sum(axis=1)
    vec = np.sqrt(degree)
    np.testing.assert_allclose(op @ vec, vec, atol=1e-9)


# ---------------------------------------------------------------------------
# whole pipeline against the loop oracle


def run_pipeline(views, mask, k, t, rule):
    raw = []
    for v in range(mask.shape[1]):
        sim = similarity(views[v], mask[:, v], t)
        raw.append(knn_adjacency(sim, mask[:, v], k))
    n = mask.shape[0]
    final = finalize_adjacency(transfer_relations(raw, mask, rule), n)
    return [keys_to_dense(a, n) for a in final], [scipy_csr(normalize(a, n)).toarray() for a in final]


def run_loop_pipeline(views, mask, k, t, rule):
    n, n_views = mask.shape
    raw = []
    for v in range(n_views):
        sims = loop_rbf(views[v].tolist(), mask[:, v].tolist(), t)
        raw.append(loop_knn(sims, mask[:, v].tolist(), k))
    transferred = loop_transfer(raw, mask.tolist(), rule)
    final = [loop_symmetrize(a) for a in transferred]
    if any(sum(row) == 0 for a in final for row in a):
        return None, None
    return (
        [np.array(a) for a in final],
        [np.array(loop_normalize(a)) for a in final],
    )


def test_pipeline_matches_loop_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(5, 13))
        n_views = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        mask = rng.random((n, n_views)) > 0.25
        mask[~mask.any(axis=1), 0] = True
        if any(int(mask[:, v].sum()) < k + 1 for v in range(n_views)):
            continue
        views = [quantized(rng, n, int(rng.integers(1, 4))) for _ in range(n_views)]
        rule = ("copy", "union", "intersection")[trial % 3]
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
    assert checked >= 30


def dense_normalize(adj):
    """D^-1/2 (A + I) D^-1/2 formed densely; the CSR operator must equal it bit for bit."""
    tilde = adj + np.eye(adj.shape[0])
    inv_sqrt = 1.0 / np.sqrt(tilde.sum(axis=1))
    return tilde * np.outer(inv_sqrt, inv_sqrt)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_views=st.integers(2, 3), rule=st.sampled_from(graphs.TRANSFER_RULES))
def test_csr_operators_equal_dense_loop_oracle_array_for_array(seed, n_views, rule):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 16))
    mask = rng.random((n, n_views)) > 0.3
    mask[~mask.any(axis=1), 0] = True
    k = min(int(rng.integers(1, 4)), int(mask.sum(axis=0).min()) - 1)
    assume(k >= 1)
    views = [quantized(rng, n, int(rng.integers(1, 4))) for _ in range(n_views)]
    expected_adj, expected_ops = run_loop_pipeline(views, mask, k, 2.0, rule)
    raw = [knn_adjacency(similarity(views[v], mask[:, v], 2.0), mask[:, v], k) for v in range(n_views)]
    if expected_adj is None:
        with pytest.raises(DegenerateGraphError):
            finalize_adjacency(transfer_relations(raw, mask, rule), n)
        return
    built = [[normalize(a, n) for a in finalize_adjacency(transfer_relations(raw, mask, rule), n)]]
    if rule == "copy":  # the rule prepare() applies
        built.append(prepare(ViewSet(views), mask, TrainConfig(knn_k=k))[0])
    for ops in built:
        for v in range(n_views):
            oracle = sparse.csr_matrix(expected_ops[v])
            np.testing.assert_array_equal(ops[v].indptr, oracle.indptr)
            np.testing.assert_array_equal(ops[v].indices, oracle.indices)
            np.testing.assert_allclose(ops[v].data, oracle.data, atol=1e-12, rtol=0)
            assert ops[v].data.tobytes() == sparse.csr_matrix(dense_normalize(expected_adj[v])).data.tobytes()


def test_prepare_builds_one_csr_matrix_per_view(monkeypatch):
    built = []
    csr_operator = graphs.CsrOperator

    def counted(*args, **kwargs):
        built.append(args)
        return csr_operator(*args, **kwargs)

    monkeypatch.setattr(graphs, "CsrOperator", counted)
    rng = np.random.default_rng(9)
    n = 30
    for n_views in (2, 3):
        built.clear()
        views = ViewSet([rng.normal(size=(n, 3)) for _ in range(n_views)])
        mask = np.ones((n, n_views), dtype=bool)
        mask[np.arange(0, n, 4), np.arange(0, n, 4) % n_views] = False
        operators, _ = prepare(views, mask, TrainConfig(knn_k=4))
        assert len(built) == n_views == len(operators)


def assert_products_equal_scipys(op, widths=(1, 3, 64, 128)):
    """``op @ x`` and ``op.T @ x`` equal scipy's CSR products byte for byte,
    for C- and Fortran-ordered ``x``; for an N x 1 ``x`` scipy calls
    ``csr_matvec`` / ``csc_matvec``, for the others the ``*_matvecs`` kernels."""
    oracle = scipy_csr(op)
    rng = np.random.default_rng(op.nnz)
    for width in widths:
        for rows, product, expected in ((op.shape[1], op, oracle), (op.shape[0], op.T, oracle.T)):
            x = rng.normal(size=(rows, width))
            for arranged in (x, np.asfortranarray(x)):
                got = product @ arranged
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert got.tobytes() == (expected @ arranged).tobytes()


@pytest.mark.parametrize("n", [150, 300, 1000])
def test_operator_products_equal_scipys_byte_for_byte(n):
    # the products run scipy's private compiled kernels; a scipy release that
    # changes them fails here rather than in a training
    views, _ = synth_blobs(n, 2, 3, dim=10, noise_sigma=0.5, seed=n)
    operators, _ = prepare(views, make_mask(n, 2, 0.3, n), TrainConfig())
    for op in operators:
        assert op.indices.dtype == op.indptr.dtype == scipy_csr(op).indices.dtype
        assert_products_equal_scipys(op)


def test_operator_products_equal_scipys_on_a_non_symmetric_matrix_with_empty_rows():
    rng = np.random.default_rng(3)
    values = np.where(rng.random((40, 25)) < 0.2, rng.normal(size=(40, 25)), 0.0)
    values[[0, 7, 8, 39]] = 0.0
    m = sparse.csr_matrix(values)
    op = graphs.CsrOperator(m.data, m.indices, m.indptr, m.shape)
    assert op.nnz == m.nnz and op.T.shape == (25, 40) and op.T.T.shape == (40, 25)
    assert_products_equal_scipys(op)
    assert (op.T.T @ np.eye(25)).tobytes() == values.tobytes()


@pytest.mark.parametrize("shape", [(24, 3), (25, 3, 1), (25,)])
def test_operator_rejects_a_product_of_the_wrong_shape(shape):
    op = normalize(np.array([1, 25], dtype=np.int64), 25)
    with pytest.raises(ShapeError, match=r"CsrOperator \(25, 25\) @"):
        op @ np.ones(shape)


@pytest.mark.parametrize("scipy_found", [False, True])
def test_missing_sparse_kernels_raise_an_import_error_naming_them(monkeypatch, tmp_path, scipy_found):
    # a scipy package without the compiled extension, or no scipy at all
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec if scipy_found else None)
    with pytest.raises(ImportError, match=r"scipy's compiled scipy\.sparse\._sparsetools extension"):
        graphs._load_sparsetools()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rbf_bandwidth_leaves_knn_keys_unchanged(seed):
    # the operator is built from the KNN 0/1 pattern, and exp(-d2 / t) orders
    # neighbours as d2 does for any t: a bandwidth can move an edge only where
    # exp rounds two distances that decide a row's k nearest to one value, as
    # an underflow to 0 does; so prepare keeps the median heuristic, no knob
    views, _ = synth_blobs(300, 2, 3, dim=10, noise_sigma=0.5, seed=seed)
    k = TrainConfig().knn_k
    for eta in (0.0, 0.3, 0.7):
        mask = make_mask(300, 2, eta, seed)
        for v in range(2):
            d2 = squared_distances(views.views[v][mask[:, v]])
            keys = [knn_adjacency(rbf_similarity(d2, t), mask[:, v], k) for t in (median_bandwidth(d2), 0.05, 0.5, 2.0, 50.0)]
            assert all(np.array_equal(key, keys[0]) for key in keys[1:])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 6: ranking by d2 needs the RBF passes gone")
def test_prepare_links_an_outlier_to_its_nearest_rows():
    # at the median bandwidth every similarity of a far outlier underflows to
    # 0, so the tie break hands it the lowest-indexed rows, 0 to 4, not its
    # nearest by d2; min-max scaling the view keeps the effect
    rng = np.random.default_rng(0)
    x = rng.random((50, 3))
    x[7] = 40.0
    operators, _ = prepare(ViewSet([x, x]), np.ones((50, 2), dtype=bool), TrainConfig(knn_k=5))
    nearest = np.argsort(squared_distances(x)[7], kind="stable")[:6]  # the row itself first
    assert np.flatnonzero(scipy_csr(operators[0]).toarray()[7]).tolist() == sorted(nearest.tolist())
