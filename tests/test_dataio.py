import numpy as np
import pytest

from icmvc import dataio
from icmvc.errors import ConfigError, DataError, FormatError, ParseError


def toy_views():
    rng = np.random.default_rng(0)
    return dataio.ViewSet([rng.normal(size=(4, 2)), rng.normal(size=(4, 3))])


# ---------------------------------------------------------------------------
# save / load


def test_load_shapes(tmp_path):
    views = toy_views()
    dataio.save_dataset(tmp_path, views, labels=np.array([0, 0, 1, 1]))
    loaded, labels, mask = dataio.load_dataset(tmp_path)
    assert [v.shape for v in loaded.views] == [(4, 2), (4, 3)]
    assert mask is None
    np.testing.assert_array_equal(labels, [0, 0, 1, 1])


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    views = dataio.ViewSet([rng.normal(size=(6, 3)) * 1e3, rng.normal(size=(6, 2)) * 1e-7])
    dataio.save_dataset(tmp_path, views, labels=np.arange(6) % 2)
    loaded, _, _ = dataio.load_dataset(tmp_path, minmax=False)
    for original, re_read in zip(views.views, loaded.views):
        np.testing.assert_array_equal(original, re_read)


def test_header_row_is_a_parse_error(tmp_path):
    views = toy_views()
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4))
    target = tmp_path / "view1.csv"
    target.write_text("a,b\n" + target.read_text())
    with pytest.raises(ParseError, match="line 1"):
        dataio.load_dataset(tmp_path)


def test_row_count_mismatch(tmp_path):
    views = toy_views()
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4))
    lines = (tmp_path / "view2.csv").read_text().strip().splitlines()
    (tmp_path / "view2.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError):
        dataio.load_dataset(tmp_path)


def test_mask_all_zero_row_rejected(tmp_path):
    views = toy_views()
    mask = np.ones((4, 2), dtype=bool)
    mask[1] = False
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4), mask=mask)
    with pytest.raises(DataError):
        dataio.load_dataset(tmp_path)


def test_load_zero_fills_masked_rows(tmp_path):
    views = toy_views()
    mask = np.ones((4, 2), dtype=bool)
    mask[3, 1] = False
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4), mask=mask)
    loaded, _, loaded_mask = dataio.load_dataset(tmp_path)
    np.testing.assert_array_equal(loaded.views[1][3], np.zeros(3))
    np.testing.assert_array_equal(loaded.views[0][3], views.views[0][3])
    np.testing.assert_array_equal(loaded_mask, mask)


def test_minmax_scaling(tmp_path):
    views = toy_views()
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4))
    loaded, _, _ = dataio.load_dataset(tmp_path, minmax=True)
    for matrix in loaded.views:
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0


# ---------------------------------------------------------------------------
# make_mask


def test_make_mask_eta_zero():
    mask = dataio.make_mask(10, 2, eta=0.0, seed=0)
    assert mask.all()


def test_make_mask_eta_one():
    mask = dataio.make_mask(12, 2, eta=1.0, seed=3)
    per_row = mask.sum(axis=1)
    assert (per_row == 1).all()


def test_make_mask_counts_over_seeds():
    for seed in range(100):
        mask = dataio.make_mask(10, 3, eta=0.3, seed=seed)
        incomplete = (~mask).any(axis=1)
        assert incomplete.sum() == 3
        assert (mask.sum(axis=1)[incomplete] == 2).all()
        assert (mask.sum(axis=1)[~incomplete] == 3).all()


def test_make_mask_never_removes_all_views():
    for eta in (0.5, 1.0):
        for seed in range(20):
            mask = dataio.make_mask(9, 2, eta=eta, seed=seed)
            assert mask.any(axis=1).all()


def test_make_mask_floor_of_awkward_eta():
    mask = dataio.make_mask(100, 2, eta=0.29, seed=0)
    assert (~mask).any(axis=1).sum() == 29


def test_make_mask_validates_eta():
    with pytest.raises(ConfigError):
        dataio.make_mask(10, 2, eta=1.5, seed=0)


def test_make_mask_deterministic():
    a = dataio.make_mask(50, 2, eta=0.4, seed=7)
    b = dataio.make_mask(50, 2, eta=0.4, seed=7)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# synth_blobs


def test_blobs_zero_noise_points_equal_centers():
    views, labels = dataio.synth_blobs(12, 2, 3, dim=4, noise_sigma=0.0, seed=0)
    for matrix in views.views:
        for c in range(3):
            rows = matrix[labels == c]
            assert np.ptp(rows, axis=0).max() < 1e-12


def test_blobs_deterministic():
    a, la = dataio.synth_blobs(30, 2, 3, dim=5, noise_sigma=0.5, seed=11)
    b, lb = dataio.synth_blobs(30, 2, 3, dim=5, noise_sigma=0.5, seed=11)
    np.testing.assert_array_equal(la, lb)
    for va, vb in zip(a.views, b.views):
        np.testing.assert_array_equal(va, vb)


def test_blobs_balanced_sizes():
    _, labels = dataio.synth_blobs(10, 2, 3, dim=3, noise_sigma=0.1, seed=2)
    counts = np.bincount(labels)
    assert counts.max() - counts.min() <= 1


def test_blobs_center_separation():
    views, labels = dataio.synth_blobs(30, 2, 3, dim=6, noise_sigma=0.5, seed=4)
    for matrix in views.views:
        centers = np.stack([matrix[labels == c].mean(axis=0) for c in range(3)])
        diff = centers[:, None] - centers[None, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 2.0  # 6 sigma minus sampling slack


def test_blobs_validates_arguments():
    with pytest.raises(ConfigError):
        dataio.synth_blobs(5, 2, 3, dim=3, noise_sigma=0.1)
    with pytest.raises(ConfigError):
        dataio.synth_blobs(30, 2, 3, dim=3, noise_sigma=-0.5)


# ---------------------------------------------------------------------------
# zero_fill


def test_zero_fill_full_mask_identity():
    views = toy_views()
    out = dataio.zero_fill(views, np.ones((4, 2), dtype=bool))
    for a, b in zip(out.views, views.views):
        np.testing.assert_array_equal(a, b)


def test_zero_fill_targets_only_missing_rows():
    views = toy_views()
    mask = np.ones((4, 2), dtype=bool)
    mask[3, 1] = False
    out = dataio.zero_fill(views, mask)
    np.testing.assert_array_equal(out.views[1][3], np.zeros(3))
    np.testing.assert_array_equal(out.views[0][3], views.views[0][3])


def test_zero_fill_idempotent():
    views = toy_views()
    mask = np.ones((4, 2), dtype=bool)
    mask[0, 0] = mask[2, 1] = False
    once = dataio.zero_fill(views, mask)
    twice = dataio.zero_fill(once, mask)
    for a, b in zip(once.views, twice.views):
        np.testing.assert_array_equal(a, b)


def test_blobs_zero_noise_single_view_kmeans_recovers_labels():
    from icmvc.metrics import accuracy
    from icmvc.trainer import kmeans

    views, labels = dataio.synth_blobs(30, 2, 3, dim=4, noise_sigma=0.0, seed=3)
    for matrix in views.views:
        pred = kmeans(matrix, 3, seed=0, restarts=5)
        acc, _ = accuracy(pred, labels)
        assert acc == 1.0


def test_blobs_benchmark_scale_concat_kmeans_separable():
    from icmvc.metrics import accuracy
    from icmvc.trainer import kmeans

    for seed in range(5):
        views, labels = dataio.synth_blobs(300, 2, 3, dim=10, noise_sigma=0.5, seed=seed)
        pred = kmeans(np.hstack(views.views), 3, seed=seed, restarts=5)
        acc, _ = accuracy(pred, labels)
        assert acc >= 0.95, f"seed {seed}: concat k-means ACC {acc}"


def test_parse_error_names_row_and_column(tmp_path):
    views = toy_views()
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4))
    target = tmp_path / "view1.csv"
    lines = target.read_text().strip().splitlines()
    cells = lines[2].split(",")
    cells[1] = "oops"
    lines[2] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 3, column 2"):
        dataio.load_dataset(tmp_path)


@pytest.mark.parametrize("name", ["view_extra.csv", "view0.csv", "view.csv"])
def test_stray_view_file_is_a_format_error(tmp_path, name):
    dataio.save_dataset(tmp_path, toy_views(), labels=np.zeros(4))
    (tmp_path / name).write_text("1.0,2.0\n")
    with pytest.raises(FormatError, match=name):
        dataio.load_dataset(tmp_path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_cell_is_a_parse_error(tmp_path, cell):
    dataio.save_dataset(tmp_path, toy_views(), labels=np.zeros(4))
    target = tmp_path / "view2.csv"
    lines = target.read_text().strip().splitlines()
    cells = lines[1].split(",")
    cells[2] = cell
    lines[1] = ",".join(cells)
    target.write_text("\n\n".join(lines) + "\n")  # blank lines do not shift the reported line
    with pytest.raises(ParseError, match="view2.csv: line 3, column 3"):
        dataio.load_dataset(tmp_path)


@pytest.mark.parametrize("bad", ["-1", "0.5"])
def test_negative_or_fractional_label_is_a_format_error(tmp_path, bad):
    dataio.save_dataset(tmp_path, toy_views(), labels=np.zeros(4))
    (tmp_path / "labels.csv").write_text(f"0\n1\n{bad}\n1\n")
    with pytest.raises(FormatError, match="labels.csv"):
        dataio.load_dataset(tmp_path)
