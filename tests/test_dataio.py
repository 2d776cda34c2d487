import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import loop_read_matrix

from icmvc import dataio
from icmvc.errors import ConfigError, DataError, FormatError, GenerationError, ParseError


def toy_views():
    rng = np.random.default_rng(0)
    return dataio.ViewSet([rng.normal(size=(4, 2)), rng.normal(size=(4, 3))])


def test_viewset_needs_views_with_one_instance_count():
    with pytest.raises(DataError, match="at least one view"):
        dataio.ViewSet([])
    with pytest.raises(DataError, match="disagree on instance count"):
        dataio.ViewSet([np.zeros((4, 2)), np.zeros((5, 2))])


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


def test_integer_array_written_as_floats_keeps_its_decimal_point(tmp_path):
    dataio.write_matrix(tmp_path / "m.csv", np.array([[1, -2], [0, 3]]))
    assert (tmp_path / "m.csv").read_text() == "1.0,-2.0\n0.0,3.0\n"


@pytest.mark.parametrize("blank", ["", "\n", " \t\n\n", "\r\n\r\n", "\x0b\x1c\n"])
def test_blank_view_file_is_an_empty_file_error_and_warns_nothing(tmp_path, blank):
    dataio.save_dataset(tmp_path, toy_views(), labels=np.array([0, 0, 1, 1]))
    (tmp_path / "view1.csv").write_bytes(blank.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="view1.csv: empty file"):
            dataio.load_dataset(tmp_path)


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


def test_minmax_scales_by_observed_rows_only(tmp_path):
    mask = np.ones((4, 2), dtype=bool)
    mask[[0, 2], 1] = False
    scaled = []
    for placeholder in (None, 0.0, 1e3, -1e308):  # None keeps the real values
        views = toy_views()
        if placeholder is not None:
            views.views[1][~mask[:, 1]] = placeholder
        dataio.save_dataset(tmp_path, views, labels=np.zeros(4), mask=mask)
        scaled.append(dataio.load_dataset(tmp_path, minmax=True)[0].views[1])
    observed = scaled[0][mask[:, 1]]
    np.testing.assert_array_equal(observed.min(axis=0), 0.0)
    np.testing.assert_array_equal(observed.max(axis=0), 1.0)
    np.testing.assert_array_equal(scaled[0][~mask[:, 1]], 0.0)
    for other in scaled[1:]:
        np.testing.assert_array_equal(other, scaled[0])


def test_mask_column_with_no_observed_instance_is_a_data_error(tmp_path):
    mask = np.ones((4, 2), dtype=bool)
    mask[:, 1] = False
    dataio.save_dataset(tmp_path, toy_views(), labels=np.zeros(4), mask=mask)
    with pytest.raises(DataError, match="view 2 has no observed instance"):
        dataio.load_dataset(tmp_path)


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


def test_blobs_with_a_huge_sigma_warn_nothing():
    # the center distances overflow to inf, which the search accepts
    views, _ = dataio.synth_blobs(30, 2, 3, dim=4, noise_sigma=1e200, seed=1)
    assert all(np.isfinite(matrix).all() for matrix in views.views)
    for sigma in (3e307, 1e308):  # points past float64, or an inf spread whose distances are nan
        with pytest.raises(GenerationError):
            dataio.synth_blobs(30, 2, 3, dim=2, noise_sigma=sigma, seed=1)


def test_blobs_validates_arguments():
    with pytest.raises(ConfigError):
        dataio.synth_blobs(5, 2, 3, dim=3, noise_sigma=0.1)
    with pytest.raises(ConfigError):
        dataio.synth_blobs(30, 2, 3, dim=3, noise_sigma=-0.5)
    for n_clusters in (0, -1):  # 0 used to divide by zero and -1 to fail inside numpy
        with pytest.raises(ConfigError, match="cluster"):
            dataio.synth_blobs(10, 2, n_clusters, 3, 0.5)


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
        pred = kmeans(matrix, 3, seed=0)
        acc, _ = accuracy(pred, labels)
        assert acc == 1.0


def test_blobs_benchmark_scale_concat_kmeans_separable():
    from icmvc.metrics import accuracy
    from icmvc.trainer import kmeans

    for seed in range(5):
        views, labels = dataio.synth_blobs(300, 2, 3, dim=10, noise_sigma=0.5, seed=seed)
        pred = kmeans(np.hstack(views.views), 3, seed=seed)
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


@pytest.mark.parametrize(
    "names", [("view1.csv", "view3.csv"), ("view2.csv", "view3.csv"), ("view1.csv", "view01.csv", "view2.csv")]
)
def test_view_indices_other_than_one_to_v_are_a_format_error(tmp_path, names):
    views = dataio.ViewSet([np.arange(8.0).reshape(4, 2) + v for v in range(len(names))])
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4))
    for v, name in enumerate(names, start=1):
        (tmp_path / f"view{v}.csv").rename(tmp_path / f"tmp{v}")
    for v, name in enumerate(names, start=1):
        (tmp_path / f"tmp{v}").rename(tmp_path / name)
    with pytest.raises(FormatError, match=r"numbered 1\.\.V once each") as raised:
        dataio.load_dataset(tmp_path)
    for name in names:
        assert name in str(raised.value)


@pytest.mark.parametrize("cell", ["1_5", "1_000.25", "1e1_0", "\uff11", "\u0661\u0662", "1.5\u2009", "\u00a01.5"])
def test_cell_float_takes_but_csv_does_not_is_a_parse_error(tmp_path, cell):
    float(cell)  # Python would read every one of them
    dataio.save_dataset(tmp_path, toy_views(), labels=np.zeros(4))
    target = tmp_path / "view2.csv"
    lines = target.read_text().strip().splitlines()
    cells = lines[2].split(",")
    cells[1] = cell
    lines[2] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="view2.csv: line 3, column 2"):
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


@pytest.mark.parametrize("name", ["view1.csv", "view2.csv", "labels.csv", "mask.csv"])
def test_non_utf8_byte_is_a_parse_error(tmp_path, name):
    dataio.save_dataset(tmp_path, toy_views(), labels=np.zeros(4), mask=np.ones((4, 2), dtype=bool))
    target = tmp_path / name
    target.write_bytes(target.read_bytes() + b"\xff\n")
    with pytest.raises(ParseError, match=name):
        dataio.load_dataset(tmp_path, minmax=True)


def test_feature_range_beyond_float64_is_a_parse_error(tmp_path):
    views = toy_views()
    views.views[1][0, 1], views.views[1][3, 1] = 8e307, -8e307  # range 1.6e308 still fits
    views.views[1][0, 2], views.views[1][3, 2] = 1e308, -1e308  # range 2e308 does not
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4))
    with pytest.raises(ParseError, match="view2.csv: column 3"):
        dataio.load_dataset(tmp_path, minmax=True)
    views.views[1][:, 2] = 0.0
    dataio.save_dataset(tmp_path, views, labels=np.zeros(4))
    loaded, _, _ = dataio.load_dataset(tmp_path, minmax=True)
    np.testing.assert_array_equal(loaded.views[1][[0, 3], 1], [1.0, 0.0])


VIEW_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(["1e308", "-1e308"])
FILE_CELLS = {  # name -> (cell strategy, columns)
    "view1.csv": (VIEW_CELL, 2),
    "view2.csv": (VIEW_CELL, 3),
    "labels.csv": (st.integers(0, 3).map(str), 1),
    "mask.csv": (st.sampled_from(["1", "1", "0"]), 2),
}


@st.composite
def dataset_files(draw):
    """Four rows of plausible cells per file; then, most of the time, one
    file is replaced by arbitrary bytes or gets bytes spliced in."""
    files = {}
    for name, (cell, width) in FILE_CELLS.items():
        rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=4, max_size=4))
        files[name] = "".join(",".join(row) + "\n" for row in rows).encode()
    victim = draw(st.sampled_from([None, *FILE_CELLS]))
    if victim is not None:
        junk = draw(st.binary(max_size=32) | st.text(max_size=4).map(lambda t: t.encode("utf-8", "surrogatepass")))
        if draw(st.booleans()):
            files[victim] = junk
        else:
            at = draw(st.integers(0, len(files[victim])))
            files[victim] = files[victim][:at] + junk + files[victim][at:]
    return files


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=dataset_files())
def test_load_any_file_bytes_gives_finite_views_or_data_error(tmp_path, files):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    try:
        views, _, _ = dataio.load_dataset(tmp_path, minmax=True)
    except DataError:
        return
    assert all(np.isfinite(v).all() for v in views.views)


# ---------------------------------------------------------------------------
# read_matrix against the per-cell float() oracle


def _read_outcome(reader, path):
    try:
        matrix = reader(path)
    except (FormatError, ParseError) as exc:
        return type(exc), str(exc)
    return matrix.shape, matrix.dtype, matrix.tobytes(), matrix.flags.writeable


ODD_CELLS = st.sampled_from(["+2", ".5", "1e+05", "1.", "-0", "inf", "nan", "1e400", "0x10", "", '"1"', "#1", "1 2", "1e"])
PAD = st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x1f", max_size=2)
ODD_CHARS = " \t\r\n\x00\x0b\x0c\x1c\x1d\x1e\x1f#\",_"


@st.composite
def csv_bytes(draw):
    """Rows of ``dataset_files`` cells (and, half the time, odd ones) padded
    with whitespace, ragged rows, blank and whitespace-only lines, any line
    end; then, half the time, odd characters or arbitrary bytes spliced in."""
    cell = draw(st.sampled_from([c for c, _ in FILE_CELLS.values()]))
    if draw(st.booleans()):
        cell = cell | ODD_CELLS
    padded = st.builds(lambda a, c, b: a + c + b, PAD, cell, PAD)
    width = draw(st.integers(1, 3))
    row = st.lists(padded, min_size=width, max_size=width).map(",".join)
    ragged = st.lists(padded, min_size=1, max_size=4).map(",".join)
    lines = draw(st.lists(row | row | ragged | PAD, max_size=5))
    data = (draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n"]))).encode()
    if draw(st.booleans()):
        junk = draw(st.text(alphabet=ODD_CHARS, min_size=1, max_size=3).map(str.encode) | st.binary(max_size=8))
        at = draw(st.integers(0, len(data)))
        data = data[:at] + junk + data[at:]
    return data


@settings(max_examples=500, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_bytes())
def test_read_matrix_matches_the_per_cell_oracle_on_any_bytes(tmp_path, data):
    path = tmp_path / "view1.csv"
    path.write_bytes(data)
    assert _read_outcome(dataio.read_matrix, path) == _read_outcome(loop_read_matrix, path)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,2\x0b3,4\n", ParseError),  # str.splitlines() would break these lines in two
        ("1,2\x0c3,4\n", ParseError),
        ("1,2\x1c3,4\n", ParseError),
        ("1,2\x1e3,4\n", ParseError),
        ("1e5\x1c,2\n3,4\n", ParseError),  # numpy strips \x1c-\x1f around a cell, float() does not
        ("1,\x1f2\n3,4\n", ParseError),
        ("\x1c1,2\x1f\n3,4\n", None),  # but a line's own strip takes them
        ("1,2 #c\n3,4\n", ParseError),  # '#' starts no comment
        ("#1,2\n3,4\n", ParseError),
        ("1,inf\n3,4\n", ParseError),  # numpy parses these; only the per-cell pass names them
        ("1,2\n-nan,4\n", ParseError),
        ("1e400,2\n3,4\n", ParseError),
        ("1,2\r\n\r\n 3 ,\t4\r\n", None),
        ("+2,.5\n1e+05,-0\n", None),
        ("5", None),
        ("1,2\n3\n", FormatError),
        ("1,2,\n", ParseError),
        ('"1",2\n', ParseError),
        ("0x10,2\n", ParseError),
    ],
)
def test_read_matrix_edge_cases_match_the_oracle(tmp_path, text, expected):
    path = tmp_path / "view1.csv"
    path.write_bytes(text.encode())
    outcome = _read_outcome(dataio.read_matrix, path)
    assert outcome == _read_outcome(loop_read_matrix, path)
    assert outcome[0] is expected if expected else type(outcome[0]) is tuple  # a shape: the file parsed
