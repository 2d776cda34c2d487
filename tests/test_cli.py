import argparse
import hashlib
import json
import multiprocessing
import os
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from icmvc import cli
from icmvc.cli import _add_train_flags, main
from icmvc.dataio import make_mask, read_matrix, write_matrix
from icmvc.errors import DivergenceError
from icmvc.metrics import MetricsReport
from icmvc.network import init_model, load_checkpoint
from icmvc.trainer import TrainConfig

FAST = ["--epochs", "4", "--dim", "16", "--embed-dim", "8", "--knn", "4"]


@pytest.fixture()
def dataset(tmp_path):
    data = tmp_path / "blobs"
    rc = main(["gen", "--n", "36", "--clusters", "3", "--dim", "4", "--sigma", "0.4", "--seed", "1", "--out", str(data)])
    assert rc == 0
    return data


def read_csv_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_five_files(dataset):
    names = sorted(p.name for p in dataset.iterdir())
    assert names == ["labels.csv", "manifest.json", "meta.json", "view1.csv", "view2.csv"]


def test_gen_deterministic(tmp_path):
    cmd = ["gen", "--n", "24", "--clusters", "2", "--dim", "3", "--sigma", "0.2", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(cmd + ["--out", str(a)]) == 0
    assert main(cmd + ["--out", str(b)]) == 0
    for name in ("view1.csv", "view2.csv", "labels.csv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_rejects_zero_clusters(tmp_path, capsys):
    for clusters in ("0", "-1"):
        rc = main(["gen", "--n", "10", "--clusters", clusters, "--dim", "3", "--sigma", "0.1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "cluster" in capsys.readouterr().err


def test_gen_size_beyond_memory_exits_3_and_writes_nothing(tmp_path, capsys):
    # numpy refuses an array of 10**15 rows before touching memory
    out = tmp_path / "g"
    assert main(["gen", "--n", str(10**15), "--clusters", "3", "--dim", "4", "--sigma", "0.5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_with_eta_writes_mask(tmp_path):
    out = tmp_path / "masked"
    rc = main(["gen", "--n", "20", "--clusters", "2", "--dim", "3", "--sigma", "0.2", "--seed", "2", "--eta", "0.5", "--out", str(out)])
    assert rc == 0
    assert (out / "mask.csv").exists()


def test_gen_over_an_older_dataset_leaves_none_of_its_files(tmp_path):
    out = tmp_path / "d"
    gen = ["gen", "--n", "20", "--clusters", "2", "--dim", "3", "--sigma", "0.2", "--out", str(out)]
    assert main(gen + ["--seed", "1", "--eta", "0.5", "--views", "3"]) == 0
    assert main(gen + ["--seed", "2"]) == 0
    written = ["labels.csv", "meta.json", "view1.csv", "view2.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(written + ["manifest.json"])
    assert sorted(json.loads((out / "manifest.json").read_text())["checksums"]) == written
    run = tmp_path / "run"
    assert main(["run", "--data", str(out), "--eta", "0.1", "--seed", "1", "--out", str(run)] + FAST) == 0
    assert json.loads((run / "manifest.json").read_text())["config"]["mask_source"] != "mask.csv"


def test_gen_refuses_a_mask_its_loader_rejects(tmp_path, capsys):
    # at --eta 1.0 both rows lose a view, and on these seeds they lose the same one
    out = tmp_path / "d"
    for seed in ("1", "2", "3", "4"):
        args = ["gen", "--n", "2", "--clusters", "1", "--dim", "2", "--sigma", "0.5", "--eta", "1.0", "--seed", seed]
        assert main(args + ["--out", str(out)]) == 3
        assert "has no observed instance" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# run


def test_run_outputs_and_metric_keys(dataset, tmp_path):
    out = tmp_path / "run"
    rc = main(["run", "--data", str(dataset), "--eta", "0.3", "--seed", "7", "--out", str(out)] + FAST)
    assert rc == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert set(payload) >= {"acc", "nmi", "ari"}
    assert (out / "history.csv").exists()
    assert (out / "labels.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == cli._blas_threads()
    labels = (out / "labels.csv").read_text().strip().splitlines()
    assert len(labels) == 36


def test_run_rerun_byte_identical(dataset, tmp_path):
    cmd = ["run", "--data", str(dataset), "--eta", "0.3", "--seed", "3"] + FAST
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(cmd + ["--out", str(a)]) == 0
    assert main(cmd + ["--out", str(b)]) == 0
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()


def test_run_manifest_checksums_only_what_the_run_wrote(dataset, tmp_path):
    out = tmp_path / "run"
    cmd = ["run", "--data", str(dataset), "--eta", "0.3", "--seed", "7", "--out", str(out)] + FAST
    assert main(cmd + ["--dump-embeddings"]) == 0
    assert main(cmd) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (out / "embeddings.csv").exists()
    assert sorted(manifest["checksums"]) == ["history.csv", "labels.csv", "metrics.json"]
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0


def test_run_ablate_zeroes_history_column(dataset, tmp_path):
    out = tmp_path / "noins"
    rc = main(["run", "--data", str(dataset), "--eta", "0.3", "--seed", "2", "--ablate", "no-ins", "--out", str(out)] + FAST)
    assert rc == 0
    header, rows = read_csv_rows(out / "history.csv")
    assert all(float(r["l_ins"]) == 0.0 for r in rows)
    assert json.loads((out / "metrics.json").read_text())["ablation"] == "no-ins"


@pytest.mark.parametrize("flag", ["--dim", "--embed-dim"])
def test_run_size_beyond_memory_exits_3_and_writes_nothing(dataset, tmp_path, capsys, flag):
    # numpy refuses a weight matrix of 10**15 columns before touching memory
    out = tmp_path / "o"
    assert main(["run", "--data", str(dataset), "--out", str(out), "--eta", "0.3"] + FAST + [flag, str(10**15)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "ablate"])
def test_out_naming_the_data_directory_exits_2_and_leaves_the_dataset(dataset, capsys, monkeypatch, command):
    before = {p.name: p.read_bytes() for p in dataset.iterdir()}
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kw: pytest.fail("the dataset was loaded"))
    rate = ["--etas", "0.3", "--seeds", "0"] if command == "sweep" else ["--eta", "0.3"]
    out = str(dataset / ".." / dataset.name)  # another spelling of the same directory
    assert main([command, "--data", str(dataset), "--out", out] + rate + FAST) == 2
    assert "is the --data directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in dataset.iterdir()} == before


def _refuse_out_case(dataset, monkeypatch, command):
    """The arguments of a ``command`` whose inputs must not be read, with every reader failing the test."""
    for name in ("synth_blobs", "load_dataset", "read_labels", "train"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail("an input was read or a model trained"))
    return {
        "gen": ["--n", "20", "--clusters", "2", "--dim", "3", "--sigma", "0.2"],
        "run": ["--data", str(dataset), "--eta", "0.3"] + FAST,
        "sweep": ["--data", str(dataset), "--etas", "0.3", "--seeds", "0"] + FAST,
        "ablate": ["--data", str(dataset), "--eta", "0.3", "--seeds", "0"] + FAST,
        "eval": ["--pred", str(dataset / "labels.csv"), "--truth", str(dataset / "labels.csv")],
    }[command]


@pytest.mark.parametrize("command", ["gen", "run", "sweep", "ablate", "eval"])
def test_out_naming_a_file_exits_2_before_reading_anything(dataset, tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "taken"
    out.write_bytes(b"not a directory\n")
    args = _refuse_out_case(dataset, monkeypatch, command)
    assert main([command, "--out", str(out)] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --out {out} is a file, not a directory\n"
    assert out.read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("command", ["gen", "run", "sweep", "ablate", "eval"])
def test_out_under_a_file_exits_2_before_reading_anything(dataset, tmp_path, capsys, monkeypatch, command):
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    out = taken / "sub" / "dir"
    args = _refuse_out_case(dataset, monkeypatch, command)
    assert main([command, "--out", str(out)] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --out {out} lies under the file {taken.resolve()}, not a directory\n"
    assert taken.read_bytes() == b"not a directory\n"


def test_run_missing_dataset_exits_3(tmp_path):
    rc = main(["run", "--data", str(tmp_path / "nope"), "--eta", "0.3", "--out", str(tmp_path / "o")] + FAST)
    assert rc == 3


def test_run_stray_view_file_exits_3(dataset, tmp_path):
    (dataset / "view_extra.csv").write_text("1.0,2.0\n")
    rc = main(["run", "--data", str(dataset), "--eta", "0.3", "--out", str(tmp_path / "o")] + FAST)
    assert rc == 3


@pytest.mark.parametrize("fault", ["gap", "repeat"])
@pytest.mark.parametrize("command", ["run", "baseline"])
def test_view_index_gap_or_repeat_exits_3(dataset, tmp_path, capsys, command, fault):
    if fault == "gap":  # view1.csv + view3.csv
        extra = "view3.csv"
        (dataset / "view2.csv").rename(dataset / extra)
    else:  # view1.csv + view01.csv + view2.csv: scored as three views before
        extra = "view01.csv"
        (dataset / extra).write_text((dataset / "view1.csv").read_text())
    if command == "baseline":
        args = ["baseline", "--data", str(dataset), "--kind", "concat", "--eta", "0.3", "--seed", "1"]
    else:
        args = ["run", "--data", str(dataset), "--eta", "0.3", "--out", str(tmp_path / "o")] + FAST
    assert main(args) == 3
    assert extra in capsys.readouterr().err


def test_run_non_finite_cell_exits_3(dataset, tmp_path):
    target = dataset / "view1.csv"
    lines = target.read_text().splitlines()
    lines[0] = "nan" + lines[0][lines[0].index(","):]
    target.write_text("\n".join(lines) + "\n")
    rc = main(["run", "--data", str(dataset), "--eta", "0.3", "--out", str(tmp_path / "o")] + FAST)
    assert rc == 3


def test_run_without_eta_or_mask_exits_2(dataset, tmp_path):
    rc = main(["run", "--data", str(dataset), "--out", str(tmp_path / "o")] + FAST)
    assert rc == 2


def test_run_divergence_exits_4(dataset, tmp_path):
    rc = main(
        ["run", "--data", str(dataset), "--eta", "0.3", "--seed", "1", "--tau-i", "1e-5", "--out", str(tmp_path / "o")]
        + FAST
    )
    assert rc == 4


def test_run_divergence_prints_only_its_error_line(tmp_path, capsys):
    data = tmp_path / "blobs"
    assert main(["gen", "--n", "120", "--clusters", "3", "--dim", "8", "--sigma", "0.5", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    run = ["run", "--data", str(data), "--eta", "0.3", "--lr", "1e300", "--epochs", "30", "--dim", "32", "--embed-dim", "16"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(run + ["--out", str(tmp_path / "o")])
    assert rc == 4
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite loss"), err


def test_run_uses_stored_mask(tmp_path):
    data = tmp_path / "masked"
    assert main(["gen", "--n", "24", "--clusters", "2", "--dim", "3", "--sigma", "0.2", "--seed", "2", "--eta", "0.4", "--out", str(data)]) == 0
    out = tmp_path / "run"
    rc = main(["run", "--data", str(data), "--seed", "0", "--out", str(out)] + FAST)
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mask_source"] == "mask.csv"


def test_run_ignores_what_missing_rows_hold(tmp_path):
    data = tmp_path / "masked"
    assert main(["gen", "--n", "36", "--clusters", "3", "--dim", "4", "--sigma", "0.4", "--seed", "1", "--eta", "0.4", "--out", str(data)]) == 0
    missing = ~read_matrix(data / "mask.csv").astype(bool)
    histories = set()
    for placeholder in (None, 0.0, 1e3):  # None keeps the real values gen wrote
        if placeholder is not None:
            for v in (0, 1):
                view = read_matrix(data / f"view{v + 1}.csv")
                view[missing[:, v]] = placeholder
                write_matrix(data / f"view{v + 1}.csv", view)
        out = tmp_path / f"run{placeholder}"
        assert main(["run", "--data", str(data), "--seed", "0", "--out", str(out)] + FAST) == 0
        histories.add((out / "history.csv").read_bytes())
    assert len(histories) == 1


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_mask_column_with_no_observed_instance_exits_3_before_training(dataset, tmp_path, capsys, monkeypatch, command):
    (dataset / "mask.csv").write_text("1,0\n" * 36)
    monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("a cell trained"))
    assert main([command, "--data", str(dataset), "--out", str(tmp_path / "o")] + FAST) == 3
    assert "view 2 has no observed instance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, named",
    [
        ("mask.csv", "1,1\n" * 35, "mask.csv: shape (35, 2), expected (36, 2)"),
        ("mask.csv", "1,1\n" * 35 + "2,1\n", "mask.csv: entries must be 0 or 1"),
        ("labels.csv", "0\n" * 35, "labels.csv: 35 rows, expected 36"),
        ("labels.csv", "0,1\n" * 36, "labels.csv: expected one label per line"),
    ],
)
def test_bad_mask_or_labels_file_exits_3_before_training(dataset, tmp_path, capsys, monkeypatch, name, text, named):
    (dataset / name).write_text(text)
    monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("a model trained"))
    assert main(["run", "--data", str(dataset), "--out", str(tmp_path / "o")] + FAST) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_mask_leaving_a_view_one_observed_row_exits_3(dataset, tmp_path, capsys):
    (dataset / "mask.csv").write_text("1,1\n" + "1,0\n" * 35)
    assert main(["run", "--data", str(dataset), "--out", str(tmp_path / "o")] + FAST) == 3
    assert "bandwidth heuristic needs at least 2 observed instances" in capsys.readouterr().err


def test_run_env_seed_and_flag_override(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("ICMVC_SEED", "11")
    out_env = tmp_path / "env"
    assert main(["run", "--data", str(dataset), "--eta", "0.3", "--out", str(out_env)] + FAST) == 0
    assert json.loads((out_env / "metrics.json").read_text())["seed"] == 11
    out_flag = tmp_path / "flag"
    assert main(["run", "--data", str(dataset), "--eta", "0.3", "--seed", "4", "--out", str(out_flag)] + FAST) == 0
    assert json.loads((out_flag / "metrics.json").read_text())["seed"] == 4


def test_run_config_file_precedence(dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "hidden_dim": 16, "embed_dim": 8, "knn_k": 4, "seed": 6}))
    out = tmp_path / "from-file"
    assert main(["run", "--data", str(dataset), "--eta", "0.3", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "history.csv")
    assert len(rows) == 3  # epochs from file
    assert json.loads((out / "metrics.json").read_text())["seed"] == 6
    out2 = tmp_path / "flag-wins"
    assert main(["run", "--data", str(dataset), "--eta", "0.3", "--config", str(cfg), "--epochs", "2", "--out", str(out2)]) == 0
    _, rows2 = read_csv_rows(out2 / "history.csv")
    assert len(rows2) == 2


def test_config_file_eta_applies_unless_eta_is_given(dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta": 0.5}))
    run = ["run", "--data", str(dataset), "--seed", "2"] + FAST
    assert main(run + ["--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert main(run + ["--config", str(cfg), "--eta", "0.1", "--out", str(tmp_path / "flag")]) == 0
    assert main(run + ["--eta", "0.5", "--out", str(tmp_path / "same")]) == 0
    assert json.loads((tmp_path / "file" / "metrics.json").read_text())["eta"] == 0.5
    assert json.loads((tmp_path / "flag" / "metrics.json").read_text())["eta"] == 0.1
    for name in ("history.csv", "labels.csv"):  # the file's rate drew the same mask as the flag's
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "same" / name).read_bytes()


def test_config_file_naming_a_directory_exits_2(dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("a model trained"))
    args = ["run", "--data", str(dataset), "--eta", "0.3", "--config", str(tmp_path), "--out", str(tmp_path / "o")]
    assert main(args + FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1


def test_config_file_null_bandwidth_is_the_median_heuristic(dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bandwidth": None}))
    run = ["run", "--data", str(dataset), "--eta", "0.3", "--seed", "1"] + FAST
    assert main(run + ["--config", str(cfg), "--out", str(tmp_path / "null")]) == 0
    assert main(run + ["--out", str(tmp_path / "default")]) == 0
    assert (tmp_path / "null" / "history.csv").read_bytes() == (tmp_path / "default" / "history.csv").read_bytes()


def test_training_flags_store_into_config_fields():
    parser = argparse.ArgumentParser()
    _add_train_flags(parser)
    dests = {action.dest for action in parser._actions} - {"help", "config", "no_scale"}
    assert dests and dests <= {f.name for f in fields(TrainConfig)}


def test_every_config_field_is_set_by_a_run_flag():
    # the reverse inclusion: a field no flag sets is a knob only a config file can turn
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in subparsers.choices["run"]._actions}
    assert {f.name for f in fields(TrainConfig)} <= dests


@pytest.mark.parametrize(
    "key, value",
    [
        ("transfer_rule", "copy"), ("target_interval", 1), ("kmeans_restarts", 20),
        ("include_self", True), ("use_ins", False), ("use_clu", False), ("use_hg", False),
    ],
)
def test_run_config_file_with_removed_key_exits_2(dataset, tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = main(["run", "--data", str(dataset), "--eta", "0.3", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_run_config_file_names_an_ablation(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    run = ["run", "--data", str(dataset), "--eta", "0.3", "--seed", "2", "--config", str(cfg)] + FAST
    cfg.write_text(json.dumps({"ablation": "custom"}))
    assert main(run + ["--out", str(tmp_path / "bad")]) == 2
    assert "ablation" in capsys.readouterr().err
    cfg.write_text(json.dumps({"ablation": "no-hg"}))
    out = tmp_path / "nohg"
    assert main(run + ["--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text())["ablation"] == "no-hg"
    _, rows = read_csv_rows(out / "history.csv")
    assert rows and all(float(r["l_hg"]) == 0.0 for r in rows)


def test_run_ablate_full_overrides_a_config_file(dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ablation": "no-hg"}))
    out = tmp_path / "full"
    run = ["run", "--data", str(dataset), "--eta", "0.3", "--seed", "2", "--config", str(cfg), "--ablate", "full"]
    assert main(run + ["--out", str(out)] + FAST) == 0
    assert json.loads((out / "metrics.json").read_text())["ablation"] == "full"
    _, rows = read_csv_rows(out / "history.csv")
    assert rows and all(float(r["l_hg"]) != 0.0 for r in rows)


@pytest.mark.parametrize(
    "args, config, named",
    [
        (["sweep", "--seeds", "1,x"], None, "'x'"),
        (["sweep", "--etas", "0.3,abc"], None, "'abc'"),
        (["ablate", "--eta", "0.3", "--seeds", "1,y"], None, "'y'"),
        (["run", "--eta", "0.3"], 5, "JSON object"),
        (["run", "--eta", "0.3"], {"epochs": "10"}, "'epochs'"),
        (["run", "--eta", "0.3"], {"knn_k": 2.5}, "'knn_k'"),
        (["run"], {"eta": "x"}, "'eta'"),
        (["run"], {"eta": True}, "'eta'"),
    ],
)
def test_malformed_list_flag_or_config_value_exits_2(dataset, tmp_path, capsys, args, config, named):
    args = args + ["--data", str(dataset), "--out", str(tmp_path / "o")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, env_seed, config, named",
    [
        ("gen", ["--seed", "-1"], None, None, "--seed"),
        ("run", ["--seed", "-1"], None, None, "--seed"),
        ("baseline", ["--seed", "-2"], None, None, "--seed"),
        ("sweep", ["--seeds", "-1"], None, None, "--seeds"),
        ("ablate", ["--seeds", "1,-2"], None, None, "--seeds"),
        ("run", [], None, {"seed": -1}, "'seed'"),
        ("run", [], "-3", None, "ICMVC_SEED"),
        ("run", ["--lr", "nan"], None, None, "lr"),
        ("run", ["--tau-i", "inf"], None, None, "tau_instance"),
        ("run", ["--embed-dim", "0"], None, None, "embed_dim"),
        ("run", ["--dim", "0"], None, None, "hidden_dim"),
        ("run", ["--bandwidth", "nan"], None, None, "bandwidth"),
        ("gen", ["--views", "0"], None, None, "view"),
        ("gen", ["--dim", "0"], None, None, "dimension"),
        ("gen", ["--sigma", "nan"], None, None, "noise_sigma"),
        ("sweep", ["--etas", ","], None, None, "--etas"),
        ("ablate", ["--seeds", ","], None, None, "--seeds"),
        ("sweep", ["--etas", ""], None, None, "--etas"),
        ("sweep", ["--seeds", ""], None, None, "--seeds"),
        ("ablate", ["--seeds", ""], None, None, "--seeds"),
        ("run", [], "abc", None, "ICMVC_SEED"),
        ("gen", ["--views", "1", "--eta", "0.3"], None, None, "2 views"),
    ],
)
def test_out_of_domain_argument_exits_2(dataset, tmp_path, capsys, monkeypatch, command, extra, env_seed, config, named):
    out = ["--out", str(tmp_path / "o")]
    base = {
        "gen": ["--n", "20", "--clusters", "2", "--dim", "3", "--sigma", "0.2"] + out,
        "run": ["--data", str(dataset), "--eta", "0.3"] + out + FAST,
        "sweep": ["--data", str(dataset), "--etas", "0.3", "--seeds", "1"] + out + FAST,
        "ablate": ["--data", str(dataset), "--eta", "0.3", "--seeds", "1"] + out + FAST,
        "baseline": ["--data", str(dataset), "--kind", "concat", "--eta", "0.3"],
    }[command]
    monkeypatch.delenv("ICMVC_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("ICMVC_SEED", env_seed)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        base += ["--config", str(cfg)]
    assert main([command] + base + extra) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_and_baseline_count_distinct_labels(dataset, tmp_path):
    labels = dataset / "labels.csv"
    labels.write_text("".join(f"{20 * int(v)}\n" for v in labels.read_text().split()))  # 0/20/40
    out = tmp_path / "sparse"
    assert main(["run", "--data", str(dataset), "--eta", "0.3", "--seed", "1", "--out", str(out)] + FAST) == 0
    assert {int(v) for v in (out / "labels.csv").read_text().split()} <= {0, 1, 2}
    assert main(["baseline", "--data", str(dataset), "--kind", "concat", "--eta", "0.3", "--seed", "1"]) == 0


@pytest.mark.parametrize("command", ["run", "sweep", "ablate", "baseline"])
def test_single_label_dataset_exits_3(dataset, tmp_path, capsys, command):
    labels = dataset / "labels.csv"
    labels.write_text("0\n" * len(labels.read_text().split()))
    args = [command, "--data", str(dataset), "--eta", "0.3"]
    if command == "sweep":
        args = [command, "--data", str(dataset), "--etas", "0.3", "--seeds", "1"]
    if command == "baseline":
        args += ["--kind", "concat"]
    else:
        args += ["--out", str(tmp_path / "o")] + FAST
    assert main(args) == 3
    assert "labels.csv" in capsys.readouterr().err


@pytest.mark.parametrize("n_views", [1, 3])
@pytest.mark.parametrize("command", ["run", "sweep", "ablate"])
def test_training_on_other_than_two_views_exits_3(tmp_path, capsys, command, n_views):
    data = tmp_path / "views"
    gen = ["gen", "--n", "36", "--views", str(n_views), "--clusters", "3", "--dim", "4", "--sigma", "0.4", "--seed", "1"]
    assert main(gen + ["--out", str(data)]) == 0
    capsys.readouterr()
    if command == "sweep":
        args = [command, "--data", str(data), "--etas", "0", "--seeds", "1"]
    else:
        args = [command, "--data", str(data), "--eta", "0"]
    assert main(args + ["--out", str(tmp_path / "o")] + FAST) == 3
    assert f"the dataset has {n_views}" in capsys.readouterr().err
    if n_views == 3:  # the k-means baselines take any view count
        assert main(["baseline", "--data", str(data), "--kind", "concat", "--eta", "0.3", "--seed", "1"]) == 0


def test_run_save_model_checksums_a_checkpoint_that_loads(dataset, tmp_path, monkeypatch):
    trained = []

    def train(*args, **kw):
        trained.append(real_train(*args, **kw))
        return trained[-1]

    real_train = cli.train
    monkeypatch.setattr(cli, "train", train)
    out = tmp_path / "model"
    assert main(["run", "--data", str(dataset), "--eta", "0.3", "--seed", "1", "--save-model", "--out", str(out)] + FAST) == 0
    checksums = json.loads((out / "manifest.json").read_text())["checksums"]
    names = sorted(str(p.relative_to(out)) for p in (out / "checkpoint").iterdir())
    assert names and set(names) <= set(checksums)
    for name, digest in checksums.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    fresh = init_model([4, 4], 3, hidden_dim=16, embed_dim=8, gcn_layers=2, seed=99)
    load_checkpoint(fresh, out / "checkpoint")
    restored = fresh.named_parameters()
    assert len(restored) == len(trained[0].params.named_parameters())
    for (name, node), (_, want) in zip(restored, trained[0].params.named_parameters()):
        np.testing.assert_array_equal(node.value, want.value, err_msg=name)


def test_run_dump_embeddings_shape(dataset, tmp_path):
    out = tmp_path / "emb"
    rc = main(["run", "--data", str(dataset), "--eta", "0.3", "--seed", "1", "--dump-embeddings", "--out", str(out)] + FAST)
    assert rc == 0
    rows = (out / "embeddings.csv").read_text().strip().splitlines()
    assert len(rows) == 36
    assert len(rows[0].split(",")) == 16


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid_and_aggregates(dataset, tmp_path):
    out = tmp_path / "sweep"
    rc = main(
        ["sweep", "--data", str(dataset), "--out", str(out), "--etas", "0,0.3", "--seeds", "1,2"] + FAST
    )
    assert rc == 0
    header, rows = read_csv_rows(out / "sweep.csv")
    cells = [r for r in rows if r["row_type"] == "cell"]
    aggregates = [r for r in rows if r["row_type"] == "aggregate"]
    assert len(cells) == 4 and len(aggregates) == 2
    for agg in aggregates:
        eta = agg["eta"]
        members = [float(c["acc"]) for c in cells if c["eta"] == eta]
        assert abs(float(agg["acc_mean"]) - sum(members) / len(members)) < 1e-12


def test_sweep_eta_zero_matches_plain_run(dataset, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--data", str(dataset), "--out", str(out), "--etas", "0", "--seeds", "5"] + FAST)
    assert rc == 0
    _, rows = read_csv_rows(out / "sweep.csv")
    cell = next(r for r in rows if r["row_type"] == "cell")
    run_out = tmp_path / "run"
    assert main(["run", "--data", str(dataset), "--eta", "0", "--seed", "5", "--out", str(run_out)] + FAST) == 0
    payload = json.loads((run_out / "metrics.json").read_text())
    assert float(cell["acc"]) == payload["acc"]
    assert float(cell["nmi"]) == payload["nmi"]


def test_sweep_rerun_byte_identical_in_grid_order(dataset, tmp_path):
    cmd = ["sweep", "--data", str(dataset), "--etas", "0.3,0", "--seeds", "2,1"] + FAST
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(cmd + ["--out", str(a)]) == 0
    assert main(cmd + ["--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    _, rows = read_csv_rows(a / "sweep.csv")
    cells = [(r["eta"], r["seed"]) for r in rows if r["row_type"] == "cell"]
    assert cells == [("0.3", "2"), ("0.3", "1"), ("0.0", "2"), ("0.0", "1")]


def test_grid_cells_train_without_per_epoch_scores(dataset, tmp_path, monkeypatch):
    # calls are logged to a file, which forked grid workers append to as well
    log = tmp_path / "train-calls"
    real_train = cli.train

    def train(*args, **kw):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{kw.get('labels')}\n")
        return real_train(*args, **kw)

    monkeypatch.setattr(cli, "train", train)
    assert main(["sweep", "--data", str(dataset), "--etas", "0.3", "--seeds", "1", "--out", str(tmp_path / "s")] + FAST) == 0
    assert main(["ablate", "--data", str(dataset), "--eta", "0.3", "--seeds", "1", "--out", str(tmp_path / "a")] + FAST) == 0
    assert log.read_text().splitlines() == ["None"] * 5


def test_sweep_checks_every_rate_before_training(dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("a cell trained"))
    args = ["sweep", "--data", str(dataset), "--out", str(tmp_path / "o"), "--etas", "0.3,1.5", "--seeds", "1"] + FAST
    assert main(args) == 2
    assert "1.5" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_sweep_refuses_a_dataset_with_mask_csv(tmp_path, capsys, monkeypatch):
    # load_dataset zero-fills the rows mask.csv marks missing; --etas masks
    # would count those zeros as observed features
    data = tmp_path / "masked"
    gen = ["gen", "--n", "36", "--clusters", "3", "--dim", "4", "--sigma", "0.4", "--seed", "1", "--eta", "0.5"]
    assert main(gen + ["--out", str(data)]) == 0
    monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("a cell trained"))
    args = ["sweep", "--data", str(data), "--out", str(tmp_path / "o"), "--etas", "0", "--seeds", "1"] + FAST
    assert main(args) == 2
    assert "mask.csv" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "ablate"])
def test_grid_seed_flag_reads_as_seeds(dataset, tmp_path, monkeypatch, command):
    # argparse reads --seed as an abbreviation of --seeds, so every cell trains seed 3
    log = tmp_path / "train-seeds"
    real_train = cli.train

    def train(views, mask, n_clusters, config, **kw):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{config.seed}\n")
        return real_train(views, mask, n_clusters, config, **kw)

    monkeypatch.setattr(cli, "train", train)
    rate = {"sweep": ["--etas", "0"], "ablate": ["--eta", "0"]}[command]
    assert main([command, "--data", str(dataset), "--out", str(tmp_path / "o"), "--seed", "3"] + rate + FAST) == 0
    assert log.read_text().splitlines() == ["3"] * {"sweep": 1, "ablate": 4}[command]
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]["seeds"] == [3]


@pytest.mark.parametrize("command", ["sweep", "ablate"])
def test_grid_manifest_has_no_seed_and_a_peak_rss(dataset, tmp_path, monkeypatch, command):
    monkeypatch.setenv("ICMVC_SEED", "3")  # no cell trains it: each trains one of --seeds
    rate = {"sweep": ["--etas", "0"], "ablate": ["--eta", "0"]}[command]
    assert main([command, "--data", str(dataset), "--out", str(tmp_path / "o"), "--seeds", "1"] + rate + FAST) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert "seed" not in manifest["config"] and manifest["config"]["seeds"] == [1]
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0


def test_grid_manifests_name_the_mask_source(dataset, tmp_path):
    masked = tmp_path / "masked"
    gen = ["gen", "--n", "36", "--clusters", "3", "--dim", "4", "--sigma", "0.4", "--seed", "1", "--eta", "0.3"]
    assert main(gen + ["--out", str(masked)]) == 0
    runs = [
        ("mask.csv", ["ablate", "--data", str(masked), "--eta", "0.7"]),  # every cell trains on mask.csv
        ("pcg64", ["ablate", "--data", str(dataset), "--eta", "0.3"]),
        ("pcg64", ["sweep", "--data", str(dataset), "--etas", "0.3"]),
    ]
    for i, (source, args) in enumerate(runs):
        out = tmp_path / f"o{i}"
        assert main(args + ["--seeds", "1", "--out", str(out)] + FAST) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["mask_source"] == source


def test_failed_cells_are_reported_and_exit_1(dataset, tmp_path, capsys, monkeypatch):
    real_train = cli.train

    def train(views, mask, n_clusters, config, **kw):
        if not mask.all() or config.ablation == "no-ins":  # every cell at rate 0.3, and the no-ins mode
            raise DivergenceError("forced")
        return real_train(views, mask, n_clusters, config, **kw)

    monkeypatch.setattr(cli, "train", train)
    capsys.readouterr()
    assert main(["sweep", "--data", str(dataset), "--out", str(tmp_path / "s"), "--etas", "0,0.3", "--seeds", "1"] + FAST) == 1
    captured = capsys.readouterr()
    assert "eta=0.30 acc_mean=n/a (0 ok)" in captured.out.splitlines()
    assert captured.err == "1 cells failed\n"
    assert "aggregate,0.3,,ok=0,,,,,,,,," in (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert main(["ablate", "--data", str(dataset), "--out", str(tmp_path / "a"), "--eta", "0", "--seeds", "1,2"] + FAST) == 1
    captured = capsys.readouterr()
    assert captured.err == "2 ablation cells failed\n"
    _, rows = read_csv_rows(tmp_path / "a" / "ablation.csv")
    assert [r["config"] for r in rows] == ["full", "no-hg", "no-hg-no-clu"]
    assert len(captured.out.splitlines()) == 3


@pytest.fixture()
def worker_path(monkeypatch):
    """Two usable cores, so that a grid of two or more cells runs in forked workers."""
    if "fork" not in multiprocessing.get_all_start_methods() or cli._openblas("set") is None:
        pytest.skip("grid cells run in-process here: no fork start method or no OpenBLAS thread setter")
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)


def test_dead_worker_fails_its_cells_and_exits_1(dataset, tmp_path, capsys, monkeypatch, worker_path):
    test_process = os.getpid()
    real_train = cli.train

    def train(views, mask, n_clusters, config, **kw):
        if config.seed == 2:
            if os.getpid() == test_process:
                pytest.fail("a cell trained in the test process")
            os._exit(9)
        return real_train(views, mask, n_clusters, config, **kw)

    monkeypatch.setattr(cli, "train", train)
    out = tmp_path / "s"
    rc = main(["sweep", "--data", str(dataset), "--out", str(out), "--etas", "0.3,0", "--seeds", "1,2"] + FAST)
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    _, rows = read_csv_rows(out / "sweep.csv")
    statuses = {(r["eta"], r["seed"]): r["status"] for r in rows if r["row_type"] == "cell"}
    assert statuses[("0.3", "2")] == statuses[("0.0", "2")] == "error:BrokenProcessPool"
    assert set(statuses.values()) <= {"ok", "error:BrokenProcessPool"}
    assert multiprocessing.active_children() == []


def test_worker_and_in_process_grids_write_identical_files(dataset, tmp_path, monkeypatch, worker_path):
    commands = {
        "sweep.csv": ["sweep", "--data", str(dataset), "--etas", "0.3,0", "--seeds", "2,1"] + FAST,
        "ablation.csv": ["ablate", "--data", str(dataset), "--eta", "0.3", "--seeds", "1,2"] + FAST,
    }
    for name, cmd in commands.items():
        assert main(cmd + ["--out", str(tmp_path / "workers")]) == 0
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
        assert main(cmd + ["--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        assert (tmp_path / "workers" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
        manifests = [json.loads((tmp_path / side / "manifest.json").read_text()) for side in ("workers", "serial")]
        assert [(m["workers"], m["blas_threads"]) for m in manifests] == [(2, 1), (1, cli._blas_threads())]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["run", "sweep", "ablate"])
@pytest.mark.parametrize("knn", ["36", "50"])
def test_knn_of_n_or_more_exits_2_before_training(dataset, tmp_path, capsys, monkeypatch, command, knn):
    monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("a cell trained"))
    extra = {"run": ["--eta", "0.3"], "sweep": ["--etas", "0.3", "--seeds", "1,2"], "ablate": ["--eta", "0.3", "--seeds", "1"]}
    args = [command, "--data", str(dataset), "--out", str(tmp_path / "o")] + FAST + ["--knn", knn] + extra[command]
    assert main(args) == 2
    assert "--knn" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "ablate"])
def test_knn_above_a_cells_observed_rows_exits_2_before_any_cell_trains(tmp_path, capsys, monkeypatch, command):
    # at eta 0.9 each view of 36 instances keeps fewer than 31 rows; at eta 0 all 36
    assert make_mask(36, 2, 0.9, 1).sum(axis=0).max() <= 30
    data = tmp_path / "blobs"
    gen = ["gen", "--n", "36", "--clusters", "3", "--dim", "4", "--sigma", "0.4", "--seed", "1", "--out", str(data)]
    assert main(gen + (["--eta", "0.9"] if command == "ablate" else [])) == 0
    monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("a cell trained"))
    extra = {"sweep": ["--etas", "0,0.9", "--seeds", "1"], "ablate": ["--seeds", "1"]}[command]
    out = tmp_path / "o"
    assert main([command, "--data", str(data), "--out", str(out)] + FAST + ["--knn", "30"] + extra) == 2
    err = capsys.readouterr().err
    assert ("eta 0.9, seed 1, view" if command == "sweep" else "mask.csv, seed 1, view") in err
    assert "got 30" in err and not out.exists()


def test_run_knn_above_a_views_observed_rows_exits_2_before_training(dataset, tmp_path, capsys, monkeypatch):
    # at eta 0.9 each view keeps fewer than 31 of the 36 rows, so --knn 30 < N is still too large
    monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("run trained"))
    out = tmp_path / "o"
    assert main(["run", "--data", str(dataset), "--out", str(out), "--eta", "0.9", "--seed", "1"] + FAST + ["--knn", "30"]) == 2
    err = capsys.readouterr().err
    assert "eta 0.9, seed 1, view 0: --knn must lie in [1, 22], got 30" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# ablate


def test_ablate_four_rows(dataset, tmp_path):
    out = tmp_path / "abl"
    rc = main(["ablate", "--data", str(dataset), "--out", str(out), "--eta", "0.3", "--seeds", "1,2"] + FAST)
    assert rc == 0
    _, rows = read_csv_rows(out / "ablation.csv")
    assert [r["config"] for r in rows] == ["full", "no-ins", "no-hg", "no-hg-no-clu"]


@pytest.mark.parametrize("full_acc, warns", [(0.57, True), (0.59, False)])
def test_ablate_warns_when_full_falls_behind_no_ins(dataset, tmp_path, capsys, monkeypatch, full_acc, warns):
    def grid(views, labels, n_clusters, stored_mask, tasks):
        accs = {"full": full_acc, "no-ins": 0.6}
        reports = [MetricsReport(acc=accs.get(cell.ablation, 0.5), nmi=0.5, ari=0.5) for _, cell in tasks]
        return [("ok", report) for report in reports], {"workers": 1, "blas_threads": None}

    monkeypatch.setattr(cli, "_run_grid", grid)
    assert main(["ablate", "--data", str(dataset), "--out", str(tmp_path / "a"), "--eta", "0.3", "--seeds", "1"]) == 0
    warning = "warning: full model mean ACC fell more than 0.02 below the no-ins ablation\n"
    assert capsys.readouterr().err == (warning if warns else "")


def test_ablate_full_row_matches_plain_run(dataset, tmp_path):
    out = tmp_path / "abl"
    rc = main(["ablate", "--data", str(dataset), "--out", str(out), "--eta", "0.3", "--seeds", "9"] + FAST)
    assert rc == 0
    _, rows = read_csv_rows(out / "ablation.csv")
    full_row = next(r for r in rows if r["config"] == "full")
    run_out = tmp_path / "run"
    assert main(["run", "--data", str(dataset), "--eta", "0.3", "--seed", "9", "--out", str(run_out)] + FAST) == 0
    payload = json.loads((run_out / "metrics.json").read_text())
    assert float(full_row["acc_mean"]) == payload["acc"]
    assert float(full_row["acc_std"]) == 0.0


# ---------------------------------------------------------------------------
# eval


def test_eval_identical_files(dataset, tmp_path, capsys):
    rc = main(["eval", "--pred", str(dataset / "labels.csv"), "--truth", str(dataset / "labels.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "acc=1.000000" in out and "nmi=1.000000" in out and "ari=1.000000" in out


def test_eval_permuted_ids_scores_one(dataset, tmp_path, capsys):
    truth = [int(x) for x in (dataset / "labels.csv").read_text().split()]
    permuted = [(t + 1) % 3 for t in truth]
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("\n".join(str(v) for v in permuted) + "\n")
    rc = main(["eval", "--pred", str(pred_file), "--truth", str(dataset / "labels.csv")])
    assert rc == 0
    assert "acc=1.000000" in capsys.readouterr().out


def test_eval_length_mismatch_exits_3(dataset, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("0\n1\n")
    rc = main(["eval", "--pred", str(short), "--truth", str(dataset / "labels.csv")])
    assert rc == 3


@pytest.mark.parametrize("truth", ["0\n-1\n1\n", "0\n0.5\n1\n", "0\n9007199254740993\n1\n"])
def test_eval_negative_or_fractional_label_exits_3(tmp_path, truth):
    truth_file, pred_file = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth_file.write_text(truth)
    pred_file.write_text("0\n1\n1\n")
    assert main(["eval", "--pred", str(pred_file), "--truth", str(truth_file)]) == 3
    assert main(["eval", "--pred", str(truth_file), "--truth", str(pred_file)]) == 3


def test_eval_far_apart_label_values_exit_0(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n10000000\n")
    assert main(["eval", "--pred", str(labels), "--truth", str(labels)]) == 0
    assert "acc=1.000000" in capsys.readouterr().out


LABEL_LINE = st.one_of(
    st.integers(-3, 3).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "0.5", "1,2", "1_0", "x"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
LABEL_FILE = st.lists(LABEL_LINE, max_size=6).map("\n".join)


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pred=LABEL_FILE, truth=LABEL_FILE)
def test_eval_any_label_text_exits_cleanly(tmp_path, capsys, pred, truth):
    pred_file, truth_file = tmp_path / "pred.csv", tmp_path / "truth.csv"
    pred_file.write_text(pred, encoding="utf-8")
    truth_file.write_text(truth, encoding="utf-8")
    capsys.readouterr()
    rc = main(["eval", "--pred", str(pred_file), "--truth", str(truth_file)])
    assert rc in (0, 2, 3)
    if rc == 0:
        scores = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert 0.0 <= float(scores["acc"]) <= 1.0 and 0.0 <= float(scores["nmi"]) <= 1.0
        assert -1.0 <= float(scores["ari"]) <= 1.0  # chance-adjusted, so it can go below 0


def test_eval_writes_report(dataset, tmp_path):
    out = tmp_path / "report"
    rc = main(["eval", "--pred", str(dataset / "labels.csv"), "--truth", str(dataset / "labels.csv"), "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "metrics.json").read_text()) == {"acc": 1.0, "nmi": 1.0, "ari": 1.0}


@pytest.mark.parametrize("flag", ["--pred", "--truth", "both"])
def test_eval_out_naming_a_label_file_directory_exits_2_and_leaves_it(dataset, tmp_path, capsys, flag):
    outside = tmp_path / "outside.csv"
    outside.write_bytes((dataset / "labels.csv").read_bytes())
    files = {"--pred": dataset / "labels.csv", "--truth": dataset / "labels.csv"}
    if flag != "both":
        files["--truth" if flag == "--pred" else "--pred"] = outside
    before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in dataset.iterdir()}
    out = str(dataset / ".." / dataset.name)  # another spelling of the same directory
    assert main(["eval", "--pred", str(files["--pred"]), "--truth", str(files["--truth"]), "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert "is the directory of --pred or --truth" in captured.err
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in dataset.iterdir()} == before


# ---------------------------------------------------------------------------
# baseline command


def test_baseline_command(dataset, capsys):
    rc = main(["baseline", "--data", str(dataset), "--kind", "concat", "--eta", "0.3", "--seed", "1"])
    assert rc == 0
    assert "concat: acc=" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "baseline"])
def test_a_bad_seed_exits_2_before_the_data_is_read(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("ICMVC_SEED", "abc")
    args = ["--data", str(tmp_path / "missing"), "--eta", "0.3"]
    args += ["--kind", "bsv"] if command == "baseline" else ["--out", str(tmp_path / "o")]
    assert main([command] + args) == 2
    assert "ICMVC_SEED" in capsys.readouterr().err


def test_eval_matches_library_on_fixture_pair(tmp_path, capsys):
    from icmvc.metrics import evaluate

    truth = [0, 0, 1, 1]
    pred = [0, 1, 1, 1]
    truth_file, pred_file = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth_file.write_text("\n".join(map(str, truth)) + "\n")
    pred_file.write_text("\n".join(map(str, pred)) + "\n")
    rc = main(["eval", "--pred", str(pred_file), "--truth", str(truth_file)])
    assert rc == 0
    out = capsys.readouterr().out
    report = evaluate(pred, truth)
    assert f"acc={report.acc:.6f}" in out
    assert f"nmi={report.nmi:.6f}" in out
    assert f"ari={report.ari:.6f}" in out
    assert report.acc == 0.75
