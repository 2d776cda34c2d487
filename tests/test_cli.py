import json
from pathlib import Path

import numpy as np
import pytest

from icmvc.cli import main

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


def test_gen_rejects_zero_clusters(tmp_path):
    rc = main(["gen", "--n", "10", "--clusters", "0", "--dim", "3", "--sigma", "0.1", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_gen_with_eta_writes_mask(tmp_path):
    out = tmp_path / "masked"
    rc = main(["gen", "--n", "20", "--clusters", "2", "--dim", "3", "--sigma", "0.2", "--seed", "2", "--eta", "0.5", "--out", str(out)])
    assert rc == 0
    assert (out / "mask.csv").exists()


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
    assert (out / "manifest.json").exists()
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


def test_run_ablate_zeroes_history_column(dataset, tmp_path):
    out = tmp_path / "noins"
    rc = main(["run", "--data", str(dataset), "--eta", "0.3", "--seed", "2", "--ablate", "no-ins", "--out", str(out)] + FAST)
    assert rc == 0
    header, rows = read_csv_rows(out / "history.csv")
    assert all(float(r["l_ins"]) == 0.0 for r in rows)
    assert json.loads((out / "metrics.json").read_text())["ablation"] == "no-ins"


def test_run_missing_dataset_exits_3(tmp_path):
    rc = main(["run", "--data", str(tmp_path / "nope"), "--eta", "0.3", "--out", str(tmp_path / "o")] + FAST)
    assert rc == 3


def test_run_stray_view_file_exits_3(dataset, tmp_path):
    (dataset / "view_extra.csv").write_text("1.0,2.0\n")
    rc = main(["run", "--data", str(dataset), "--eta", "0.3", "--out", str(tmp_path / "o")] + FAST)
    assert rc == 3


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
    with np.errstate(over="ignore"):
        rc = main(
            ["run", "--data", str(dataset), "--eta", "0.3", "--seed", "1", "--tau-i", "1e-5", "--out", str(tmp_path / "o")]
            + FAST
        )
    assert rc == 4


def test_run_uses_stored_mask(tmp_path):
    data = tmp_path / "masked"
    assert main(["gen", "--n", "24", "--clusters", "2", "--dim", "3", "--sigma", "0.2", "--seed", "2", "--eta", "0.4", "--out", str(data)]) == 0
    out = tmp_path / "run"
    rc = main(["run", "--data", str(data), "--seed", "0", "--out", str(out)] + FAST)
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mask_source"] == "mask.csv"


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
        ["sweep", "--data", str(dataset), "--out", str(out), "--etas", "0,0.3", "--seeds", "1,2", "--jobs", "2"] + FAST
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
    rc = main(["sweep", "--data", str(dataset), "--out", str(out), "--etas", "0", "--seeds", "5", "--jobs", "1"] + FAST)
    assert rc == 0
    _, rows = read_csv_rows(out / "sweep.csv")
    cell = next(r for r in rows if r["row_type"] == "cell")
    run_out = tmp_path / "run"
    assert main(["run", "--data", str(dataset), "--eta", "0", "--seed", "5", "--out", str(run_out)] + FAST) == 0
    payload = json.loads((run_out / "metrics.json").read_text())
    assert float(cell["acc"]) == payload["acc"]
    assert float(cell["nmi"]) == payload["nmi"]


# ---------------------------------------------------------------------------
# ablate


def test_ablate_four_rows(dataset, tmp_path):
    out = tmp_path / "abl"
    rc = main(["ablate", "--data", str(dataset), "--out", str(out), "--eta", "0.3", "--seeds", "1,2"] + FAST)
    assert rc == 0
    _, rows = read_csv_rows(out / "ablation.csv")
    assert [r["config"] for r in rows] == ["full", "no-ins", "no-hg", "no-hg-no-clu"]


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


@pytest.mark.parametrize("truth", ["0\n-1\n1\n", "0\n0.5\n1\n"])
def test_eval_negative_or_fractional_label_exits_3(tmp_path, truth):
    truth_file, pred_file = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth_file.write_text(truth)
    pred_file.write_text("0\n1\n1\n")
    assert main(["eval", "--pred", str(pred_file), "--truth", str(truth_file)]) == 3
    assert main(["eval", "--pred", str(truth_file), "--truth", str(pred_file)]) == 3


def test_eval_writes_report(dataset, tmp_path):
    out = tmp_path / "report"
    rc = main(["eval", "--pred", str(dataset / "labels.csv"), "--truth", str(dataset / "labels.csv"), "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "metrics.json").read_text()) == {"acc": 1.0, "nmi": 1.0, "ari": 1.0}


# ---------------------------------------------------------------------------
# baseline command


def test_baseline_command(dataset, capsys):
    rc = main(["baseline", "--data", str(dataset), "--kind", "concat", "--eta", "0.3", "--seed", "1"])
    assert rc == 0
    assert "concat: acc=" in capsys.readouterr().out


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
