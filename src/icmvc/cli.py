"""Command-line front end: dataset generation, single runs, missing-rate
sweeps, ablation tables, and label-file evaluation.

Every command is deterministic given its arguments, input files, and seed;
wall-clock timestamps appear only in the run manifest. Exit codes are a
stable contract: 0 success, 2 argument or configuration problems, 3 data
problems, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dataio import MASK_PRNG, load_dataset, make_mask, read_labels, save_dataset, synth_blobs
from .errors import ConfigError, DataError, DivergenceError, IcmvcError
from .metrics import evaluate
from .network import save_checkpoint
from .trainer import ABLATION_MODES, TrainConfig, baseline, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4

DEFAULT_ETAS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_SWEEP_SEEDS = (0, 1, 2, 3, 4)


def _fmt(x: float) -> str:
    return repr(float(x))


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, extra: dict | None = None):
    files = sorted(p for p in out_dir.iterdir() if p.is_file() and p.name != "manifest.json")
    manifest = {
        "command": command,
        "config": config,
        "checksums": {p.name: _sha256(p) for p in files},
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    manifest.update(extra or {})
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_float_list(text: str):
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_int_list(text: str):
    return [int(x) for x in text.split(",") if x.strip() != ""]


# ---------------------------------------------------------------------------
# configuration assembly: flags > config file > env seed > defaults


FLAG_TO_FIELD = {
    "epochs": "epochs",
    "lr": "lr",
    "knn": "knn_k",
    "tau_i": "tau_instance",
    "tau_c": "tau_cluster",
    "tau_att": "tau_attention",
    "dim": "hidden_dim",
    "embed_dim": "embed_dim",
    "layers": "gcn_layers",
    "transfer": "transfer_rule",
    "bandwidth": "bandwidth",
    "target_interval": "target_interval",
}


def load_file_values(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    try:
        file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    known = set(asdict(TrainConfig())) | {"eta", "seed"}
    unknown = set(file_values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return file_values


def build_config(args, file_values: dict | None = None) -> TrainConfig:
    values = asdict(TrainConfig())
    if file_values is None:
        file_values = load_file_values(args)
    values.update({k: v for k, v in file_values.items() if k in values})
    for flag, fieldname in FLAG_TO_FIELD.items():
        flag_value = getattr(args, flag, None)
        if flag_value is not None:
            values[fieldname] = flag_value
    values["seed"] = resolve_seed(args, file_values)
    ablate = getattr(args, "ablate", None)
    if ablate is not None:
        if ablate not in ABLATION_MODES:
            raise ConfigError(f"unknown ablation {ablate!r}")
        values.update(ABLATION_MODES[ablate])
    return TrainConfig(**values).validate()


def resolve_seed(args, file_values=None) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if file_values and "seed" in file_values:
        return int(file_values["seed"])
    env = os.environ.get("ICMVC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"ICMVC_SEED must be an integer, got {env!r}") from None
    return 0


def resolve_eta(args, file_values=None):
    if getattr(args, "eta", None) is not None:
        return args.eta
    if file_values and "eta" in file_values:
        return float(file_values["eta"])
    return None


# ---------------------------------------------------------------------------
# run plumbing shared by run / sweep / ablate


def _load_for_run(data_dir: str, scale: bool):
    views, labels, mask = load_dataset(data_dir, minmax=scale)
    n_clusters = int(labels.max()) + 1
    return views, labels, mask, n_clusters


def _mask_for(views, stored_mask, eta, seed):
    if stored_mask is not None:
        return stored_mask, "mask.csv"
    if eta is None:
        raise ConfigError("no mask.csv present: provide --eta (and a seed)")
    return make_mask(views.n_instances, views.n_views, eta, seed), MASK_PRNG


def _history_csv(result) -> str:
    lines = ["epoch,l_ins,l_clu,l_hg,total,acc,nmi,ari"]
    for epoch, breakdown in enumerate(result.history):
        cells = [str(epoch)] + [_fmt(v) for v in breakdown.as_row()]
        if result.metric_history:
            report = result.metric_history[epoch]
            cells += [_fmt(report.acc), _fmt(report.nmi), _fmt(report.ari)]
        else:
            cells += ["", "", ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    file_values = load_file_values(args)
    config = build_config(args, file_values)
    views, labels, stored_mask, n_clusters = _load_for_run(args.data, not args.no_scale)
    eta = resolve_eta(args, file_values)
    mask, mask_source = _mask_for(views, stored_mask, eta, config.seed)
    result = train(views, mask, n_clusters, config, labels=labels)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = result.final_metrics
    payload = {
        "acc": report.acc,
        "nmi": report.nmi,
        "ari": report.ari,
        "final_loss": {
            "l_ins": result.history[-1].l_ins,
            "l_clu": result.history[-1].l_clu,
            "l_hg": result.history[-1].l_hg,
            "total": result.history[-1].total,
        },
        "epochs": config.epochs,
        "eta": eta,
        "seed": config.seed,
        "ablation": config.ablation_name(),
    }
    _atomic_write(out_dir / "metrics.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _atomic_write(out_dir / "history.csv", _history_csv(result))
    _atomic_write(out_dir / "labels.csv", "\n".join(str(int(v)) for v in result.labels) + "\n")
    if args.dump_embeddings:
        _atomic_write(
            out_dir / "embeddings.csv",
            "\n".join(",".join(_fmt(v) for v in row) for row in result.embeddings) + "\n",
        )
    if args.save_model:
        save_checkpoint(result.params, out_dir / "checkpoint", config=asdict(config))
    manifest_config = dict(asdict(config), eta=eta, mask_source=mask_source, data=str(args.data), scale=not args.no_scale)
    _write_manifest(out_dir, "run", manifest_config, {"wall_time_s": round(result.wall_time, 3)})
    print(f"acc={report.acc:.6f} nmi={report.nmi:.6f} ari={report.ari:.6f}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.clusters < 1:
        raise ConfigError(f"clusters must be >= 1, got {args.clusters}")
    views, labels = synth_blobs(
        args.n, args.views, args.clusters, args.dim, args.sigma,
        view_transforms=args.transform, seed=resolve_seed(args),
    )
    mask = None
    if args.eta is not None:
        mask = make_mask(args.n, args.views, args.eta, resolve_seed(args))
    out_dir = Path(args.out)
    save_dataset(out_dir, views, labels, mask=mask)
    spec = {
        "n": args.n, "views": args.views, "clusters": args.clusters, "dim": args.dim,
        "sigma": args.sigma, "transform": args.transform, "seed": resolve_seed(args),
        "eta": args.eta, "mask_prng": MASK_PRNG,
    }
    _write_manifest(out_dir, "gen", spec)
    print(f"wrote {sum(1 for p in out_dir.iterdir() if p.is_file())} files to {out_dir}")
    return EXIT_OK


def _sweep_cell(views, labels, n_clusters, eta, seed, base_config):
    config = TrainConfig(**dict(asdict(base_config), seed=seed))
    mask = make_mask(views.n_instances, views.n_views, eta, seed)
    try:
        result = train(views, mask, n_clusters, config, labels=labels)
        report = result.final_metrics
        return {"eta": eta, "seed": seed, "status": "ok", "acc": report.acc, "nmi": report.nmi, "ari": report.ari}
    except IcmvcError as exc:
        return {"eta": eta, "seed": seed, "status": f"error:{type(exc).__name__}", "acc": None, "nmi": None, "ari": None}


def _aggregate(cells):
    by_eta = {}
    for cell in cells:
        by_eta.setdefault(cell["eta"], []).append(cell)
    rows = []
    for eta in sorted(by_eta):
        ok = [c for c in by_eta[eta] if c["status"] == "ok"]
        agg = {"eta": eta, "n_ok": len(ok)}
        for key in ("acc", "nmi", "ari"):
            values = np.array([c[key] for c in ok]) if ok else np.array([])
            agg[f"{key}_mean"] = float(values.mean()) if values.size else None
            agg[f"{key}_std"] = float(values.std()) if values.size else None
        rows.append(agg)
    return rows


def _sweep_csv(cells, aggregates) -> str:
    header = "row_type,eta,seed,status,acc,nmi,ari,acc_mean,acc_std,nmi_mean,nmi_std,ari_mean,ari_std"
    lines = [header]
    blank = lambda v: "" if v is None else _fmt(v)
    for cell in cells:
        lines.append(
            ",".join(
                ["cell", _fmt(cell["eta"]), str(cell["seed"]), cell["status"],
                 blank(cell["acc"]), blank(cell["nmi"]), blank(cell["ari"]), "", "", "", "", "", ""]
            )
        )
    for agg in aggregates:
        lines.append(
            ",".join(
                ["aggregate", _fmt(agg["eta"]), "", f"ok={agg['n_ok']}", "", "", "",
                 blank(agg["acc_mean"]), blank(agg["acc_std"]),
                 blank(agg["nmi_mean"]), blank(agg["nmi_std"]),
                 blank(agg["ari_mean"]), blank(agg["ari_std"])]
            )
        )
    return "\n".join(lines) + "\n"


def _run_grid(jobs, tasks):
    if jobs <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


def cmd_sweep(args) -> int:
    config = build_config(args)
    views, labels, _, n_clusters = _load_for_run(args.data, not args.no_scale)
    etas = _parse_float_list(args.etas) if args.etas else list(DEFAULT_ETAS)
    seeds = _parse_int_list(args.seeds) if args.seeds else list(DEFAULT_SWEEP_SEEDS)
    tasks = [
        (lambda eta=eta, seed=seed: _sweep_cell(views, labels, n_clusters, eta, seed, config))
        for eta in etas
        for seed in seeds
    ]
    cells = _run_grid(args.jobs, tasks)
    aggregates = _aggregate(cells)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "sweep.csv", _sweep_csv(cells, aggregates))
    _write_manifest(out_dir, "sweep", dict(asdict(config), etas=etas, seeds=seeds, data=str(args.data)))
    failed = [c for c in cells if c["status"] != "ok"]
    for agg in aggregates:
        mean = "n/a" if agg["acc_mean"] is None else f"{agg['acc_mean']:.4f}"
        print(f"eta={agg['eta']:.2f} acc_mean={mean} ({agg['n_ok']} ok)")
    if failed:
        print(f"{len(failed)} cells failed", file=sys.stderr)
        return 1
    return EXIT_OK


def cmd_ablate(args) -> int:
    file_values = load_file_values(args)
    base = build_config(args, file_values)
    views, labels, stored_mask, n_clusters = _load_for_run(args.data, not args.no_scale)
    eta = resolve_eta(args, file_values)
    seeds = _parse_int_list(args.seeds) if args.seeds else list(DEFAULT_SWEEP_SEEDS)

    def ablate_cell(mode, flags, seed):
        config = TrainConfig(**dict(asdict(base), seed=seed, **flags))
        mask, _ = _mask_for(views, stored_mask, eta, seed)
        try:
            result = train(views, mask, n_clusters, config, labels=labels)
            return mode, result.final_metrics
        except IcmvcError:
            return mode, None

    tasks = [
        (lambda mode=mode, flags=flags, seed=seed: ablate_cell(mode, flags, seed))
        for mode, flags in ABLATION_MODES.items()
        for seed in seeds
    ]
    outcomes = _run_grid(args.jobs, tasks)
    rows = []
    per_mode_acc = {}
    failed = sum(1 for _, report in outcomes if report is None)
    for mode in ABLATION_MODES:
        reports = [report for m, report in outcomes if m == mode and report is not None]
        if reports:
            accs = np.array([r.acc for r in reports])
            nmis = np.array([r.nmi for r in reports])
            aris = np.array([r.ari for r in reports])
            rows.append(
                {
                    "config": mode,
                    "acc_mean": accs.mean(), "acc_std": accs.std(),
                    "nmi_mean": nmis.mean(), "nmi_std": nmis.std(),
                    "ari_mean": aris.mean(), "ari_std": aris.std(),
                }
            )
            per_mode_acc[mode] = float(accs.mean())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["config,acc_mean,acc_std,nmi_mean,nmi_std,ari_mean,ari_std"]
    for row in rows:
        lines.append(
            ",".join(
                [row["config"]]
                + [_fmt(row[k]) for k in ("acc_mean", "acc_std", "nmi_mean", "nmi_std", "ari_mean", "ari_std")]
            )
        )
    _atomic_write(out_dir / "ablation.csv", "\n".join(lines) + "\n")
    _write_manifest(out_dir, "ablate", dict(asdict(base), eta=eta, seeds=seeds, data=str(args.data)))
    for row in rows:
        print(f"{row['config']:14s} acc={row['acc_mean']:.4f}+-{row['acc_std']:.4f}")
    if "full" in per_mode_acc and "no-ins" in per_mode_acc:
        if per_mode_acc["full"] < per_mode_acc["no-ins"] - 0.02:
            print(
                "warning: full model mean ACC fell more than 0.02 below the no-ins ablation",
                file=sys.stderr,
            )
    if failed:
        print(f"{failed} ablation cells failed", file=sys.stderr)
        return 1
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = read_labels(Path(args.pred))
    truth = read_labels(Path(args.truth))
    if pred.shape[0] != truth.shape[0]:
        raise DataError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    report = evaluate(pred, truth)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(out_dir / "metrics.json", json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        _write_manifest(out_dir, "eval", {"pred": str(args.pred), "truth": str(args.truth)})
    print(f"acc={report.acc:.6f} nmi={report.nmi:.6f} ari={report.ari:.6f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    views, labels, stored_mask, n_clusters = _load_for_run(args.data, not args.no_scale)
    seed = resolve_seed(args)
    eta = resolve_eta(args)
    mask, _ = _mask_for(views, stored_mask, eta, seed)
    report = baseline(views, mask, labels, n_clusters, args.kind, seed=seed)
    print(f"{args.kind}: acc={report.acc:.6f} nmi={report.nmi:.6f} ari={report.ari:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_train_flags(parser):
    parser.add_argument("--config", help="flat JSON config file; flags override it")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--knn", type=int)
    parser.add_argument("--tau-i", dest="tau_i", type=float)
    parser.add_argument("--tau-c", dest="tau_c", type=float)
    parser.add_argument("--tau-att", dest="tau_att", type=float)
    parser.add_argument("--dim", type=int, help="encoder hidden width")
    parser.add_argument("--embed-dim", dest="embed_dim", type=int)
    parser.add_argument("--layers", type=int)
    parser.add_argument("--bandwidth", type=float)
    parser.add_argument("--target-interval", dest="target_interval", type=int)
    parser.add_argument("--transfer", choices=("copy", "union", "intersection"))
    parser.add_argument("--no-scale", action="store_true", help="skip per-view min-max scaling at load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icmvc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic multi-view dataset")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--views", type=int, default=2)
    gen.add_argument("--clusters", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--sigma", type=float, required=True)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--eta", type=float, help="also write a mask.csv at this missing rate")
    gen.add_argument("--transform", choices=("rotation", "none"), default="rotation")
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=cmd_gen)

    run = sub.add_parser("run", help="train once and write metrics/history/labels")
    run.add_argument("--data", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--eta", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--ablate", choices=tuple(k for k in ABLATION_MODES if k != "full"))
    run.add_argument("--dump-embeddings", action="store_true")
    run.add_argument("--save-model", action="store_true")
    _add_train_flags(run)
    run.set_defaults(handler=cmd_run)

    sweep = sub.add_parser("sweep", help="grid of missing rates x seeds")
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--etas", help="comma-separated missing rates")
    sweep.add_argument("--seeds", help="comma-separated seeds")
    sweep.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    _add_train_flags(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    ablate = sub.add_parser("ablate", help="run the four ablation configurations")
    ablate.add_argument("--data", required=True)
    ablate.add_argument("--out", required=True)
    ablate.add_argument("--eta", type=float)
    ablate.add_argument("--seeds", help="comma-separated seeds")
    ablate.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    ablate.add_argument("--jobs", type=int, default=1)
    _add_train_flags(ablate)
    ablate.set_defaults(handler=cmd_ablate)

    ev = sub.add_parser("eval", help="score a predicted label file against truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out")
    ev.set_defaults(handler=cmd_eval)

    base = sub.add_parser("baseline", help="mean-impute + k-means reference")
    base.add_argument("--data", required=True)
    base.add_argument("--kind", choices=("bsv", "concat"), required=True)
    base.add_argument("--eta", type=float)
    base.add_argument("--seed", type=int)
    base.add_argument("--no-scale", action="store_true")
    base.set_defaults(handler=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except IcmvcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
