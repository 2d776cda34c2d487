"""Command-line front end: dataset generation, single runs, missing-rate
sweeps, ablation tables, and label-file evaluation.

Every command is deterministic given its arguments, input files, and seed;
wall-clock timestamps appear only in the run manifest. Exit codes are a
stable contract: 0 success, 2 argument or configuration problems, 3 data
problems or arrays too large for memory, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .dataio import (
    MASK_PRNG, atomic_write, check_mask, load_dataset, make_mask, read_labels, save_dataset, synth_blobs, write_matrix,
)
from .errors import ConfigError, DataError, DivergenceError, FormatError, IcmvcError
from .metrics import evaluate
from .network import save_checkpoint
from .trainer import ABLATION_MODES, TrainConfig, baseline, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4

DEFAULT_ETAS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_SWEEP_SEEDS = (0, 1, 2, 3, 4)


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))  # None: a blank CSV cell


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, written, extra: dict | None = None):
    """Write manifest.json with the checksums of the files this command wrote, named in ``written``."""
    manifest = {
        "command": command,
        "config": config,
        "checksums": {name: _sha256(out_dir / name) for name in sorted(written)},
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    manifest.update(extra or {})
    atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_list(text: str, flag: str, kind) -> list:
    """Comma-separated ``kind`` (int or float) values; an unreadable item is a config error."""
    values = []
    for item in text.split(","):
        if item.strip():
            try:
                values.append(kind(item))
            except ValueError:
                raise ConfigError(f"{flag}: cannot read {item!r} as {kind.__name__}") from None
    if not values:
        raise ConfigError(f"{flag}: no values in {text!r}")
    return values


def _parse_seeds(text) -> list:
    """The ``--seeds`` list of sweep and ablate, checked before any cell runs."""
    seeds = _parse_list(text, "--seeds", int) if text is not None else list(DEFAULT_SWEEP_SEEDS)
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"--seeds: seeds must be non-negative, got {seed}")
    return seeds


# ---------------------------------------------------------------------------
# configuration assembly: flags > config file > env seed > defaults


def load_file_values(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    try:
        file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    hints = typing.get_type_hints(TrainConfig) | {"eta": float}
    unknown = set(file_values) - set(hints)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in file_values.items():
        if not _fits(value, hints[key]):
            raise ConfigError(f"config key {key!r}: {value!r} does not fit its type")
    return file_values


def _fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field typed int, float, bool or an optional of one."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None or isinstance(value, bool):
        return type(value) in kinds
    if float in kinds:
        kinds += (int,)
    return isinstance(value, tuple(k for k in kinds if k is not bool))


def _settings(args) -> tuple[TrainConfig, float | None]:
    """The validated training config and the missing rate (None when neither
    ``--eta`` nor the config file gives one)."""
    file_values = load_file_values(args)
    values = asdict(TrainConfig())
    values.update({k: v for k, v in file_values.items() if k in values})
    for name in values:  # each training flag's dest is its TrainConfig field
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    values["seed"] = resolve_seed(args, file_values)
    eta = getattr(args, "eta", None)
    if eta is None and "eta" in file_values:
        eta = float(file_values["eta"])
    return TrainConfig(**values).validate(), eta


def resolve_seed(args, file_values=None) -> int:
    env = os.environ.get("ICMVC_SEED")
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, "--seed"
    elif file_values and "seed" in file_values:
        seed, source = int(file_values["seed"]), "config key 'seed'"
    elif env is not None:
        try:
            seed, source = int(env), "ICMVC_SEED"
        except ValueError:
            raise ConfigError(f"ICMVC_SEED must be an integer, got {env!r}") from None
    else:
        return 0
    if seed < 0:
        raise ConfigError(f"{source} must be non-negative, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# run plumbing shared by run / sweep / ablate


def _refuse_out(args):
    """Refuse, before any input is read, an ``--out`` that is or lies under a
    file, the ``--data`` directory, or the directory of ``--pred`` or ``--truth``."""
    if getattr(args, "out", None) is None:
        return
    out = Path(args.out).resolve()
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        where = "is a file" if existing == out else f"lies under the file {existing}"
        raise ConfigError(f"--out {args.out} {where}, not a directory")
    if getattr(args, "data", None) is not None and out == Path(args.data).resolve():
        raise ConfigError(f"--out {args.out} is the --data directory: the outputs would overwrite the dataset")
    if getattr(args, "pred", None) is not None and out in {Path(f).resolve().parent for f in (args.pred, args.truth)}:
        raise ConfigError(f"--out {args.out} is the directory of --pred or --truth: the outputs would overwrite its files")


def _load_for_run(args, training: bool = False):
    """Load the ``--data`` dataset; for a ``training``, also reject a view
    count no training can run, before any training starts."""
    views, labels, mask = load_dataset(args.data, minmax=not args.no_scale)
    if training and views.n_views != 2:
        raise FormatError(f"{args.data}: training needs exactly 2 views, the dataset has {views.n_views}")
    n_clusters = int(np.unique(labels).size)
    if n_clusters < 2:
        raise FormatError(f"labels.csv: {n_clusters} distinct label, need at least 2 clusters")
    return views, labels, mask, n_clusters


def _mask_for(views, stored_mask, eta, seed):
    if stored_mask is not None:
        return stored_mask, "mask.csv"
    if eta is None:
        raise ConfigError("no mask.csv present: provide --eta (and a seed)")
    return make_mask(views.n_instances, views.n_views, eta, seed), MASK_PRNG


def _check_knn(mask, stored_mask, eta, config):
    """Refuse a ``--knn`` that is not below every view's observed rows of
    ``mask``; a view with fewer than 2 fails training as bad data instead."""
    for v, n_obs in enumerate(mask.sum(axis=0)):
        if 2 <= n_obs <= config.knn_k:
            source = "mask.csv" if stored_mask is not None else f"eta {eta}"
            raise ConfigError(f"{source}, seed {config.seed}, view {v}: --knn must lie in [1, {n_obs - 1}], got {config.knn_k}")


def _history_csv(result) -> str:
    lines = ["epoch,l_ins,l_clu,l_hg,total,acc,nmi,ari"]
    for epoch, breakdown in enumerate(result.history):
        report = result.metric_history[epoch]
        cells = [str(epoch)] + [_fmt(v) for v in breakdown.as_row() + [report.acc, report.nmi, report.ari]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    config, eta = _settings(args)
    views, labels, stored_mask, n_clusters = _load_for_run(args, training=True)
    mask, mask_source = _mask_for(views, stored_mask, eta, config.seed)
    _check_knn(mask, stored_mask, eta, config)
    result = train(views, mask, n_clusters, config, labels=labels)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = result.final_metrics
    payload = dict(report.to_dict(), final_loss=asdict(result.history[-1]), epochs=config.epochs, eta=eta,
                   seed=config.seed, ablation=config.ablation)
    atomic_write(out_dir / "metrics.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    atomic_write(out_dir / "history.csv", _history_csv(result))
    write_matrix(out_dir / "labels.csv", result.labels.reshape(-1, 1), integer=True)
    written = ["metrics.json", "history.csv", "labels.csv"]
    if args.dump_embeddings:
        write_matrix(out_dir / "embeddings.csv", result.embeddings)
        written.append("embeddings.csv")
    if args.save_model:
        written += save_checkpoint(result.params, out_dir / "checkpoint", config=asdict(config))
    manifest_config = dict(asdict(config), eta=eta, mask_source=mask_source, data=str(args.data), scale=not args.no_scale)
    extra = {"wall_time_s": round(result.wall_time, 3), "blas_threads": _blas_threads(),
             "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF)}
    _write_manifest(out_dir, "run", manifest_config, written, extra)
    print(f"acc={report.acc:.6f} nmi={report.nmi:.6f} ari={report.ari:.6f}")
    return EXIT_OK


def cmd_gen(args) -> int:
    seed = resolve_seed(args)
    views, labels = synth_blobs(args.n, args.views, args.clusters, args.dim, args.sigma, seed=seed)
    mask = None if args.eta is None else check_mask(make_mask(args.n, args.views, args.eta, seed))
    out_dir = Path(args.out)
    written = save_dataset(out_dir, views, labels, mask=mask)
    spec = {
        "n": args.n, "views": args.views, "clusters": args.clusters, "dim": args.dim,
        "sigma": args.sigma, "seed": seed, "eta": args.eta, "mask_prng": MASK_PRNG,
    }
    _write_manifest(out_dir, "gen", spec, written)
    print(f"wrote {len(written) + 1} files to {out_dir}")
    return EXIT_OK


def _grid_cell(views, labels, n_clusters, masks, eta, config):
    """Train one sweep or ablation cell; returns (status, final metrics).

    A library error during training fails only this cell, so the rest of
    the grid still runs.
    """
    try:
        result = train(views, masks[eta, config.seed], n_clusters, config)  # no per-epoch scores: nothing reads them
        report = evaluate(result.labels, labels)
    except IcmvcError as exc:
        return f"error:{type(exc).__name__}", None
    return "ok", report


def _openblas(action: str):
    """The ``openblas_<action>_num_threads`` entry point ("get" or "set") of
    the OpenBLAS that numpy loaded, or None when there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{action}_num_threads64_", f"openblas_{action}_num_threads64_",
                       f"openblas_{action}_num_threads"):
            entry = getattr(lib, symbol, None)
            if entry is not None:
                entry.argtypes, entry.restype = ([], ctypes.c_int) if action == "get" else ([ctypes.c_int], None)
                return entry
    return None


def _blas_threads():
    get = _openblas("get")
    return get() if get else None


def _peak_rss_mb(*who) -> float:
    """The largest peak RSS in MiB among ``who`` (``resource.RUSAGE_*``; Linux counts ``ru_maxrss`` in KiB)."""
    return round(max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0, 1)


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_worker_data = None  # a grid worker's dataset and masks, set once by _start_worker


def _start_worker(data, set_threads, threads):
    global _worker_data
    _worker_data = data
    set_threads(threads)


def _worker_cell(task):
    return _grid_cell(*_worker_data, *task)


def _run_grid(views, labels, n_clusters, stored_mask, tasks):
    """Train the ``(eta, config)`` cells of a grid; returns their (status,
    report) pairs in grid order and the workers and BLAS threads they used.

    Every mask is built, and checked to leave each view more observed rows
    than ``knn_k``, before any cell trains, so a rate or a k no cell can use
    stops the grid first. With more than one usable core, the cells run in
    forked workers that inherit the dataset and pin OpenBLAS to their share
    of the cores; a worker that dies fails the cells it left unfinished.
    Without ``fork`` or a way to set OpenBLAS's threads (whose own pool
    would then compete with the other workers), the cells run here in turn.
    """
    # imported here: `run`, and callers that never start a grid, then load
    # no multiprocessing modules (a dozen, about 0.4 MiB of RSS)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    masks = {(eta, config.seed): _mask_for(views, stored_mask, eta, config.seed)[0] for eta, config in tasks}
    for eta, config in tasks:
        _check_knn(masks[eta, config.seed], stored_mask, eta, config)
    data = (views, labels, n_clusters, masks)
    cores = _usable_cores()
    workers = min(len(tasks), cores)
    set_threads = _openblas("set") if workers > 1 and "fork" in multiprocessing.get_all_start_methods() else None
    if set_threads is None:
        return [_grid_cell(*data, *task) for task in tasks], {"workers": 1, "blas_threads": _blas_threads()}
    threads = max(1, cores // workers)
    # fork, not spawn: the workers share the parent's arrays instead of a
    # pickled copy and skip a fresh interpreter's imports; OpenBLAS stops its
    # own threads around a fork
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, (data, set_threads, threads))
    try:
        futures = [pool.submit(_worker_cell, task) for task in tasks]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:  # a worker died: this cell was left unfinished
                outcomes.append(("error:BrokenProcessPool", None))
    finally:
        pool.shutdown(cancel_futures=True)
    return outcomes, {"workers": workers, "blas_threads": threads}


def _summaries(keys, outcomes, order):
    """Per group of grid cells, in ``order``: the group's key, how many of
    its cells finished, and the mean and population std of acc, nmi and ari
    over those (six Nones when none finished). ``keys`` names each cell's
    group, in grid order."""
    for group in order:
        done = [report for key, (_, report) in zip(keys, outcomes) if key == group and report is not None]
        stats = []
        for score in ("acc", "nmi", "ari"):
            values = np.array([getattr(report, score) for report in done])
            stats += [float(values.mean()), float(values.std())] if done else [None, None]
        yield group, len(done), stats


def _finish_grid(args, command, csv_name, csv_lines, manifest_config, parallelism, outcomes, summary, failure) -> int:
    """Write a grid's CSV and manifest.json and print its ``summary`` lines;
    when a cell failed, print the count and ``failure`` ("cells failed") to
    stderr and exit 1. The manifest has no ``seed`` (each cell trains one of
    ``seeds``) and the larger ``peak_rss_mb`` of this process and its workers."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / csv_name, "\n".join(csv_lines) + "\n")
    config = dict(manifest_config, data=str(args.data))
    del config["seed"]
    peak = _peak_rss_mb(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    _write_manifest(out_dir, command, config, [csv_name], dict(parallelism, peak_rss_mb=peak))
    for line in summary:
        print(line)
    n_failed = sum(report is None for _, report in outcomes)
    if n_failed:
        print(f"{n_failed} {failure}", file=sys.stderr)
        return 1
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, _ = _settings(args)
    views, labels, stored_mask, n_clusters = _load_for_run(args, training=True)
    if stored_mask is not None:
        raise ConfigError(f"{args.data} has a mask.csv: sweep sets the missing rates itself, from --etas")
    etas = _parse_list(args.etas, "--etas", float) if args.etas is not None else list(DEFAULT_ETAS)
    seeds = _parse_seeds(args.seeds)
    grid = [(eta, replace(config, seed=seed)) for eta in etas for seed in seeds]
    outcomes, parallelism = _run_grid(views, labels, n_clusters, None, grid)
    lines = ["row_type,eta,seed,status,acc,nmi,ari,acc_mean,acc_std,nmi_mean,nmi_std,ari_mean,ari_std"]
    for (eta, cell), (status, report) in zip(grid, outcomes):
        scores = [_fmt(getattr(report, k, None)) for k in ("acc", "nmi", "ari")]
        lines.append(",".join(["cell", _fmt(eta), str(cell.seed), status] + scores + [""] * 6))
    summary = []
    for eta, n_ok, stats in _summaries([eta for eta, _ in grid], outcomes, sorted(set(etas))):
        lines.append(",".join(["aggregate", _fmt(eta), "", f"ok={n_ok}", "", "", ""] + [_fmt(v) for v in stats]))
        summary.append(f"eta={eta:.2f} acc_mean={'n/a' if stats[0] is None else f'{stats[0]:.4f}'} ({n_ok} ok)")
    manifest_config = dict(asdict(config), etas=etas, seeds=seeds, mask_source=MASK_PRNG)
    return _finish_grid(
        args, "sweep", "sweep.csv", lines, manifest_config, parallelism, outcomes, summary, "cells failed"
    )


def cmd_ablate(args) -> int:
    base, eta = _settings(args)
    views, labels, stored_mask, n_clusters = _load_for_run(args, training=True)
    seeds = _parse_seeds(args.seeds)
    mask_source = _mask_for(views, stored_mask, eta, base.seed)[1]  # the same for every cell
    grid = [(eta, replace(base, seed=seed, ablation=mode)) for mode in ABLATION_MODES for seed in seeds]
    outcomes, parallelism = _run_grid(views, labels, n_clusters, stored_mask, grid)
    lines = ["config,acc_mean,acc_std,nmi_mean,nmi_std,ari_mean,ari_std"]
    summary, acc_mean = [], {}
    for mode, n_ok, stats in _summaries([cell.ablation for _, cell in grid], outcomes, ABLATION_MODES):
        if n_ok:  # a mode with no finished cell gets no row
            lines.append(",".join([mode] + [_fmt(v) for v in stats]))
            summary.append(f"{mode:14s} acc={stats[0]:.4f}+-{stats[1]:.4f}")
            acc_mean[mode] = stats[0]
    if "full" in acc_mean and "no-ins" in acc_mean:
        if acc_mean["full"] < acc_mean["no-ins"] - 0.02:
            print(
                "warning: full model mean ACC fell more than 0.02 below the no-ins ablation",
                file=sys.stderr,
            )
    manifest_config = dict(asdict(base), eta=eta, seeds=seeds, mask_source=mask_source)
    return _finish_grid(
        args, "ablate", "ablation.csv", lines, manifest_config, parallelism, outcomes, summary, "ablation cells failed"
    )


def cmd_eval(args) -> int:
    pred = read_labels(Path(args.pred))
    truth = read_labels(Path(args.truth))
    if pred.shape[0] != truth.shape[0]:
        raise DataError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    report = evaluate(pred, truth)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(out_dir / "metrics.json", json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        _write_manifest(out_dir, "eval", {"pred": str(args.pred), "truth": str(args.truth)}, ["metrics.json"])
    print(f"acc={report.acc:.6f} nmi={report.nmi:.6f} ari={report.ari:.6f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config, eta = _settings(args)
    views, labels, stored_mask, n_clusters = _load_for_run(args)
    mask, _ = _mask_for(views, stored_mask, eta, config.seed)
    report = baseline(views, mask, labels, n_clusters, args.kind, seed=config.seed)
    print(f"{args.kind}: acc={report.acc:.6f} nmi={report.nmi:.6f} ari={report.ari:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_train_flags(parser):
    parser.add_argument("--config", help="flat JSON config file; flags override it")
    parser.add_argument("--epochs", dest="epochs", type=int)
    parser.add_argument("--lr", dest="lr", type=float)
    parser.add_argument("--knn", dest="knn_k", type=int)
    parser.add_argument("--tau-i", dest="tau_instance", type=float)
    parser.add_argument("--tau-c", dest="tau_cluster", type=float)
    parser.add_argument("--tau-att", dest="tau_attention", type=float)
    parser.add_argument("--dim", dest="hidden_dim", type=int, help="encoder hidden width")
    parser.add_argument("--embed-dim", dest="embed_dim", type=int)
    parser.add_argument("--layers", dest="gcn_layers", type=int)
    parser.add_argument("--bandwidth", dest="bandwidth", type=float)
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
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=cmd_gen)

    run = sub.add_parser("run", help="train once and write metrics/history/labels")
    run.add_argument("--data", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--eta", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--ablate", dest="ablation", choices=tuple(ABLATION_MODES))
    run.add_argument("--dump-embeddings", action="store_true")
    run.add_argument("--save-model", action="store_true")
    _add_train_flags(run)
    run.set_defaults(handler=cmd_run)

    sweep = sub.add_parser("sweep", help="grid of missing rates x seeds")
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--etas", help="comma-separated missing rates")
    sweep.add_argument("--seeds", help="comma-separated seeds")
    _add_train_flags(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    ablate = sub.add_parser("ablate", help="run the four ablation configurations")
    ablate.add_argument("--data", required=True)
    ablate.add_argument("--out", required=True)
    ablate.add_argument("--eta", type=float)
    ablate.add_argument("--seeds", help="comma-separated seeds")
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
        _refuse_out(args)
        return args.handler(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IcmvcError, OSError, MemoryError) as exc:  # data problems, arrays too large, any other library error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
