"""The benchmark's workloads, their inputs, and the operations it times.

Every workload draws two views from ``synth_blobs`` at noise sigma 0.5 with
the workload seed; the program only ever sees the generated arrays, or, for
``sweep-grid``, the dataset files written from them. Each timed operation
returns an :class:`Outcome` whose ``problems`` list is empty when the
output checks pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import icmvc
from icmvc import cli, dataio, trainer
from tracer import Tracer

N_VIEWS = 2
SIGMA = 0.5
SWEEP_ETAS = (0.3, 0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    dim: int
    clusters: int
    eta: float
    epochs: int  # per training; per cell for the sweep
    sweep: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-long",
            "N=300 D=10 default config over many epochs: tape overhead, backward and Adam dominate",
            n=300, dim=10, clusters=3, eta=0.3, epochs=40,
        ),
        Workload(
            "large-n",
            "N=1000 D=10, few epochs: dense NxN propagation, its backward and the NxN contrastive matrices dominate",
            n=1000, dim=10, clusters=3, eta=0.3, epochs=3,
        ),
        Workload(
            "wide-views",
            "N=1000 D=256, half the rows transferred: graph preparation and its NxNxD distance tensors dominate",
            n=1000, dim=256, clusters=5, eta=0.5, epochs=2,
        ),
        Workload(
            "sweep-grid",
            "icmvc sweep, default --jobs, 2 etas x 2 seeds on an N=300 CSV dataset: CLI, CSV reading, concurrent cells",
            n=300, dim=10, clusters=3, eta=0.3, epochs=10, sweep=True,
        ),
    )
}


@dataclass
class Inputs:
    views: icmvc.ViewSet
    labels: np.ndarray
    mask: np.ndarray
    data_dir: Path | None = None  # sweep-grid only


@dataclass
class Outcome:
    seconds: float
    epochs: int = 0
    acc: float = math.nan
    nmi: float = math.nan
    digests: tuple = ()
    attempted: int = 1
    problems: list = field(default_factory=list)
    setup_seconds: float | None = None  # untraced trainings: from the call's start until init_model returned
    failed_cells: int = 0  # sweep only: cells whose status is not ok

    @property
    def failed(self) -> int:
        if not self.problems:
            return 0
        return min(self.attempted, max(1, self.failed_cells))


def make_inputs(w: Workload, seed: int, work_dir: Path) -> Inputs:
    views, labels = icmvc.synth_blobs(w.n, N_VIEWS, w.clusters, dim=w.dim, noise_sigma=SIGMA, seed=seed)
    mask = icmvc.make_mask(w.n, N_VIEWS, w.eta, seed)
    data_dir = None
    if w.sweep:
        data_dir = work_dir / "data"
        icmvc.save_dataset(data_dir, views, labels)
    return Inputs(views, labels, mask, data_dir)


def config_for(w: Workload, seed: int, epochs: int | None = None) -> icmvc.TrainConfig:
    return icmvc.TrainConfig(epochs=w.epochs if epochs is None else epochs, seed=seed)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _failure(started: float, attempted: int = 1) -> Outcome:
    traceback.print_exc()
    return Outcome(time.perf_counter() - started, attempted=attempted, problems=["raised"], failed_cells=attempted)


def time_sweep_setup(inputs: Inputs) -> Outcome:
    """The sweep's set-up: ``load_dataset`` as ``sweep`` calls it."""
    started = time.perf_counter()
    try:
        dataio.load_dataset(inputs.data_dir, minmax=True)
    except Exception:  # a set-up that raises is a failed operation, not a crash
        return _failure(started)
    return Outcome(time.perf_counter() - started)


def check_training(result, n: int, clusters: int, epochs: int) -> list:
    problems = []
    history = np.array([b.as_row() for b in result.history], dtype=np.float64)
    if history.shape[0] != epochs:
        problems.append(f"history has {history.shape[0]} epochs, expected {epochs}")
    if not np.isfinite(history).all():
        problems.append("loss history is not finite")
    labels = np.asarray(result.labels)
    if labels.shape != (n,):
        problems.append(f"labels have shape {labels.shape}, expected ({n},)")
    elif not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0 or labels.max() >= clusters:
        problems.append(f"labels outside [0, {clusters})")
    return problems


def training_digests(result) -> tuple:
    """sha256 of the loss history (float64 rows) and of the labels (int64)."""
    history = np.array([b.as_row() for b in result.history], dtype=np.float64)
    labels = np.asarray(result.labels, dtype=np.int64)
    return (_sha256(history.tobytes()), _sha256(labels.tobytes()))


def run_training(w: Workload, inputs: Inputs, seed: int, tracer=None, epochs: int | None = None) -> Outcome:
    """One whole ``train()`` call.

    With a tracer it runs inside a ``trainer.train`` span. Without one, the
    only rebound name is ``icmvc.trainer.init_model``, called once per
    training, whose return marks the end of set-up: the call splits into
    set-up and epoch loop without timing ``prepare`` a second time. A
    training that never reaches the marker fails.
    """
    config = config_for(w, seed, epochs)
    marker = None
    if tracer is None:
        marker = Tracer()
        marker.wrap("icmvc.trainer", "init_model", "setup_end")
    started = time.perf_counter()
    try:
        with tracer.span("trainer.train") if tracer else marker:
            result = trainer.train(inputs.views, inputs.mask, w.clusters, config, labels=inputs.labels)
    except Exception:  # a training that raises is a failed operation
        return _failure(started)
    seconds = time.perf_counter() - started
    problems = check_training(result, w.n, w.clusters, config.epochs)
    setup_end = marker.named("setup_end") if marker else []
    if marker and not setup_end:
        problems.append("icmvc.trainer.init_model was not called: the end of set-up is unknown")
    report = result.final_metrics
    return Outcome(
        seconds,
        setup_seconds=setup_end[0].end - started if setup_end else None,
        epochs=len(result.history),
        acc=float(report.acc),
        nmi=float(report.nmi),
        digests=training_digests(result),
        problems=problems,
    )


def run_sweep(w: Workload, inputs: Inputs, seed: int, out_dir: Path, tracer=None, epochs: int | None = None) -> Outcome:
    """One whole ``icmvc sweep`` through ``cli.main``; every grid cell is an
    attempted operation and a cell whose status is not ``ok`` a failed one."""
    cells = len(SWEEP_ETAS) * 2
    epochs = w.epochs if epochs is None else epochs
    argv = [
        "sweep",
        "--data", str(inputs.data_dir),
        "--out", str(out_dir),
        "--etas", ",".join(str(e) for e in SWEEP_ETAS),
        "--seeds", f"{seed},{seed + 1}",
        "--epochs", str(epochs),
    ]
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                code = cli.main(argv)
    except Exception:  # an uncaught error in the CLI fails every cell
        return _failure(started, attempted=cells)
    seconds = time.perf_counter() - started
    problems = [] if code == 0 else [f"sweep exited with {code}"]
    sweep_csv = out_dir / "sweep.csv"
    rows = [r for r in csv.DictReader(io.StringIO(sweep_csv.read_text(encoding="utf-8"))) if r["row_type"] == "cell"]
    if len(rows) != cells:
        problems.append(f"sweep.csv has {len(rows)} cells, expected {cells}")
    problems += [f"cell eta={r['eta']} seed={r['seed']}: {r['status']}" for r in rows if r["status"] != "ok"]
    ok = [r for r in rows if r["status"] == "ok"]
    accs = [float(r["acc"]) for r in ok]
    nmis = [float(r["nmi"]) for r in ok]
    if not all(0.0 <= x <= 1.0 for x in accs + nmis):
        problems.append("a cell score lies outside [0, 1]")
    return Outcome(
        seconds,
        epochs=len(ok) * epochs,
        acc=float(np.mean(accs)) if accs else math.nan,
        nmi=float(np.mean(nmis)) if nmis else math.nan,
        digests=(_sha256(sweep_csv.read_bytes()),),
        attempted=cells,
        problems=problems,
        failed_cells=cells - len(ok),
    )


def run_operation(w: Workload, inputs: Inputs, seed: int, work_dir: Path, tracer=None, epochs=None) -> Outcome:
    """The workload's timed operation; ``epochs`` overrides the epoch count
    (the warm-up runs one)."""
    if w.sweep:
        return run_sweep(w, inputs, seed, work_dir / "sweep", tracer, epochs)
    return run_training(w, inputs, seed, tracer, epochs)
