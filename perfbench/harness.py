"""Measurement for the icmvc benchmark: the environment record, the timed
loops of an untraced and a traced run, and the peak-RSS probe.

Imported by ``run.py`` once ``src/`` is on the path.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import layers
import workloads
from icmvc import dataio, trainer
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_PY = BENCH_DIR / "run.py"
PROBE_TIMEOUT_S = 170
# the probe's operation runs two epochs (per cell): memory peaks in the second
# epoch, while the first epoch's tape is still referenced, and stays there
PROBE_EPOCHS = 2
# dataset reads timed per sweep operation; the median is its set-up sample
SWEEP_SETUP_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "epochs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


# ---------------------------------------------------------------------------
# environment record


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return str(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


def _loop(seconds: float, iteration):
    """Call ``iteration()`` at least once and then while the next call is
    expected to end within ``seconds`` of the start."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        started = time.perf_counter()
        iteration()
        durations.append(time.perf_counter() - started)
        if time.perf_counter() + statistics.median(durations) > deadline:
            break


def _check_digests(outcomes) -> bool:
    """Fail every operation whose output digests differ from the first
    checked operation's; True when all agree."""
    reference = next((o.digests for o in outcomes if o.digests and not o.problems), None)
    agree = True
    for outcome in outcomes:
        if outcome.digests and reference is not None and outcome.digests != reference:
            outcome.problems.append("output digest differs from the run's first operation")
            outcome.failed_cells = outcome.attempted
            agree = False
    return agree


def peak_rss_probe(workload: str, seed: int, work_dir: Path) -> float:
    """Peak RSS in MiB of a fresh interpreter that runs one operation."""
    done = subprocess.run(
        [
            sys.executable, str(RUN_PY),
            "--workload", workload, "--seed", str(seed), "--rss-probe", str(work_dir / "probe"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"peak-RSS probe exited with {done.returncode}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["peak_rss_mb"])


def run_probe(w, seed: int, work_dir: Path) -> dict:
    inputs = workloads.make_inputs(w, seed, work_dir)
    outcome = workloads.run_operation(w, inputs, seed, work_dir, epochs=PROBE_EPOCHS)
    if outcome.problems:
        raise RuntimeError(f"probe operation failed: {outcome.problems}")
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def warm_up(w, inputs, seed: int, work_dir: Path):
    """One single-epoch operation before timing: the first training in a
    process pays for fresh pages of its large arrays, later ones reuse them."""
    return workloads.run_operation(w, inputs, seed, work_dir, epochs=1)


def measure_end_to_end(w, inputs, seed: int, seconds: float, work_dir: Path):
    warm = warm_up(w, inputs, seed, work_dir)
    direct, ops, setup_samples, rates = [], [], [], []

    def iteration():
        op = workloads.run_operation(w, inputs, seed, work_dir)
        ops.append(op)
        setup = op.setup_seconds
        if w.sweep:
            # the sweep's set-up is its dataset read, timed next to the
            # operation it is subtracted from
            mine = [workloads.time_sweep_setup(inputs) for _ in range(SWEEP_SETUP_REPS)]
            direct.extend(mine)
            setup = None if any(o.problems for o in mine) else statistics.median(o.seconds for o in mine)
        if not op.problems and setup is not None:
            setup_samples.append(setup)
            rates.append(op.epochs / (op.seconds - setup))

    _loop(seconds, iteration)
    _check_digests(ops)
    outcomes = [warm] + direct + ops
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    good_ops = [o for o in ops if not o.problems]
    if not good_ops or not rates:
        raise RuntimeError("no set-up or operation completed without a problem")
    first = good_ops[0]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "train_s": statistics.median(o.seconds for o in good_ops),
        "epochs_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_probe(w.name, seed, work_dir),
    }
    detail = {
        # deterministic per seed but not steady across seeds (few-epoch
        # trainings land in different optima), so reported and not bounded
        "acc": first.acc,
        "nmi": first.nmi,
        "samples": {"setup": len(setup_samples), "operation": len(ops)},
        "train_s_quartiles": _quartiles([o.seconds for o in good_ops]),
        "setup_s_quartiles": _quartiles(setup_samples),
        "epochs_per_s_quartiles": _quartiles(rates),
        "epochs_per_operation": first.epochs,
        "digests": list(first.digests),
        "problems": sorted({p for o in outcomes for p in o.problems}),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, attempted, failed, detail


def measure_layers(w, inputs, seed: int, seconds: float, work_dir: Path):
    warm = warm_up(w, inputs, seed, work_dir)
    tracer = Tracer()
    probe = layers.LayerProbe(tracer)
    plain, traced = [], []

    def iteration():
        plain.append(workloads.run_operation(w, inputs, seed, work_dir))
        with tracer:
            probe.install()
            traced.append(workloads.run_operation(w, inputs, seed, work_dir, tracer))

    _loop(seconds, iteration)

    if not w.sweep:
        # the sweep reads its dataset through the CLI; the other workloads
        # get the same read timed on their own arrays
        data_dir = work_dir / "data"
        dataio.save_dataset(data_dir, inputs.views, inputs.labels)
        with tracer.span("dataio.load_dataset"):
            dataio.load_dataset(data_dir, minmax=True)

    tracemalloc.start()
    try:
        trainer.prepare(inputs.views, inputs.mask, workloads.config_for(w, seed))
        prepare_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    digests_agree = _check_digests(plain + traced)
    outcomes = [warm] + plain + traced
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    good_plain = [o.seconds for o in plain if not o.problems]
    good_traced = [o for o in traced if not o.problems]
    if not good_plain or not good_traced:
        raise RuntimeError("no untraced or traced operation completed without a problem")
    untraced_s = statistics.median(good_plain)
    traced_s = statistics.median(o.seconds for o in good_traced)
    epochs = sum(o.epochs for o in good_traced)
    trainings = len(tracer.named("trainer.prepare")) or len(good_traced)
    measured = {
        "graphs.prepare_peak_mb": prepare_peak / layers.MIB,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        "metrics.final_acc": good_traced[0].acc,
        "metrics.final_nmi": good_traced[0].nmi,
    }
    metrics = layers.layer_metrics(probe, epochs=epochs, trainings=trainings, measured=measured)
    detail = {
        "samples": {"untraced": len(plain), "traced": len(traced)},
        "train_s_untraced": untraced_s,
        "train_s_traced": traced_s,
        "traced_digests_match_untraced": digests_agree,
        "digests": list(good_traced[0].digests),
        "absent": sorted(set(tracer.absent)),
        "spans": len(tracer.spans),
        "problems": sorted({p for o in outcomes for p in o.problems}),
    }
    return {k: (float(v), u) for k, (v, u) in metrics.items()}, attempted, failed, detail


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return [float(q) for q in statistics.quantiles(values, n=4, method="inclusive")]


