"""icmvc benchmark: one workload per call, measured from outside the program.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (the directory holding ``src/icmvc``).
With ``--trace 0`` it times set-up and whole trainings, untraced, for about
``--seconds`` seconds and reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced trainings and reports the per-layer metrics
and the tracing overhead. Every training's outputs are checked. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one operation in a fresh process, working in the given
    # directory, and print the process's peak RSS
    parser.add_argument("--rss-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(names, args) -> int:
    """Run every workload in its own fresh process, one after another, and
    end with one JSON object whose metrics are keyed ``<workload>/<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "icmvc" / "__init__.py").is_file():
        print(f"error: {SRC / 'icmvc'} not found; run from a source checkout of icmvc", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import harness
    import workloads

    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    if args.rss_probe:
        work_dir = Path(args.rss_probe)
        try:
            print(json.dumps(harness.run_probe(w, args.seed, work_dir)))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0

    work_dir = WORK_ROOT / f"{w.name}-{os.getpid()}"
    try:
        inputs = workloads.make_inputs(w, args.seed, work_dir)
        measure = harness.measure_layers if args.trace else harness.measure_end_to_end
        metrics, attempted, failed, detail = measure(w, inputs, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    print(f"workload {w.name}: {w.why}")
    print(f"environment {json.dumps(harness.environment(), sort_keys=True)}")
    print(f"detail {json.dumps(detail, sort_keys=True)}")
    print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    if not args.trace:
        print(f"acc {detail['acc']:.6g} ratio")
        print(f"nmi {detail['nmi']:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            print(f"error: metric {name} is not finite", file=sys.stderr)
            return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
