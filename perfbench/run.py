"""chebribbon benchmark: closed-form ribbon spectra against the LAPACK floor.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide-scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

For one workload it measures set-up (median of fresh-interpreter imports of
``chebribbon.cli``), runs the workload in a worker process of its own
(worker.py), prints one row per metric with its unit and sample count,
lists every failed operation and the outcome of each known-defect command
(workloads.KNOWN_DEFECTS), and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from separate
traced passes.  The gated timings are ratios to references timed next to
each command (see worker.py); the same timings in seconds are printed
beside them.  ``--workload all`` runs every workload in turn and ends with
a JSON line of per-workload results.  The package is imported from
``src/`` of the checkout; without it the run exits 1 before printing a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 6
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = ("import time; t = time.perf_counter(); import chebribbon.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_rel": "yardstick", "cmd_p50_rel": "yardstick",
    "cmd_p90_rel": "yardstick", "peak_rss_mb": "MB", "lapack_ratio": "ratio",
}
# printed beside them, not gated: seconds drift with the machine's speed
ABSOLUTE = ("wall_s", "cmd_p50_s", "cmd_p90_s")
PER_LAYER_UNITS = {"calls": "count", "output_bytes": "bytes",
                   "analytic_row_share": "share",
                   "nodes_per_root": "ratio"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def run_child(cmd, root, timeout):
    """Run ``cmd`` to completion; its last stdout line."""
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
        raise BenchError(f"{cmd[1]} timed out after {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def import_seconds(root, count):
    """Import times of chebribbon.cli in ``count`` fresh interpreters."""
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    return [float(run_child(cmd, root, 60)) for _ in range(count)]


def run_workload(root, workload, seed, seconds, traced):
    """Set-up is the median of imports before and after the worker, so it
    samples the machine's speed at two times; the first import, which
    byte-compiles the sources, is not counted."""
    import_seconds(root, 1)
    setup = import_seconds(root, SETUP_REPEATS // 2)
    line = run_child([sys.executable, str(HERE / "worker.py"),
                      "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(traced))],
                     root, WORKER_TIMEOUT_S)
    setup += import_seconds(root, SETUP_REPEATS - SETUP_REPEATS // 2)
    result = json.loads(line)
    result["setup_s"] = statistics.median(setup)
    result["setup_samples"] = len(setup)
    return result


def metrics(result, traced):
    if traced:
        return {n: {"value": v, "unit": layer_unit(n)}
                for n, v in result["layers"].items()}
    return {n: {"value": result[n], "unit": unit}
            for n, unit in END_TO_END.items()}


def layer_unit(name):
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def samples(result, name):
    """How many measurements a figure rests on, and the base of a ratio."""
    passes = f"n={result['passes']} passes"
    commands = f"n={result['samples']} commands run"
    yardstick = f"base yardstick_s={result['yardstick_s']:.6g}"
    return {"setup_s": f"n={result['setup_samples']} imports",
            "wall_rel": f"{passes}, {yardstick}",
            "cmd_p50_rel": f"{commands}, {yardstick}",
            "cmd_p90_rel": f"{commands}, {yardstick}",
            "peak_rss_mb": "n=1 process",
            "lapack_ratio": f"{passes}, base ref.eigh_tridiagonal_s="
                            f"{result['floor_s']:.6g}",
            "wall_s": f"{passes}, not gated",
            "cmd_p50_s": f"{commands}, not gated",
            "cmd_p90_s": f"{commands}, not gated"}[name]


def report(result, traced):
    """Human-readable rows: one per metric, then every failed operation."""
    name = result["workload"]
    rows = metrics(result, traced)
    if not traced:
        rows.update({n: {"value": result[n], "unit": "s"} for n in ABSOLUTE})
    for metric, figure in rows.items():
        extra = "" if traced else samples(result, metric)
        print(f"{name:12s} {metric:36s} {figure['value']:>14.6g} "
              f"{figure['unit']:9s} {extra}")
    print(f"{name:12s} {'error_rate':36s} "
          f"{result['failed'] / result['attempted']:>14.6g} share     "
          f"failed={result['failed']} attempted={result['attempted']}")
    for failure in result["failures"]:
        print(f"{name:12s} FAILED pass {failure['pass']} op {failure['op']}: "
              f"{failure['argv']} -- {failure['reason']}")
    for defect in result["known_defects"]:
        state = ("still fails" if defect["reason"] else
                 "now passes, move it back into the workload")
        print(f"{name:12s} KNOWN DEFECT (untimed, not in attempted) {state}: "
              f"{defect['argv']} -- {defect['reason']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "chebribbon" / "cli.py").is_file():
        print("error: run from the root of a chebribbon checkout "
              "(src/chebribbon/cli.py not found)", file=sys.stderr)
        return 1
    names = (sorted(workloads.GENERATORS) if args.workload == "all"
             else [args.workload])
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace))
            report(results[name], bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        figures = {n: metrics(r, bool(args.trace)) for n, r in results.items()}
    else:
        figures = metrics(results[args.workload], bool(args.trace))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": figures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
