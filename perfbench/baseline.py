"""Repeat every workload over seeds and summarise each metric across runs.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 50 \
        [--out perfbench/BASELINE.json]

Each run is what ``run.py --workload W --seed S --seconds T --trace 0``
measures.  For every workload and end-to-end metric it prints the median,
the quartiles (as ``statistics.quantiles(values, n=4)`` gives them), the
spread (Q3 - Q1) / median and the number of runs, then the same as a
markdown table.  With ``--out`` it also writes every run and the summary as
JSON.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "runs": len(values)}


def run_once(root, name, seed, seconds):
    result = bench.run_workload(root, name, seed, seconds, traced=False)
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"], "failures": result["failures"],
            "passes": result["passes"], "samples": result["samples"],
            "floor_s": result["floor_s"],
            "metrics": bench.metrics(result, traced=False)}


def markdown(summary):
    lines = ["| workload | metric | median | Q1 | Q3 | spread | runs |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for name, metrics in summary.items():
        for metric, s in metrics["metrics"].items():
            spread = "" if s["spread"] is None else f"{s['spread']:.3f}"
            lines.append(f"| {name} | {metric} | {s['median']:.6g} | "
                         f"{s['q1']:.6g} | {s['q3']:.6g} | {spread} | "
                         f"{s['runs']} |")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--out")
    args = parser.parse_args()
    root = Path.cwd()
    runs = {name: [] for name in sorted(workloads.GENERATORS)}
    try:
        for name, results in runs.items():
            for seed in args.seeds:
                result = run_once(root, name, seed, args.seconds)
                results.append(result)
                print(f"{name} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.6g}"
                    for m, v in result["metrics"].items())
                    + f" failed={result['failed']}/{result['attempted']}",
                    flush=True)
    except bench.BenchError as exc:
        sys.exit(f"error: {exc}")
    summary = {}
    for name, results in runs.items():
        summary[name] = {
            "metrics": {m: summarise([r["metrics"][m]["value"]
                                      for r in results])
                        for m in results[0]["metrics"]},
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "commands_run": sorted({r["samples"] for r in results}),
            "passes_per_run": sorted({r["passes"] for r in results}),
            "ref.eigh_tridiagonal_s": summarise([r["floor_s"]
                                                 for r in results]),
        }
    print(markdown(summary))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "seeds": args.seeds,
             "summary": summary, "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
