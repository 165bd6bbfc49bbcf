"""Run one workload in a process of its own and print its figures as JSON.

Started by run.py as ``python3 perfbench/worker.py --workload W --seed S
--seconds T --trace 0|1`` from the root of a checkout.  Each command goes
through ``chebribbon.cli.run(argv)`` in this process, writing to a file
under ``.perfbench/`` via ``--out``.  A pass runs every command of the
workload once; passes repeat until the next one would end after ``--seconds``
(at least two).  With ``--trace 1`` untraced and traced passes alternate
(at least one of each) and the spans are written to
``.perfbench/trace-<workload>.npz``.

Only the ``cli.run`` calls are timed.  Outside that region each output is
hashed and compared with the first pass, the LAPACK floor of each command
with a tridiagonal form is timed right after it, and after the last pass
(with the peak RSS already read) every operation is checked by gate.py.
Then the workload's known-defect commands (workloads.KNOWN_DEFECTS) run
once through the same gate, and their outcomes are reported apart.

On a shared 2-vCPU virtual machine the speed of the same code drifts by up
to 2x in spells of tens of seconds to minutes, whatever else runs in the
guest, so seconds from runs a minute apart disagree by 25% and more.  The
gated timings are therefore ratios to references timed next to each
command: the yardstick (``reference.yardstick_seconds``) brackets every
command, once before it and, once per 0.1 s of the command, after it; the
LAPACK floor follows every command that has a tridiagonal form.  The
seconds themselves are reported beside the ratios.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate
import reference as ref
import spans
import workloads

WORK_DIR = Path(".perfbench")
MIN_PASSES = 2


def import_cli(root):
    """chebribbon.cli from the checkout's own source tree, nowhere else."""
    src = (root / "src").resolve()
    if not (src / "chebribbon" / "cli.py").is_file():
        raise SystemExit(f"no chebribbon sources under {src}")
    sys.path.insert(0, str(src))
    import chebribbon.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported {cli.__file__}, not the checkout's copy")
    return cli


class Run:
    """Outcome and latency of every operation of every pass."""

    def __init__(self, argvs, work):
        self.argvs = argvs
        self.paths = [work / f"op-{i}.out" for i in range(len(argvs))]
        self.first = [None] * len(argvs)   # (exit code, digest) of pass 1
        self.passes = []                   # (traced, wall_s) per pass
        self.times = [[] for _ in argvs]   # untraced latencies per op
        self.output_bytes = []             # per pass
        self.failures = []                 # (pass, op, reason)
        self.scans = [floor_scans(argv) for argv in argvs]
        self.floors = [[] for _ in argvs]  # floor time after each op
        self.yards = [[] for _ in argvs]   # yardstick time around each op

    def run_pass(self, run_fn, traced=False, recorder=None):
        index = len(self.passes)
        wall = 0.0
        nbytes = 0
        before = ref.yardstick_seconds()
        for op, (argv, path) in enumerate(zip(self.argvs, self.paths)):
            if path.exists():
                path.unlink()
            if recorder is not None:
                recorder.current_command = op
            start = time.perf_counter()
            try:
                code = run_fn(argv + ["--out", str(path)])
            except Exception as exc:  # a traceback is a failed operation
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            wall += elapsed
            if not traced:
                # references timed next to the command, so that a slow
                # spell of the machine hits both sides of each ratio; the
                # yardstick brackets the command, one run per 0.1 s of it
                self.times[op].append(elapsed)
                reps = min(10, max(1, round(elapsed / 0.1)))
                after = statistics.fmean(ref.yardstick_seconds()
                                         for _ in range(reps))
                self.yards[op].append((before + after) / 2.0)
                before = after
                self.floors[op].append(ref.floor_seconds(self.scans[op])
                                       if self.scans[op] and code == 0
                                       else None)
            data = path.read_bytes() if path.exists() else b""
            nbytes += len(data)
            outcome = (code, hashlib.sha1(data).hexdigest())
            if self.first[op] is None:
                self.first[op] = outcome
            elif outcome != self.first[op]:
                self.failures.append((index, op, "output or exit code "
                                      "differs from the first pass"))
        self.passes.append((traced, wall))
        self.output_bytes.append(nbytes)
        return wall

    def sums(self, values, where=None):
        """Per untraced pass, the sum of ``values`` over the operations
        whose entry in ``where`` (default: ``values``) was measured."""
        where = where or values
        return [sum(v[p] for v, w in zip(values, where) if w[p] is not None)
                for p in range(len(self.times[0]))]

    def gate(self):
        """Check each operation's output; a defect fails it in every pass
        that reproduced the first pass's outcome."""
        differs = {(p, op) for p, op, _ in self.failures}
        infos = []
        for op, (argv, path) in enumerate(zip(self.argvs, self.paths)):
            code, _ = self.first[op]
            if isinstance(code, str):
                reason, info = code, {"rows": 0, "analytic_rows": 0}
            else:
                text = path.read_text() if path.exists() else ""
                try:
                    reason, info = gate.check(argv, code, text)
                except Exception as exc:  # malformed output, e.g. a key
                    reason = f"gate raised {type(exc).__name__}: {exc}"
                    info = {"rows": 0, "analytic_rows": 0}
            infos.append(info)
            if reason is not None:
                self.failures.extend((p, op, reason)
                                     for p in range(len(self.passes))
                                     if (p, op) not in differs)
        return infos

    @property
    def attempted(self):
        return len(self.passes) * len(self.argvs)


def floor_scans(argv):
    """(model, hoppings, N, k grid) sets of ``argv`` that have a real
    tridiagonal form: ``bands`` and ``validate`` on the floor models."""
    command, opts = gate.parse_argv(argv)
    model = opts["model"]
    if command not in ("bands", "validate") or model not in ref.FLOOR_MODELS:
        return []
    return [(model, ref.hoppings(model, opts), int(opts.get("N", 5)),
             ref.k_grid(model, int(opts.get("k-points", 128))))]


def warm_up(cli, argvs, work):
    """One untimed command per (subcommand, model) of the workload, scans
    shrunk to N = 4 and 2 k-points, so lazy imports and first-call set-up
    are not timed."""
    seen = set()
    for argv in argvs:
        command, opts = gate.parse_argv(argv)
        if (command, opts.get("model")) in seen:
            continue
        seen.add((command, opts.get("model")))
        small = list(argv)
        if "--k-points" in small:
            small[small.index("--k-points") + 1] = "2"
            small[small.index("--N") + 1] = "4"
        try:
            cli.run(small + ["--out", str(work / "warm-up.out")])
        except Exception:  # not an operation: the timed passes count it
            pass


def probe_known_defects(cli, workload, work):
    """Run the workload's known-defect commands once, untimed, through the
    same gate; each with the reason it fails, or None once it passes."""
    argvs = workloads.KNOWN_DEFECTS.get(workload, [])
    if not argvs:
        return []
    (work / "known").mkdir()
    probe = Run(argvs, work / "known")
    probe.run_pass(cli.run)
    probe.gate()
    reasons = {op: reason for _, op, reason in probe.failures}
    return [{"argv": " ".join(argv), "reason": reasons.get(op)}
            for op, argv in enumerate(argvs)]


def quantile(values, q):
    """Inclusive-method quantile, as statistics.quantiles computes it."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def median_ratio(numerators, denominators):
    return statistics.median(n / d for n, d in zip(numerators, denominators))


def measure(cli, workload, seed, seconds, traced, root):
    argvs = workloads.generate(workload, seed)
    work = root / WORK_DIR / f"work-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warm_up(cli, argvs, work)
    run = Run(argvs, work)
    recorders = []
    run_fn = lambda argv: cli.run(argv)  # looks up the (patched) name
    begin = time.perf_counter()
    while True:
        step = run.run_pass(run_fn)
        if traced:
            recorder = spans.Recorder()
            recorder.install()
            try:
                step += run.run_pass(run_fn, traced=True, recorder=recorder)
            finally:
                recorder.uninstall()
            recorders.append(recorder)
        enough = traced or len(run.times[0]) >= MIN_PASSES
        if enough and time.perf_counter() - begin + step > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    infos = run.gate()
    known = probe_known_defects(cli, workload, work)
    latencies = [t for times in run.times for t in times]
    relative = [t / y for times, yards in zip(run.times, run.yards)
                for t, y in zip(times, yards)]
    result = {
        "workload": workload,
        "seed": seed,
        "commands": [" ".join(a) for a in argvs],
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": [{"pass": p, "op": op, "argv": " ".join(argvs[op]),
                      "reason": reason}
                     for p, op, reason in sorted(run.failures)],
        "known_defects": known,
        "passes": len(run.times[0]),
        "samples": len(relative),
        "wall_rel": median_ratio(run.sums(run.times), run.sums(run.yards)),
        "cmd_p50_rel": quantile(relative, 0.5),
        "cmd_p90_rel": quantile(relative, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "lapack_ratio": median_ratio(run.sums(run.times, run.floors),
                                     run.sums(run.floors)),
        "yardstick_s": statistics.median(y for ys in run.yards for y in ys),
        "floor_s": statistics.median(run.sums(run.floors)),
        "wall_s": statistics.median(run.sums(run.times)),
        "cmd_p50_s": quantile(latencies, 0.5),
        "cmd_p90_s": quantile(latencies, 0.9),
    }
    if traced:
        result["layers"] = layer_figures(run, recorders, infos,
                                         result["floor_s"])
        spans.write(recorders, root / WORK_DIR / f"trace-{workload}.npz")
    return result


def layer_figures(run, recorders, infos, floor_s):
    """Per-layer metrics of the fastest traced pass."""
    traced_walls = [w for t, w in run.passes if t]
    fastest = min(range(len(recorders)), key=traced_walls.__getitem__)
    out = spans.layer_metrics(recorders[fastest])
    # self times partition the root spans, which lie inside the pass
    if out.pop("self_total_s") > traced_walls[fastest]:
        raise RuntimeError("layer self times exceed the traced pass wall")
    out["cli.output_bytes"] = statistics.median(run.output_bytes)
    closed = [info for argv, info in zip(run.argvs, infos)
              if argv[0] == "bands" and gate.parse_argv(argv)[1]["model"]
              in gate.CLOSED_FORM_MODELS]
    out["cli.analytic_row_share"] = (sum(i["analytic_rows"] for i in closed)
                                     / sum(i["rows"] for i in closed))
    out["ref.eigh_tridiagonal_s"] = floor_s
    out["trace.overhead_s"] = (traced_walls[fastest]
                               - min(w for t, w in run.passes if not t))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    cli = import_cli(root)
    result = measure(cli, args.workload, args.seed, args.seconds,
                     bool(args.trace), root)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
