"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q

Outside the package's own test paths: they check the benchmark, not the
program.
"""

from __future__ import annotations

import collections
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from chebribbon import cli  # noqa: E402


def cells(argvs):
    """The seed-independent shape of a pass."""
    out = collections.Counter()
    for argv in argvs:
        command, opts = gate.parse_argv(argv)
        out[(command, opts.get("model"), opts.get("N"),
             opts.get("k-points"))] += 1
    return out


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_and_seed_only_varies_inputs(name):
    first = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == first
    other = workloads.generate(name, 8)
    assert other != first
    assert cells(other) == cells(first)
    assert not any("--jobs" in argv for argv in first)


def test_narrow_mix_has_enough_commands_for_p90():
    argvs = workloads.generate("narrow-mix", 1)
    assert len(argvs) >= 100
    share = sum(a[0] == "bands" for a in argvs) / len(argvs)
    assert 0.7 <= share <= 0.8
    assert {gate.parse_argv(a)[1]["model"] for a in argvs} == \
        set(workloads.MODELS)


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 4.0, 1.0, 3.0])
    assert spans.self_times(parent, duration).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_recorder_spans_and_layer_self_times(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    rec = spans.Recorder()
    leaf = rec.wrap("chebpoly.u_all", lambda: None)
    brentq = rec.wrap("_roots.brentq", lambda: (leaf(), leaf()))
    root = rec.wrap("cli.run", lambda: (brentq(), leaf()))
    rec.current_command = 3
    root()
    arrays = rec.arrays()
    assert arrays["parent"].tolist() == [-1, 0, 1, 1, 0]
    assert arrays["command"].tolist() == [3] * 5
    # clock reads: root 0..9, brentq 1..6, leaves 2..3, 4..5, 7..8
    figures = spans.layer_metrics(rec)
    assert figures["cli.self_s"] == 9 - 5 - 1
    assert figures["roots.self_s"] == 5 - 2
    assert figures["chebpoly.self_s"] == 3
    assert figures["chebpoly.u_all.calls"] == 3
    assert figures["roots.brentq.calls"] == 1
    assert figures["self_total_s"] == 9


def test_install_patches_every_namespace_and_uninstall_restores():
    import chebribbon._roots as roots
    import chebribbon.chebpoly as chebpoly
    import chebribbon.square_ribbon as sq
    originals = (chebpoly.u_all, sq.u_all, cli.ipr, roots.brentq, cli.run)
    rec = spans.Recorder()
    rec.install()
    try:
        patched = (chebpoly.u_all, sq.u_all, cli.ipr, roots.brentq, cli.run)
        assert all(p is not o for p, o in zip(patched, originals))
        assert sq.u_all is chebpoly.u_all
        assert cli.run(["bands", "--model", "triangle-zigzag1", "--N", "4",
                        "--k-points", "2", "--out", "/dev/null"]) == 0
    finally:
        rec.uninstall()
    assert (chebpoly.u_all, sq.u_all, cli.ipr, roots.brentq,
            cli.run) == originals
    names = {rec.names[i] for i in rec.arrays()["name_id"]}
    assert {"cli.run", "_roots.brentq", "_roots.angular_scan",
            "chebpoly.u_all", "classify.ipr"} <= names
    assert rec.scan_roots > 0 and rec.scan_nodes > rec.scan_roots


def shrink(argv):
    """Quick mode: the same command at N <= 6 and 4 k-points."""
    argv = list(argv)
    if "--k-points" in argv:
        argv[argv.index("--k-points") + 1] = "4"
    i = argv.index("--N") + 1 if "--N" in argv else None
    if i and int(argv[i]) > 6 and "--band" not in argv and "--j" not in argv:
        argv[i] = "6"
    return argv


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_quick_workload_passes_the_gate(name, tmp_path):
    argvs = [shrink(a) for a in workloads.generate(name, 3)]
    run = worker.Run(argvs, tmp_path)
    for _ in range(2):
        run.run_pass(cli.run)
    run.gate()
    assert run.failures == []
    assert run.attempted == 2 * len(argvs)
    assert all(len(t) == 2 for t in run.times + run.yards + run.floors)
    floor_ops = run.sums(run.times, run.floors)
    assert all(0.0 < f for f in run.sums(run.floors))
    assert all(0.0 < a <= b for a, b in zip(floor_ops, run.sums(run.times)))


BANDS = ["bands", "--model", "triangle-zigzag1", "--N", "4", "--t1", "0.9",
         "--t2", "0.1", "--k-points", "3"]


def wrong_energy(argv):
    """The real CLI, then one energy moved by 1e-6."""
    code = cli.run(argv)
    path = Path(argv[argv.index("--out") + 1])
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return code


def failing_run(argv):
    if "--N" in argv and argv[argv.index("--N") + 1] == "0":
        return cli.run(argv)
    if "--t2" in argv and argv[argv.index("--t2") + 1] == "0.2":
        return wrong_energy(argv)
    if "--t2" in argv and argv[argv.index("--t2") + 1] == "0.3":
        raise RuntimeError("boom")
    return cli.run(argv)


def test_known_defects_still_fail(tmp_path):
    """Once this fails, the defect is fixed: move its commands from
    workloads.KNOWN_DEFECTS back into the workload."""
    for name, argvs in workloads.KNOWN_DEFECTS.items():
        assert name in workloads.GENERATORS
        (tmp_path / name).mkdir()
        known = worker.probe_known_defects(cli, name, tmp_path / name)
        assert [k["argv"] for k in known] == [" ".join(a) for a in argvs]
        for k in known:
            assert k["reason"].startswith("raised ValueError"), k


def test_wrong_energy_nonzero_exit_and_raise_count_as_failures(tmp_path):
    def variant(t2):
        argv = list(BANDS)
        argv[argv.index("--t2") + 1] = t2
        return argv
    bad_exit = list(BANDS)
    bad_exit[bad_exit.index("--N") + 1] = "0"
    argvs = [BANDS, variant("0.2"), bad_exit, variant("0.3")]
    run = worker.Run(argvs, tmp_path)
    for _ in range(3):
        run.run_pass(failing_run)
    run.gate()
    failed = collections.Counter(op for _, op, _ in run.failures)
    assert failed == {1: 3, 2: 3, 3: 3}
    reasons = {op: reason for _, op, reason in run.failures}
    assert "differs from reference" in reasons[1]
    assert reasons[2] == "exit code 2"
    assert reasons[3].startswith("raised RuntimeError")
    assert run.attempted == 12


def test_gate_rejects_non_finite_and_short_outputs():
    text = ("k,band,energy,class,u,ipr,source\n"
            "0.5,1,nan,bulk,,0.5,analytic\n")
    reason, _ = gate.check(BANDS, 0, text)
    assert "rows" in reason
    reason, _ = gate.check(["edges", "--model", "square-zigzag"], 0,
                           '{"branch": [{"u": NaN}]}')
    assert "non-finite" in reason
    reason, _ = gate.check(["validate"], 0, '{"status": "fail"}')
    assert "fail" in reason


def test_emitted_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    argvs = [shrink(workloads.generate("wide-scan", 1)[0])]
    run = worker.Run(argvs, tmp_path)
    run.run_pass(cli.run)
    rec = spans.Recorder()
    rec.install()
    try:
        run.run_pass(lambda argv: cli.run(argv), traced=True, recorder=rec)
    finally:
        rec.uninstall()
    figures = worker.layer_figures(run, [rec], run.gate(), 1.0)
    assert {n: bench.layer_unit(n) for n in figures} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_and_load(argv, tmp_path):
    out = tmp_path / "out.json"
    assert cli.run(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


EDGES = ["edges", "--model", "triangle-zigzag2", "--N", "4", "--t1", "0.9",
         "--t2", "0.1", "--t3", "1"]


def test_edges_gate_rejects_empty_and_off_spectrum_tables(tmp_path):
    payload = run_and_load(EDGES, tmp_path)
    assert gate.check(EDGES, 0, json.dumps(payload))[0] is None
    emptied = json.loads(json.dumps(payload))
    emptied["branch"]["B"]["minus"] = []
    reason, _ = gate.check(EDGES, 0, json.dumps(emptied))
    assert "table is empty" in reason
    moved = json.loads(json.dumps(payload))
    moved["branch"]["A"]["plus"][5]["energy"] += 1e-3
    reason, _ = gate.check(EDGES, 0, json.dumps(moved))
    assert "from the reference spectrum" in reason
    square = ["edges", "--model", "square-zigzag", "--N", "4", "--tu", "1",
              "--td", "0.6", "--tr", "1"]
    payload = run_and_load(square, tmp_path)
    assert gate.check(square, 0, json.dumps(payload))[0] is None
    payload["branch"] = []
    assert "empty branch table" in gate.check(square, 0,
                                               json.dumps(payload))[0]


def test_zeromodes_gate_needs_the_generated_mode(tmp_path):
    hop, j = workloads._zero_mode_hoppings(random.Random(2), 9)
    argv = ["zeromodes", "--model", "square-general", "--N", "9", *hop,
            "--j", str(j)]
    payload = run_and_load(argv, tmp_path)
    assert gate.check(argv, 0, json.dumps(payload))[0] is None
    payload["admissible"] = []
    reason, _ = gate.check(argv, 0, json.dumps(payload))
    assert "not admissible" in reason


def test_malformed_output_is_a_failure_not_a_crash(tmp_path):
    def malformed(argv):
        Path(argv[argv.index("--out") + 1]).write_text("[1, 2]")
        return 0
    run = worker.Run([EDGES], tmp_path)
    run.run_pass(malformed)
    run.gate()
    assert [(p, op) for p, op, _ in run.failures] == [(0, 0)]
    assert run.failures[0][2].startswith("gate raised")
