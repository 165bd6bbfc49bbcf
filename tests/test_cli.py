"""End-to-end command-line behavior: tables, reports, and exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from chebribbon import square_ribbon as sq
from chebribbon import triangle_ribbon as tri
from chebribbon.classify import ipr
from chebribbon.cli import (_STATE_BLOCK, _block_iprs, _emit,
                            _square_zigzag_states, _triangle_states, run)
from chebribbon.hamiltonian import ModelKind, SquareHoppings, TriangleHoppings

HEADER = "k,band,energy,class,u,ipr,source"


def _bands(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------ bands --

def test_bands_csv_shape(capsys):
    rows = _bands(capsys, ["bands", "--model", "square-zigzag", "--N", "5",
                           "--k-points", "16"])
    assert len(rows) == 160
    for start in range(0, 160, 10):
        group = rows[start:start + 10]
        assert [int(r[1]) for r in group] == list(range(1, 11))
        assert len({r[0] for r in group}) == 1  # one momentum per group
        energies = [float(r[2]) for r in group]
        assert energies == sorted(energies)
        for r in group:
            assert r[3] in ("bulk", "edge-both", "transition")
            assert (r[4] != "") == (r[3] == "edge-both")
            assert r[6] == "analytic"
    assert any(r[3] == "edge-both" for r in rows)
    assert any(r[3] == "bulk" for r in rows)


def test_bands_deterministic(capsys):
    argv = ["bands", "--model", "square-zigzag", "--N", "4",
            "--k-points", "12"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("kind", [ModelKind.TRIANGLE_ZIGZAG1,
                                  ModelKind.TRIANGLE_ZIGZAG2])
def test_triangle_state_blocks_equal_single_states(kind):
    N, k = 200, 0.4
    h = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    zz1 = kind == ModelKind.TRIANGLE_ZIGZAG1
    roots = (tri.zz1_roots if zz1 else tri.zz2_roots)(h, N, k)
    theta = tri.zeta_of_k(h, k)[1]
    seen = []
    for block, states in _triangle_states(kind, h, N, k, 1.0, roots):
        assert states.shape == (N, len(block))
        assert len(block) == 1 or len(block) * N <= _STATE_BLOCK
        for col, i in enumerate(block):
            root = roots[i]
            if root.kind == "edge":
                expected = (tri.zz1_edge_state(root.u, N, root.sign, theta)
                            if zz1 else tri.zz2_edge_bloch_state(
                                root.u, N, root.sign, root.family, theta))
            else:
                expected = (tri.zz1_state if zz1 else tri.zz2_state)(
                    root.energy, h, N, k)
            assert np.array_equal(states[:, col], expected)
        seen.extend(block)
    assert sorted(seen) == list(range(N))
    assert any(r.kind == "edge" for r in roots)
    assert N * N > 2 * _STATE_BLOCK  # several bulk blocks


def test_square_state_blocks_equal_single_states():
    N, k = 120, 0.3
    xi, _ = sq.xi_of_k(SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0), k)
    omegas = sq.zigzag_spectrum(abs(xi), N)
    signed = np.concatenate([-omegas[::-1], omegas])
    seen = []
    for block, states in _square_zigzag_states(xi, signed, N):
        assert len(block) * 2 * N <= _STATE_BLOCK
        for col, i in enumerate(block):
            assert np.array_equal(states[:, col],
                                  sq.zigzag_full_state(xi, signed[i], N))
        seen.extend(block)
    assert seen == list(range(2 * N))
    assert len(seen) * 2 * N > 2 * _STATE_BLOCK


def _columns(blocks):
    """The states that (indices, states) blocks hold, in index order."""
    found = {i: states[:, col] for block, states in blocks
             for col, i in enumerate(block)}
    return [found[i] for i in sorted(found)]


def _reference_ipr(state):
    # the per-state reduction that the block IPRs replace
    p2 = np.abs(state) ** 2
    total = p2.sum()
    return float((p2 * p2).sum() / (total * total))


def test_block_iprs_equal_single_state_iprs():
    # several blocks of bulk states, and triangle edge states one by one
    N, k = 120, 0.3
    xi, _ = sq.xi_of_k(SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0), k)
    omegas = sq.zigzag_spectrum(abs(xi), N)
    signed = np.concatenate([-omegas[::-1], omegas])
    cases = [(list(_square_zigzag_states(xi, signed, N)), 2 * N)]
    h = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    for kind, N in ((ModelKind.TRIANGLE_ZIGZAG1, 200),
                    (ModelKind.TRIANGLE_ZIGZAG2, 7)):
        roots = (tri.zz1_roots if N == 200 else tri.zz2_roots)(h, N, 0.4)
        assert any(r.kind == "edge" for r in roots)
        cases.append((list(_triangle_states(kind, h, N, 0.4, 1.0, roots)), N))
    assert len(cases[0][0]) > 2 and len(cases[1][0]) > 2
    for blocks, count in cases:
        columns = _columns(blocks)
        assert _block_iprs(blocks, count) == [ipr(c) for c in columns] \
            == [_reference_ipr(c) for c in columns]


def test_bands_floats_round_trip_through_text(capsys):
    rows = _bands(capsys, ["bands", "--model", "square-zigzag", "--N", "3",
                           "--k-points", "8"])
    for r in rows:
        for cell in (r[0], r[2], r[5]) + ((r[4],) if r[4] else ()):
            assert format(float(cell), ".17g") == cell


def test_bands_left_right_model_single_momentum(capsys):
    rows = _bands(capsys, ["bands", "--model", "square-lr", "--N", "1",
                           "--k-points", "1"])
    assert len(rows) == 2
    for r in rows:
        assert float(r[0]) == 0.0
        assert r[3] == "bulk"
        assert r[4] == ""
        assert float(r[5]) == pytest.approx(0.5)  # uniform over two sites
        assert r[6] == "analytic"
    assert float(rows[0][2]) == pytest.approx(-2.0, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(2.0, abs=1e-12)


def test_bands_json_format(capsys):
    code = run(["bands", "--model", "square-zigzag", "--N", "2",
                "--k-points", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == HEADER.split(",")
    assert len(payload["rows"]) == 8
    for row in payload["rows"]:
        assert row[6] == "analytic"
        if row[3] != "edge-both":
            assert row[4] is None


def test_bands_to_output_file(capsys, tmp_path):
    target = tmp_path / "bands.csv"
    code = run(["bands", "--model", "square-lr", "--N", "2",
                "--k-points", "2", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = target.read_text().strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 9


# ------------------------------------------------------------------ edges --

def test_edges_square_never_emerge(capsys):
    code = run(["edges", "--model", "square-zigzag", "--tu", "2",
                "--td", "0.1", "--tr", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "never-emerge"
    assert payload["branch"] == []
    assert payload["xi_range"] == pytest.approx([1.9, 2.1])
    assert payload["critical"]["xi"] == pytest.approx(5.0 / 6.0)
    assert payload["critical"]["omega"] == pytest.approx(1.0 / 6.0)
    assert payload["hoppings"] == {"tu": 2.0, "td": 0.1, "tr": 1.0,
                                   "tl": 0.0}


def test_edges_square_transition_branch(capsys):
    code = run(["edges", "--model", "square-zigzag"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "edge-bulk-transition"
    table = payload["branch"]
    assert table
    us = [pt["u"] for pt in table]
    omegas = [pt["omega"] for pt in table]
    assert us == sorted(us)
    assert omegas == sorted(omegas, reverse=True)
    for pt in table:
        assert 0.0 <= pt["xi"] <= 2.0


def test_edges_triangle_one_sided(capsys):
    code = run(["edges", "--model", "triangle-zigzag1", "--t1", "0.9",
                "--t2", "0.1", "--t3", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["existence"]["plus"]["threshold"] == pytest.approx(0.4)
    assert payload["existence"]["minus"]["threshold"] == pytest.approx(0.5)
    assert payload["existence"]["plus"]["exists"]
    assert payload["existence"]["minus"]["exists"]
    assert payload["critical"]["one_sided_bound"] == pytest.approx(5.0 / 6.0)
    assert payload["branch"]["plus"] and payload["branch"]["minus"]
    sample = payload["branch"]["plus"][0]
    assert set(sample) == {"u", "cos_ka", "k", "energy"}


def test_edges_triangle_two_sided(capsys):
    code = run(["edges", "--model", "triangle-zigzag2", "--t1", "1.5",
                "--t2", "0.1", "--t3", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["critical"]["family_B_bound"] == pytest.approx(2.0 / 3.0)
    for side in ("plus", "minus"):
        assert payload["existence"]["A"][side]["exists"]
        assert not payload["existence"]["B"][side]["exists"]
        assert payload["branch"]["A"][side]
        assert payload["branch"]["B"][side] == []
    run(["edges", "--model", "triangle-zigzag2", "--t1", "0.9",
         "--t2", "0.1", "--t3", "1"])
    weak = json.loads(capsys.readouterr().out)
    assert weak["branch"]["B"]["plus"] and weak["branch"]["B"]["minus"]


def test_edges_rejects_models_without_branch_analytics(capsys):
    for model in ("square-lr", "triangle-linear", "square-general"):
        assert run(["edges", "--model", model]) == 2
        assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------- validate --

def test_validate_default_matrix(capsys):
    code = run(["validate"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["violations"] == []
    assert set(payload["reports"]) == {
        "square-zigzag", "square-lr", "square-general-zero-modes",
        "triangle-linear", "triangle-zigzag1", "triangle-zigzag2",
        "edge-branches"}
    for report in payload["reports"].values():
        assert report["max_overlap_deficit"] <= 1e-8


def test_validate_single_model_wide_ribbon(capsys):
    code = run(["validate", "--model", "square-zigzag", "--N", "13",
                "--k-points", "32"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "pass"
    assert list(payload["reports"]) == ["square-zigzag"]
    assert payload["reports"]["square-zigzag"]["agreement"] >= 0.99


def test_validate_fails_at_impossible_tolerance(capsys):
    code = run(["validate", "--k-points", "16", "--tol", "1e-16"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["status"] == "fail"
    assert payload["violations"]
    sample = payload["violations"][0]
    assert set(sample) == {"model", "k", "band", "metric", "value"}


# ------------------------------------------------------------ config file --

def test_config_file_merges_under_flags(capsys, tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"model": "square-zigzag", "N": 3,
                               "k_points": 4}))
    rows = _bands(capsys, ["bands", "--config", str(cfg), "--N", "5"])
    assert len(rows) == 40  # N from the flag (5 -> 10 bands), grid from file


@pytest.mark.parametrize("data", [
    {"model": "square-zigzag", "N": "5"},
    {"model": "square-zigzag", "N": True},
    {"model": "square-zigzag", "N": 5.0},
    {"model": "square-zigzag", "tu": "1"},
    {"model": "square-zigzag", "tu": False},
    {"model": "square-zigzag", "tu": [1.0]},
    {"model": "square-zigzag", "tu": 10 ** 400},
    {"model": "square-zigzag", "k_points": 4.5},
    {"model": 3},
    {"model": "square-zigzag", "format": "xml"},
    {"model": "square-zigzag", "out": 1},
    ["model", "square-zigzag"],
])
def test_config_file_rejects_wrong_types(capsys, tmp_path, data):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(data))
    assert run(["bands", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_config_file_values_act_like_flags(capsys, tmp_path):
    # an integer stands for a float, and the wavefunction defaults (sign,
    # family) give way to the file as every other flag does
    flags = ["--model", "triangle-zigzag2", "--N", "6", "--t1", "1",
             "--t2", "0.1"]
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"model": "triangle-zigzag2", "N": 6, "t1": 1,
                               "t2": 0.1, "u": 0.5, "sign": -1,
                               "family": "B"}))
    outputs = []
    for argv in (["edges", "--config", str(cfg)], ["edges", *flags],
                 ["wavefunction", "--config", str(cfg)],
                 ["wavefunction", *flags, "--u", "0.5", "--sign", "-1",
                  "--family", "B"],
                 ["wavefunction", *flags, "--u", "0.5"]):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert '"t1": 1.0,' in outputs[0]
    assert outputs[0] == outputs[1]
    assert outputs[2] == outputs[3] != outputs[4]


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"model": "square-zigzag", "bogus": 1}))
    assert run(["bands", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------ wavefunction --

def test_wavefunction_square_edge_branch(capsys):
    code = run(["wavefunction", "--model", "square-zigzag", "--N", "6",
                "--u", "0.8"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,sublattice,abs,re,im,source"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 12
    assert [r[1] for r in rows[:6]] == ["circ"] * 6
    assert [r[1] for r in rows[6:]] == ["bullet"] * 6
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6] * 2
    amps = np.array([float(r[2]) for r in rows])
    assert np.sum(amps ** 2) == pytest.approx(1.0, rel=1e-12)
    circ = amps[:6]
    assert np.all(np.diff(circ) < 0.0)
    assert all(r[5] == "analytic" for r in rows)


def test_wavefunction_triangle_two_sided_branch(capsys):
    code = run(["wavefunction", "--model", "triangle-zigzag2", "--N", "8",
                "--u", "0.5", "--family", "B", "--t1", "0.3", "--t2", "0.2",
                "--t3", "1"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 8
    assert all(r[1] == "" for r in rows)
    amps = np.array([float(r[2]) for r in rows])
    assert np.sum(amps ** 2) == pytest.approx(1.0, rel=1e-12)
    assert amps[0] == pytest.approx(amps[-1], rel=1e-12)  # mirror moduli


def test_wavefunction_oracle_band(capsys):
    code = run(["wavefunction", "--model", "triangle-linear", "--N", "4",
                "--band", "2", "--k", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 4
    assert all(r[5] == "oracle" for r in rows)
    amps = np.array([float(r[2]) for r in rows])
    assert np.sum(amps ** 2) == pytest.approx(1.0, rel=1e-10)


def test_wavefunction_zero_mode_rows(capsys):
    code = run(["wavefunction", "--model", "square-general", "--N", "5",
                "--j", "2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 10
    amps = np.array([float(r[2]) for r in rows])
    assert np.sum(amps ** 2) == pytest.approx(1.0, rel=1e-12)


# -------------------------------------------------------------- zeromodes --

def test_zeromodes_isotropic_report(capsys):
    code = run(["zeromodes", "--model", "square-general"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["k0_family_feasible"] is True
    assert payload["suppression_ratio"] == pytest.approx(1.0)
    assert payload["localization"] == "none"
    assert len(payload["admissible"]) == 10  # +-k for each of j = 1..5
    assert "solve" not in payload


def test_zeromodes_solver_and_localization(capsys):
    code = run(["zeromodes", "--model", "square-general", "--j", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["solve"]["j"] == 1
    assert payload["solve"]["tu_plus_td"] == pytest.approx(math.sqrt(3.0))
    run(["zeromodes", "--model", "square-general", "--tr", "0.8",
         "--tl", "1.0"])
    tilted = json.loads(capsys.readouterr().out)
    assert tilted["localization"] == "bullet-left-circ-right"
    assert tilted["suppression_ratio"] == pytest.approx(0.8)


def test_zeromodes_rejections(capsys):
    assert run(["zeromodes", "--model", "triangle-linear"]) == 2
    capsys.readouterr()
    assert run(["zeromodes", "--model", "square-general", "--tl", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# -------------------------------------------------------------- exit codes --

@pytest.mark.parametrize("argv", [
    [],
    ["bands"],
    ["bands", "--model", "no-such-lattice"],
    ["bands", "--model", "square-zigzag", "--tr", "-1"],
    ["bands", "--model", "square-zigzag", "--tl", "0.5"],
    ["bands", "--model", "square-zigzag", "--k-points", "0"],
    ["bands", "--model", "triangle-zigzag2", "--N", "1"],
    ["wavefunction", "--model", "square-zigzag", "--u", "0.5",
     "--band", "3"],
    ["wavefunction", "--model", "square-zigzag", "--band", "99"],
    ["wavefunction", "--model", "square-zigzag"],
    ["wavefunction", "--model", "triangle-zigzag1", "--t1", "3",
     "--t2", "0.1", "--u", "0.5"],
    ["bands", "--model", "triangle-zigzag1", "--t1", "inf"],
    ["bands", "--model", "square-zigzag", "--tu", "nan"],
    ["bands", "--model", "triangle-zigzag1", "--t1", "nan"],
    ["bands", "--model", "square-zigzag", "--a", "inf"],
    ["bands", "--model", "triangle-linear", "--a", "nan"],
    ["bands", "--model", "square-zigzag", "--tr", "0"],
    ["bands", "--model", "square-lr", "--tr", "0"],
    ["wavefunction", "--model", "square-zigzag", "--u", "-1"],
    ["wavefunction", "--model", "triangle-zigzag1", "--u", "nan"],
    ["validate", "--model", "triangle-zigzag1", "--tol", "nan"],
    ["validate", "--model", "triangle-zigzag1", "--tol", "-1"],
    ["validate", "--tol", "inf"],
    ["wavefunction", "--model", "square-zigzag", "--band", "1", "--k", "nan"],
    ["wavefunction", "--model", "triangle-zigzag1", "--band", "1",
     "--k", "inf"],
    ["wavefunction", "--model", "square-general", "--j", "1", "--k", "-inf"],
    ["wavefunction", "--model", "square-general", "--j", "1", "--k", "0.3"],
    ["wavefunction", "--model", "square-general", "--tl", "0", "--j", "1"],
    ["zeromodes", "--model", "square-general", "--tl", "0.5", "--j", "99"],
    ["zeromodes", "--model", "square-general", "--j", "0"],
])
def test_invalid_invocations_exit_2(capsys, argv):
    assert run(argv) == 2
    capsys.readouterr()


def test_module_runs_as_a_script():
    run_module = [sys.executable, "-m", "chebribbon.cli"]
    ok = subprocess.run(run_module + ["bands", "--model", "square-zigzag",
                                      "--N", "3", "--k-points", "2"],
                        capture_output=True, text=True)
    assert ok.returncode == 0
    assert ok.stdout.splitlines()[0] == HEADER
    assert len(ok.stdout.splitlines()) == 1 + 2 * 6
    bad = subprocess.run(run_module + ["bands", "--model", "square-zigzag",
                                       "--tr", "-1"],
                         capture_output=True, text=True)
    assert bad.returncode == 2
    assert bad.stdout == "" and bad.stderr.startswith("error:")


def test_broken_pipe_exits_without_traceback():
    # a downstream `head`-style reader that closes early must not leave a
    # traceback on stderr; the large two-sided edges report overfills the
    # pipe buffer, so the writer is still writing when the reader quits
    proc = subprocess.Popen(
        [sys.executable, "-c", "from chebribbon.cli import main; main()",
         "edges", "--model", "triangle-zigzag2", "--t1", "0.9",
         "--t2", "0.1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.parametrize("unbuffered", [True, False])
def test_broken_pipe_exits_1_buffered_or_not(unbuffered):
    # the same cut-off `edges` report as above, with a write-through stdout
    # (PYTHONUNBUFFERED=1) and with the default buffered one, whatever the
    # caller's environment holds
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c", "from chebribbon.cli import main; main()",
         "edges", "--model", "triangle-zigzag2", "--t1", "0.9",
         "--t2", "0.1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


class _ShortWriter(io.RawIOBase):
    """Raw sink that takes at most 7 bytes per write, like a pipe whose
    reader drains it a little at a time."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        taken = bytes(b)[:7]
        self.data += taken
        return len(taken)


def test_emit_writes_all_bytes_through_short_writes(monkeypatch):
    raw = _ShortWriter()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
        raw, encoding="utf-8", write_through=True))
    text = "k,band,energy\n0.5,1,-1.25\n" * 10
    _emit(None, text)
    assert raw.data.decode("utf-8") == text


def test_bands_to_stdout_without_buffer(capsys):
    argv = ["bands", "--model", "square-zigzag", "--N", "5",
            "--k-points", "8"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert run(argv) == 0
    assert plain.getvalue() == printed
    assert printed.startswith(HEADER + "\n")
