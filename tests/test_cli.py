"""End-to-end command-line behavior: tables, reports, and exit codes."""

import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from chebribbon import square_ribbon as sq
from chebribbon import triangle_ribbon as tri
from chebribbon import cli
from chebribbon.chebpoly import u_profile_ipr
from chebribbon.classify import ipr
from chebribbon.cli import ScanConfig, _emit, run
from chebribbon.errors import DegenerateParameterError, RootCountError
from chebribbon.hamiltonian import (ModelKind, RibbonModel, SquareHoppings,
                                    TriangleEdge, TriangleHoppings,
                                    build_triangle_bloch)

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


@pytest.mark.parametrize("kind", [ModelKind.SQUARE_ZIGZAG,
                                  ModelKind.TRIANGLE_ZIGZAG1])
def test_k_grid_is_antisymmetric_and_on_the_midpoints(kind):
    model = RibbonModel(kind, 5)
    half = Fraction(model.bz_halfwidth)
    for m in range(1, 301):
        k = ScanConfig(model=model, hoppings=None, k_points=m).k_grid()
        assert len(k) == m and (k[::-1] == -k).all()
        for i, value in enumerate(k.tolist()):
            exact = half * Fraction(2 * i + 1 - m, m)
            if exact == 0:
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
            else:
                assert abs(Fraction(value) - exact) \
                    <= Fraction(2.5e-16) * abs(exact), (m, i)


def test_bands_deterministic(capsys):
    argv = ["bands", "--model", "square-zigzag", "--N", "4",
            "--k-points", "12"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def _single_triangle_states(kind, h, N, k, roots):
    """The state of each root of the table `roots`, one by one, normalized:
    the bulk ones at the angle read back from their energies."""
    zz1 = kind == ModelKind.TRIANGLE_ZIGZAG1
    theta = tri.zeta_of_k(h, k)[1]
    for energy, u, sign, family, edge in zip(
            roots.energy.tolist(), roots.u.tolist(), roots.sign.tolist(),
            roots.family.tolist(), roots.edge):
        if not edge:
            yield (tri.zz1_state if zz1 else tri.zz2_state)(energy, h, N, k)
            continue
        if zz1:
            psi = tri.zz1_edge_state(u, N, sign, theta)
        else:
            psi = tri.zz2_edge_state(u, N, sign, family, -theta)
        yield psi / np.linalg.norm(psi)


def _scan(kind, N, hoppings, k_points):
    """The scan of `kind` and the momentum of each of its solved ones."""
    config = ScanConfig(model=RibbonModel(kind, N), hoppings=hoppings,
                        k_points=k_points)
    scan = cli._SCANS[kind](config)
    return scan, [k for k, rows, mirrored in scan.grid
                  if isinstance(rows, slice) and not mirrored]


@pytest.mark.parametrize("kind", [ModelKind.TRIANGLE_ZIGZAG1,
                                  ModelKind.TRIANGLE_ZIGZAG2])
def test_triangle_state_blocks_equal_single_states(kind):
    # states(m) forms each bulk state at its root's angle; zz1_state reads
    # the angle back from the energy, which loses digits near the band
    # edges, so the two agree to that loss; edge states are the same
    N = 200
    h = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    scan, momenta = _scan(kind, N, h, 3)
    roots_of = tri.zz1_roots if kind == ModelKind.TRIANGLE_ZIGZAG1 \
        else tri.zz2_roots
    for m, k in enumerate(momenta):
        roots = roots_of(h, N, k)
        assert roots.edge.any()
        block = scan.states(m)
        assert block.shape == (N, N)
        for state, single, edge in zip(
                block.T, _single_triangle_states(kind, h, N, k, roots),
                roots.edge):
            if edge:
                assert np.array_equal(state, single)
            else:
                np.testing.assert_allclose(state, single, rtol=0, atol=1e-9)


def test_square_state_blocks_equal_single_states():
    N = 120
    h = SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0)
    scan, momenta = _scan(ModelKind.SQUARE_ZIGZAG, N, h, 4)
    assert any(label == "edge-both" for label in scan.label)
    for m, k in enumerate(momenta):
        xi = sq.xi_of_k(h, k)[0]
        rows = slice(m * 2 * N, (m + 1) * 2 * N)
        single = sq.zigzag_full_state(xi, scan.energy[rows] / h.tr, N)
        np.testing.assert_allclose(scan.states(m), single, rtol=0,
                                   atol=1e-9)


def _counting(monkeypatch, module, name):
    """Count the calls of module.name."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_closed_form_iprs_equal_single_state_iprs():
    # the ipr column is the IPR of the states validate checks: several
    # momenta, wide and narrow ribbons, edge rows among bulk ones
    square = SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0)
    triangle = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    for kind, N, k_points, hoppings in (
            (ModelKind.SQUARE_ZIGZAG, 120, 3, square),
            (ModelKind.SQUARE_ZIGZAG, 7, 18, square),
            (ModelKind.SQUARE_LR, 9, 5,
             SquareHoppings(tu=0.9, td=0.4, tl=0.7, tr=0.7)),
            (ModelKind.TRIANGLE_LINEAR, 9, 5,
             TriangleHoppings(t1=1.2, t2=0.7, t3=0.9)),
            (ModelKind.TRIANGLE_ZIGZAG1, 200, 3, triangle),
            (ModelKind.TRIANGLE_ZIGZAG2, 7, 22, triangle)):
        scan, momenta = _scan(kind, N, hoppings, k_points)
        assert (scan.label != "bulk").any() == kind.value.endswith(
            ("zigzag", "zigzag1", "zigzag2"))
        dim = RibbonModel(kind, N).dim
        for m in range(len(momenta)):
            np.testing.assert_allclose(scan.ipr[m * dim:(m + 1) * dim],
                                       ipr(scan.states(m)), rtol=1e-12)


def _transition_commands(count, seed):
    """`bands` commands on the triangular zigzag models whose t3 puts
    |tau/zeta| on an edge threshold, to rounding, at one grid momentum."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        zz1 = rng.random() < 0.5
        N, m = rng.randint(2, 14), rng.randint(1, 9)
        k = ScanConfig(model=RibbonModel(ModelKind.TRIANGLE_ZIGZAG1, N),
                       hoppings=None, k_points=m).k_grid()[rng.randrange(m)]
        if abs(math.cos(k)) < 1e-3:
            continue
        t1, t2 = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
        zeta = abs(tri.zeta_of_k(TriangleHoppings(t1, t2, 1.0), k)[0])
        threshold = (N + 1) / N if zz1 else rng.choice(
            [1.0, (N + 1) / (N - 1)])
        t3 = threshold * zeta / (2.0 * abs(math.cos(k)))
        out.append(["bands", "--model", "triangle-zigzag1" if zz1
                    else "triangle-zigzag2", "--N", str(N), "--t1", repr(t1),
                    "--t2", repr(t2), "--t3", repr(t3), "--k-points", str(m)])
    return out


def test_bands_at_the_edge_bulk_transition(capsys):
    # the inversion of the edge ratio fails when |tau/zeta| is within
    # rounding of its u -> 0 limit; that root is the zone-edge root
    reproducer = ["bands", "--model", "triangle-zigzag1", "--N", "5",
                  "--t1", "0.5382329171037927", "--t2", "1.7549260524983104",
                  "--t3", "1.8686512949518996", "--k-points", "3"]
    for argv in [reproducer] + _transition_commands(200, 7):
        N = int(argv[4])
        h = TriangleHoppings(*(float(argv[i]) for i in (6, 8, 10)))
        edge = TriangleEdge.ZIGZAG1 if argv[2] == "triangle-zigzag1" \
            else TriangleEdge.ZIGZAG2
        rows = _bands(capsys, argv)
        assert len(rows) == N * int(argv[12])
        for start in range(0, len(rows), N):
            k = float(rows[start][0])
            energy = np.array([float(r[2]) for r in rows[start:start + N]])
            oracle = np.linalg.eigvalsh(
                build_triangle_bloch(h, N, k, edge=edge).entries)
            assert np.all(np.abs(energy - oracle)
                          <= 1e-9 * np.maximum(1.0, np.abs(oracle))), argv


@pytest.mark.parametrize("kind", [ModelKind.SQUARE_ZIGZAG, ModelKind.SQUARE_LR,
                                  ModelKind.TRIANGLE_LINEAR,
                                  ModelKind.TRIANGLE_ZIGZAG1,
                                  ModelKind.TRIANGLE_ZIGZAG2])
def test_bands_and_validate_read_one_scan(monkeypatch, capsys, kind):
    grids = []
    scan = cli._SCANS[kind]

    def recorded(config):
        grids.append(config.k_grid().tolist())
        return scan(config)

    monkeypatch.setitem(cli._SCANS, kind, recorded)
    for command in ("bands", "validate"):
        assert run([command, "--model", kind.value, "--N", "6",
                    "--k-points", "4"]) == 0
        capsys.readouterr()
    assert len(grids) == 2 and grids[0] == grids[1]


_HALF_GRID_HOPPINGS = {
    ModelKind.SQUARE_ZIGZAG: ["--tu", "1", "--td", "0.6", "--tr", "1"],
    ModelKind.SQUARE_LR: ["--tu", "0.9", "--td", "0.4", "--tr", "0.7"],
    ModelKind.TRIANGLE_LINEAR: ["--t1", "1.2", "--t2", "0.7", "--t3", "0.9"],
    ModelKind.TRIANGLE_ZIGZAG1: ["--t1", "0.9", "--t2", "0.1", "--t3", "1"],
    ModelKind.TRIANGLE_ZIGZAG2: ["--t1", "0.9", "--t2", "0.1", "--t3", "1"],
}


@pytest.mark.parametrize("m", [7, 8])
@pytest.mark.parametrize("kind", list(_HALF_GRID_HOPPINGS))
def test_each_half_of_the_grid_gives_the_rows_of_the_full_scan(
        monkeypatch, capsys, kind, m):
    # a half grid holds no +-k pair, so each of its momenta is solved
    # alone; the full scan solves one momentum of each pair, and its
    # partner reads those rows (validate: their conjugate states)
    argv = ["bands", "--model", kind.value, "--N", "6",
            *_HALF_GRID_HOPPINGS[kind], "--k-points", str(m)]
    check = ["validate", *argv[1:], "--tol", "1e-16"]

    def validate():
        run(check)
        payload = json.loads(capsys.readouterr().out)
        return payload["reports"][kind.value], payload["violations"]

    assert run(argv) == 0
    full = capsys.readouterr().out.splitlines()
    assert sum(line.endswith(",analytic") for line in full) == len(full) - 1
    assert any(",edge-" in line for line in full) \
        == kind.value.endswith(("zigzag", "zigzag1", "zigzag2"))
    report, violations = validate()
    dim = RibbonModel(kind, 6).dim
    k_grid = ScanConfig.k_grid
    reports, half_violations = [], []
    for half in (slice(0, (m + 1) // 2), slice((m + 1) // 2, m)):
        monkeypatch.setattr(ScanConfig, "k_grid",
                            lambda self, _half=half: k_grid(self)[_half])
        assert run(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == full[0]
        assert rows[1:] == full[1 + half.start * dim:1 + half.stop * dim]
        half_report, found = validate()
        reports.append(half_report)
        half_violations += found
    assert violations == half_violations
    metrics = ["max_energy_dev", "max_overlap_deficit"]
    if "max_secular_residual" in report:
        metrics.append("max_secular_residual")
    for metric in metrics:
        assert report[metric] == max(r[metric] for r in reports), metric


def test_validate_checks_the_whole_zone_at_any_lattice_constant(
        monkeypatch, capsys):
    # k*a of every Bloch matrix validate builds, each momentum of a stacked
    # build in turn: the lattice constant only rescales the momenta, so
    # --a 2 checks the midpoints --a 1 checks, and the closed-form models
    # are checked at a = 2 (the zero modes and the branch tables keep their
    # own a = 1)
    seen, constants = [], []
    for name in ("build_square_bloch", "build_triangle_bloch"):
        def recorded(h, N, k, *args, _build=getattr(cli, name), a=1.0,
                     **kwargs):
            seen[-1].extend(np.atleast_1d(k * a).tolist())
            constants[-1].add(a)
            return _build(h, N, k, *args, a=a, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
    for a in ("1", "2"):
        seen.append([])
        constants.append(set())
        assert run(["validate", "--a", a, "--k-points", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert len(seen[0]) > 6 * 8
    assert seen[0] == seen[1]
    assert constants == [{1.0}, {1.0, 2.0}]


@pytest.mark.parametrize("kind", [ModelKind.TRIANGLE_ZIGZAG1,
                                  ModelKind.TRIANGLE_ZIGZAG2])
def test_validate_reads_the_secular_residual_at_each_roots_own_angle(
        capsys, kind):
    # the residual of every root of the grid, edge roots included, at the
    # root's own angle or decay, from one root_residuals call per scan
    N, m = 11, 32
    h = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    assert run(["validate", "--model", kind.value, "--N", str(N),
                "--t1", "0.9", "--t2", "0.1", "--t3", "1", "--k-points",
                str(m)]) == 0
    reported = json.loads(capsys.readouterr().out)["reports"][kind.value]
    ends = 1 if kind == ModelKind.TRIANGLE_ZIGZAG1 else 2
    roots, failed = (tri.zz1_roots if ends == 1 else tri.zz2_roots)(
        h, N, ScanConfig(model=RibbonModel(kind, N), hoppings=h,
                         k_points=m).k_grid())
    assert failed == {}
    assert 0 < np.count_nonzero(roots.edge) < m * N
    residual = np.abs(tri.root_residuals(roots, N, ends))
    assert reported["max_secular_residual"] == residual.max()
    assert residual.max() < 1e-13


@pytest.mark.parametrize("model", ["triangle-zigzag1", "triangle-zigzag2"])
def test_secular_residual_does_not_cancel_when_tau_dwarfs_zeta(capsys,
                                                               model):
    # y read back from each energy cancelled here (1.8e-6 at N = 40 on the
    # one-sided ribbon); the roots' own angles and decays do not
    run(["validate", "--model", model, "--N", "40", "--t3", "1000",
         "--k-points", "8"])
    report = json.loads(capsys.readouterr().out)["reports"][model]
    assert report["max_secular_residual"] <= 1e-12


def test_validate_exempts_labels_near_band_edges(capsys):
    # within 0.1 of a band edge the numeric boundary fit is unreliable; here
    # it mislabels some states there, and the exemption keeps the agreement
    # above the 0.99 gate
    assert run(["validate", "--N", "13", "--k-points", "32"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert 0.99 <= reports["triangle-zigzag2"]["agreement"] < 1.0


def _failing_at(solve, position, failing_values, error):
    """A scan-wide solve (zz*_roots of momenta, sq.zigzag_roots of |xi|,
    given as its positional argument `position`) that gives `error` at
    the values in failing_values and the rows of `solve` at the others."""
    def failing(*args, **kwargs):
        values = np.asarray(args[position])
        hit = np.isin(values, failing_values)
        rest = list(args)
        rest[position] = values[~hit]
        solution, failed = solve(*rest, **kwargs)
        index = np.flatnonzero(~hit)
        failed = {int(index[i]): exc for i, exc in failed.items()}
        failed.update({int(i): error for i in np.flatnonzero(hit)})
        return solution, failed

    return failing


def test_root_count_error_mid_scan_falls_back_to_oracle_rows(
        monkeypatch, capsys):
    # the error the scan-wide solve records for one momentum is shared by
    # the momentum and its mirror -k; every other row stays as it was
    argv = ["bands", "--model", "triangle-zigzag2", "--N", "9", "--t1", "0.9",
            "--t2", "0.1", "--t3", "1.0", "--k-points", "16"]
    plain = _bands(capsys, argv)
    grid = [float(r[0]) for r in plain[::9]]
    assert grid[8] == -grid[7]
    error = RootCountError(f"forced at k = {grid[7]}")
    monkeypatch.setattr(tri, "zz2_roots",
                        _failing_at(tri.zz2_roots, 2, [grid[7]], error))
    patched = _bands(capsys, argv)
    assert len(patched) == len(plain)
    for before, after in zip(plain, patched):
        if float(after[0]) in (grid[7], grid[8]):
            assert after[6] == "oracle"
            assert float(after[2]) == pytest.approx(float(before[2]),
                                                    abs=1e-9)
        else:
            assert after == before
    assert sum(r[6] == "oracle" for r in patched) == 18
    scan = cli._SCANS[ModelKind.TRIANGLE_ZIGZAG2](ScanConfig(
        model=RibbonModel(ModelKind.TRIANGLE_ZIGZAG2, 9),
        hoppings=TriangleHoppings(0.9, 0.1, 1.0), k_points=16))
    errors = [(k, rows, mirrored) for k, rows, mirrored in scan.grid
              if isinstance(rows, RootCountError)]
    assert [(k, mirrored) for k, _, mirrored in errors] == [
        (grid[7], False), (grid[8], True)]
    assert errors[0][1] is errors[1][1] is error


def test_square_root_count_error_mid_scan_falls_back_to_oracle_rows(
        monkeypatch, capsys):
    # sq.zigzag_roots solves the |xi| of a scan at once; an error at one
    # |xi| sends that +-k pair, and no other momentum, to the oracle
    N = 5
    h = SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0)
    argv = ["bands", "--model", "square-zigzag", "--N", str(N), "--tu", "1",
            "--td", "0.6", "--tr", "1", "--k-points", "12"]
    plain = _bands(capsys, argv)
    grid = [float(r[0]) for r in plain[::2 * N]]
    assert grid[9] == -grid[2]
    xi = abs(sq.xi_of_k(h, grid[2])[0])
    monkeypatch.setattr(sq, "zigzag_roots", _failing_at(
        sq.zigzag_roots, 0, [xi], RootCountError("forced")))
    patched = _bands(capsys, argv)
    oracle = {float(r[0]) for r in patched if r[6] == "oracle"}
    assert oracle == {grid[2], grid[9]}
    assert sum(r[6] == "oracle" for r in patched) == 2 * 2 * N
    for before, after in zip(plain, patched):
        if float(after[0]) in oracle:
            assert float(after[2]) == pytest.approx(float(before[2]),
                                                    abs=1e-9)
        else:
            assert after == before


def _traced_groups():
    """The triangle_ribbon names of each per-layer time of the benchmark's
    span tracer (perfbench/spans.py), which patches module attributes."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {metric: [name.split(".", 1)[1] for name in names]
            for metric, names in spans.TIMES.items()
            if metric.startswith("triangle_ribbon.")}


@pytest.mark.parametrize("model", ["triangle-zigzag1", "triangle-zigzag2"])
def test_traced_triangle_names_are_called(monkeypatch, capsys, model):
    # every zigzag function a per-layer time groups is called through its
    # module attribute, and never from inside another member of its group
    # (which would count that time twice)
    prefix = "zz1_" if model.endswith("1") else "zz2_"
    groups = {metric: [n for n in names
                       if n.startswith(prefix) and hasattr(tri, n)]
              for metric, names in _traced_groups().items()}
    reached, active, nested = set(), [], []
    for metric, names in groups.items():
        for name in names:
            def counted(*args, _fn=getattr(tri, name), _name=name,
                        _metric=metric, **kwargs):
                reached.add(_name)
                if _metric in active:
                    nested.append(_name)
                active.append(_metric)
                try:
                    return _fn(*args, **kwargs)
                finally:
                    active.pop()

            monkeypatch.setattr(tri, name, counted)
    hop = ["--N", "6", "--t1", "0.9", "--t2", "0.1", "--t3", "1"]
    for argv in (["bands", "--k-points", "8"], ["validate", "--k-points", "8"],
                 ["edges"], ["wavefunction", "--u", "0.3"]):
        assert run([argv[0], "--model", model, *hop, *argv[1:]]) == 0
        capsys.readouterr()
    names = {n for ns in groups.values() for n in ns}
    assert len(names) == 4
    # the commands form states at the roots' angles (root_states) and never
    # through zz*_state, which reads the angle back from an energy
    assert reached == names - {prefix + "state"}
    assert nested == []


@pytest.mark.parametrize("row", [
    [np.float64(-0.0), 1, -0.0, "bulk", None, np.float64(0.25), "analytic"],
    [0.1, 12, np.float64(1e-300), "edge-left", np.float64(0.3), 1.0 / 3.0,
     "analytic"],
    [np.float64(-1.5), np.int64(3), 2.0 ** 0.5, "", "", 0.5, "oracle"],
    [1e22, 1, float("nan"), "edge-both", -0.0, float("inf"), "oracle"],
])
def test_band_line_equals_joined_fmt(capsys, row):
    # a block of `band` equal rows, read by the momentum k and by -k: each
    # line is the row's values joined by _fmt, numbered 1..band
    k, band, *values = row
    config = ScanConfig(model=RibbonModel(ModelKind.TRIANGLE_LINEAR,
                                          int(band)), hoppings=None)
    energy, label, u, part, source = values
    block = tuple([v] * int(band) for v in (energy, label, u, part)) \
        + (source,)
    cli._write_bands(config, [(k, 0), (-k, 0)], [block])
    lines = [",".join(cli._fmt(v) for v in (sign * k, b, *values))
             for sign in (1, -1) for b in range(1, int(band) + 1)]
    assert capsys.readouterr().out == HEADER + "\n" + "\n".join(lines) + "\n"


def _reference_rows(config):
    """The `bands` rows of config, (k, band, energy, class, u, ipr, source)
    one by one: each momentum's closed-form rows from its scan, or the
    oracle's rows of the momentum (of its partner, when mirrored) solved
    alone."""
    scan = cli._SCANS[config.kind](config)
    rows = []
    for k, r, mirrored in scan.grid:
        if isinstance(r, slice):
            columns, source = (scan.energy[r].tolist(), scan.label[r].tolist(),
                               scan.u[r], scan.ipr[r].tolist()), "analytic"
        else:
            columns, source = cli._oracle_rows(
                config, np.array([-k if mirrored else k])), "oracle"
        rows += [[k, band, *values, source]
                 for band, values in enumerate(zip(*columns), 1)]
    return rows


_BLOCK_CASES = {
    "square-zigzag": ["--N", "5", "--tu", "1", "--td", "0.6", "--tr", "1"],
    "square-lr": ["--N", "4", "--tu", "0.9", "--td", "0.4", "--tr", "0.7",
                  "--tl", "0.7"],
    "square-general": ["--N", "4", "--tu", "1", "--td", "0.6", "--tr", "1",
                       "--tl", "0.4"],
    "triangle-linear": ["--N", "5", "--t1", "0.8", "--t2", "0.3"],
    # three sites are too few to classify: no class, and no u
    "triangle-linear-oracle": ["--N", "3", "--t1", "0", "--t2", "0",
                               "--t3", "0.7"],
    "triangle-zigzag1": ["--N", "6", "--t1", "0.9", "--t2", "0.1"],
    "triangle-zigzag2": ["--N", "9", "--t1", "0.9", "--t2", "0.1"],
    "triangle-zigzag2-root-count-error": ["--N", "9", "--t1", "0.9", "--t2",
                                          "0.1", "--t3", "1.0"],
}


@pytest.mark.parametrize("a", ["1", "0.5"])
@pytest.mark.parametrize("k_points", [8, 7])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_bands_blocks_equal_row_by_row_reference(monkeypatch, capsys, case,
                                                 k_points, a):
    # the block writer's CSV and JSON against each row's values joined one
    # by one, on every model, even and odd grids, oracle-only scans and a
    # +-k pair sent to the oracle mid-scan
    model = case.split("-oracle")[0].split("-root")[0]
    argv = ["bands", "--model", model, *_BLOCK_CASES[case],
            "--k-points", str(k_points), "--a", a]
    config = cli._resolve_config(cli._build_parser().parse_args(argv))
    if case.endswith("root-count-error"):
        k = config.k_grid().tolist()[2]
        monkeypatch.setattr(tri, "zz2_roots", _failing_at(
            tri.zz2_roots, 2, [k], RootCountError(f"forced at k = {k}")))
    rows = _reference_rows(config)
    sources = {r[6] for r in rows}
    assert sources == ({"oracle"} if case in ("square-general",
                                              "triangle-linear-oracle")
                       else {"analytic", "oracle"} if "root" in case
                       else {"analytic"})
    assert run(argv) == 0
    assert capsys.readouterr().out == "\n".join(
        [HEADER] + [",".join(map(cli._fmt, r)) for r in rows]) + "\n"
    assert run(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(
        {"columns": HEADER.split(","),
         "rows": [[None if v == "" or v is None else v for v in r]
                  for r in rows]}, indent=2) + "\n"


def _per_momentum_lr_scan(config):
    """Reference: the square-lr scan solved one momentum at a time, each
    momentum's 2N entries sorted as Python sorts a list of tuples."""
    h, N, a = config.hoppings, config.model.N, config.model.a

    def lr_bands(k):
        entries = []
        for j in range(1, N + 1):
            e_plus, e_minus = sq.lr_isotropic_spectrum(h, N, k, j, a=a)
            entries.append((e_minus, j, -1))
            entries.append((e_plus, j, 1))
        entries.sort(key=lambda t: t[0])
        return entries

    grid, solved = cli._solve_grid(
        config, lambda ks: ([lr_bands(k) for k in ks], {}))
    ks = [k for k, rows, mirrored in grid
          if isinstance(rows, slice) and not mirrored]
    energy, j, sign = (np.array(column) for column in zip(
        *(entry for entries in solved for entry in entries)))

    def states(m):
        rows = slice(m * 2 * N, (m + 1) * 2 * N)
        return sq.lr_isotropic_state(h, N, ks[m], j[rows], a=a,
                                     sign=sign[rows])

    return cli._Scan(grid, energy, np.full(len(energy), "bulk"), None,
                     [None] * len(energy),
                     0.5 * u_profile_ipr(np.pi * j / (N + 1), 0.0, N),
                     states)


def _per_momentum_linear_scan(config):
    """Reference: the triangle-linear scan solved one momentum at a time."""
    h, N, a = config.hoppings, config.model.N, config.model.a

    def solve(ks):
        solved, failed = [], {}
        for n, k in enumerate(ks):
            zeta_abs = abs(tri.zeta_of_k(h, k, a)[0])
            if zeta_abs == 0.0:
                failed[n] = DegenerateParameterError(f"|zeta| = 0 at k = {k}")
                continue
            energies = tri.linear_energies(h, N, k, a=a)
            order = np.argsort(energies)
            solved.append((energies[order], order, tri.tau_of_k(h, k, a),
                           zeta_abs))
        return solved, failed

    grid, solved = cli._solve_grid(config, solve)
    if not solved:
        return cli._unsolved(grid)
    ks = [k for k, rows, mirrored in grid
          if isinstance(rows, slice) and not mirrored]
    energy = np.concatenate([s[0] for s in solved])
    j = np.concatenate([s[1] for s in solved]) + 1

    def states(m):
        return tri.linear_states(h, N, ks[m], a=a)[:, solved[m][1]]

    return cli._Scan(grid, energy, *cli._triangle_labels(
        config.kind, energy, np.repeat([s[2] for s in solved], N),
        np.repeat([s[3] for s in solved], N)), [None] * len(energy),
        u_profile_ipr(np.pi * j / (N + 1), 0.0, N), states)


_PER_MOMENTUM_SCANS = {ModelKind.SQUARE_LR: _per_momentum_lr_scan,
                       ModelKind.TRIANGLE_LINEAR: _per_momentum_linear_scan}


def _zeta_zero_at(k0):
    """tri.zeta_of_k with zeta = 0 at the momentum k0, for a scalar
    momentum or an array of them."""
    original = tri.zeta_of_k

    def zeta_of_k(h, k, a=1.0):
        zeta, theta = original(h, k, a)
        if np.ndim(k):
            return np.where(np.asarray(k) == k0, 0j, zeta), theta
        return (0j if k == k0 else zeta), theta

    return zeta_of_k


def _array_scan_cases():
    """(model, flags) of square-lr and triangle-linear bands: derandomized
    hoppings at a = 0.5, 1 and 3 on even and odd grids, equal legs (|c| =
    0 at the zone edge on square-lr, |zeta| small near it), and absent
    legs, where |zeta| = 0 sends every momentum to the oracle."""
    rng = random.Random(1601)
    cases = []
    for a, k_points in itertools.product(("0.5", "1", "3"), ("8", "7")):
        for N in ("1", "4", "9"):
            tu, td, tr = (repr(rng.uniform(0.1, 2.0)) for _ in range(3))
            t1, t2, t3 = (repr(rng.uniform(0.1, 2.0)) for _ in range(3))
            common = ["--N", N, "--a", a, "--k-points", k_points]
            cases += [
                ("square-lr", ["--tu", tu, "--td", td, "--tr", tr, *common]),
                ("square-lr", ["--tu", tu, "--td", tu, "--tr", tr, *common]),
                ("triangle-linear", ["--t1", t1, "--t2", t2, "--t3", t3,
                                     *common]),
                ("triangle-linear", ["--t1", t1, "--t2", t1, "--t3", t3,
                                     *common])]
        cases.append(("triangle-linear", ["--t1", "0", "--t2", "0", "--N",
                                          "5", "--a", a, "--k-points",
                                          k_points]))
    # tr = 1, tu = td = -cos(10 pi/13): c = 0 exactly at j = 10 of N = 12
    # at k = 0, the middle of an odd grid, whose rows -0.0 and +0.0 tie
    legs = repr(-math.cos(math.pi * 10 / 13))
    cases.append(("square-lr", ["--tu", legs, "--td", legs, "--N", "12",
                                "--k-points", "7"]))
    return cases


def _assert_scan_equals_per_momentum_scan(monkeypatch, capsys, argv):
    config = cli._resolve_config(cli._build_parser().parse_args(argv))
    scan = cli._SCANS[config.kind](config)
    reference = _PER_MOMENTUM_SCANS[config.kind](config)

    def grid(s):
        return [(k, m, r if isinstance(r, slice) else (type(r), str(r)))
                for k, r, m in s.grid]

    assert grid(scan) == grid(reference), argv
    for column in ("energy", "ipr"):
        assert (getattr(scan, column).tobytes()
                == getattr(reference, column).tobytes()), (argv, column)
    if len(reference.energy):
        assert scan.label.tolist() == reference.label.tolist()
        assert np.array_equal(np.asarray(scan.near, dtype=object),
                              np.asarray(reference.near, dtype=object))
        for m in range(len(reference.energy) // config.model.dim):
            assert (scan.states(m).tobytes()
                    == reference.states(m).tobytes()), (argv, m)
    outputs = []
    for scans in (cli._SCANS,
                  {**cli._SCANS, config.kind: _PER_MOMENTUM_SCANS[
                      config.kind]}):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_SCANS", scans)
            for fmt in ("csv", "json"):
                assert run(argv + ["--format", fmt]) == 0
                outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:], argv
    return scan


def test_array_scans_equal_per_momentum_scans(monkeypatch, capsys):
    # every energy, label, ipr and state of the one-pass scans, and the
    # bands output, bit for bit those of the per-momentum solves
    for model, flags in _array_scan_cases():
        _assert_scan_equals_per_momentum_scan(
            monkeypatch, capsys, ["bands", "--model", model, *flags])


@pytest.mark.parametrize("a", ["0.5", "1", "3"])
@pytest.mark.parametrize("k_points", ["8", "7"])
def test_degenerate_momentum_of_a_linear_scan_takes_oracle_rows(
        monkeypatch, capsys, a, k_points):
    # |zeta| = 0 at one momentum: its +-k pair falls to the oracle, the
    # others stay bit for bit those of the per-momentum solves
    argv = ["bands", "--model", "triangle-linear", "--N", "6", "--t1",
            "0.8", "--t2", "0.3", "--a", a, "--k-points", k_points]
    config = cli._resolve_config(cli._build_parser().parse_args(argv))
    monkeypatch.setattr(tri, "zeta_of_k", _zeta_zero_at(config.k_grid()[1]))
    scan = _assert_scan_equals_per_momentum_scan(monkeypatch, capsys, argv)
    assert sum(not isinstance(r, slice) for _, r, _ in scan.grid) == 2


def test_oracle_rows_hold_one_chunk_at_a_time(tmp_path):
    # at dim 300 a chunk is one momentum, whose spectrum's vectors take
    # 1.44 MB; holding the previous chunk's spectra and vectors while the
    # next is solved peaked at 8.9 MB, freeing them first at 6.0 MB
    argv = ["bands", "--model", "square-general", "--N", "150",
            "--k-points", "8", "--out", str(tmp_path / "bands.csv")]
    assert run(argv) == 0  # imports and caches outside the trace
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5e6


def test_wavefunction_band_solves_once(monkeypatch, capsys):
    calls = _counting(monkeypatch, cli, "eigensolve_dense")
    assert run(["wavefunction", "--model", "square-general", "--N", "200",
                "--band", "3", "--k", "0.3"]) == 0
    assert len(calls) == 1
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 400


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


def _branch_points(report):
    """(k, energy) of every point of an `edges` report's branch tables."""
    tables = report["branch"].values()
    if report["model"] == "triangle-zigzag2":
        tables = [t for family in tables for t in family.values()]
    return [(p["k"], p["energy"]) for t in tables for p in t]


def _edges_sweep(count, seed):
    """`edges` on both triangular zigzag models at N = 2..12 with hoppings
    in [0.1, 2]; every second command has t1 within 1% of t2."""
    rng = random.Random(seed)
    for i in range(count):
        t1, t2, t3 = (rng.uniform(0.1, 2.0) for _ in range(3))
        if i % 2:
            t2 = t1 * (1.0 + rng.uniform(-0.01, 0.01))
        yield ["edges", "--model", f"triangle-zigzag{1 + i % 2}", "--N",
               str(rng.randint(2, 12)), "--t1", repr(t1), "--t2", repr(t2),
               "--t3", repr(t3)]


def test_edge_branch_points_lie_on_the_bloch_spectrum(capsys):
    # every printed branch point is an eigenvalue of the Bloch matrix at the
    # printed momentum, within validate's 1e-9 max(1, |E|): the reproducer
    # (t1 close to t2, where cos(ka) and 1 + cos(ka) used to cancel), a
    # t3 whose square underflows, and a seeded sweep
    commands = [
        ["edges", "--model", "triangle-zigzag2", "--N", "4", "--t1",
         "1.4860", "--t2", "1.4897", "--t3", "1.8323"],
        ["edges", "--model", "triangle-zigzag1", "--t3", "1e-300"],
        *_edges_sweep(200, 8317)]
    for argv in commands:
        assert run(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        h = TriangleHoppings(**report["hoppings"])
        edge = TriangleEdge(report["model"].split("-")[1])
        points = _branch_points(report)
        if not points:
            continue
        k, energy = np.array(points).T
        spectra = np.linalg.eigvalsh(np.array([
            build_triangle_bloch(h, report["N"], kk, edge=edge).entries
            for kk in k]))
        gap = np.min(np.abs(spectra - energy[:, None]), axis=1)
        assert np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(energy))), argv


def test_edges_forms_no_state(monkeypatch, capsys):
    # edges prints u, k, energy (triangular) or u, |xi|, omega (square); the
    # states of its branch points are formed only where they are read
    states = [_counting(monkeypatch, tri, name)
              for name in ("zz1_edge_state", "zz2_edge_state")]
    norms = _counting(monkeypatch, sq, "_edge_norm_square")
    for model, hop in (("triangle-zigzag1", ["--t1", "0.9", "--t2", "0.1"]),
                       ("triangle-zigzag2", ["--t1", "0.9", "--t2", "0.1"]),
                       ("square-zigzag", ["--tu", "1", "--td", "0.6"])):
        assert run(["edges", "--model", model, "--N", "6", *hop]) == 0
        assert json.loads(capsys.readouterr().out)["branch"]
    assert states == [[], []] and norms == []
    h = TriangleHoppings(0.9, 0.1, 1.0)
    for sol in tri.zz2_edge_solutions(h, 6, 1, "B", u_grid=[0.3, 2.0]):
        theta = tri.zeta_of_k(h, sol.k)[1]
        assert sol.psi is sol.psi
        assert np.array_equal(sol.psi,
                              tri.zz2_edge_state(sol.u, 6, 1, "B", theta))
    assert len(states[1]) == 2


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


def test_whole_scan_violation_has_no_momentum_or_band(capsys):
    # the agreement rate is a share over the whole scan: no single (k,
    # band) is at fault, so both are null rather than a point off the grid
    code = run(["validate", "--model", "triangle-zigzag1", "--N", "40",
                "--t3", "1000", "--k-points", "8"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["status"] == "fail"
    [violation] = payload["violations"]
    assert violation["metric"] == "agreement"
    assert violation["k"] is None and violation["band"] is None


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "triangle-linear", "--N", "3"],
    ["validate", "--model", "triangle-zigzag2", "--N", "2"],
    ["validate", "--model", "square-zigzag", "--N", "1"],
])
def test_validate_below_the_classifier_width_reports_no_agreement(capsys,
                                                                  argv):
    # fewer than 4 sites leave the numeric classifier no two fit windows:
    # energies and overlaps are checked, labels are not, agreement is null
    code = run(argv)
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert payload["status"] == "pass"
    report = payload["reports"][argv[2]]
    assert report["agreement"] is None
    assert report["max_energy_dev"] <= 1e-9
    assert report["max_overlap_deficit"] <= 1e-8


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

_TINY_LATTICE_CONSTANTS = [
    ["bands", "--model", "triangle-linear", "--N", "3", "--k-points", "1",
     "--a", "1e-320"],
    ["bands", "--model", "square-zigzag", "--N", "6", "--k-points", "3",
     "--a", "1e-320"],
    ["validate", "--model", "triangle-zigzag1", "--N", "6", "--a", "1e-320"],
    ["bands", "--model", "square-lr", "--N", "3", "--a", "1e-309"],
]


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
    ["validate", "--model", "triangle-linear", "--t1", "0", "--t2", "0"],
    ["validate", "--model", "triangle-zigzag1", "--t1", "0", "--t2", "0"],
    ["validate", "--model", "square-zigzag", "--tu", "0", "--td", "0"],
    ["edges", "--model", "triangle-zigzag1", "--t3", "0"],
    ["edges", "--model", "triangle-zigzag2", "--t1", "0"],
    ["wavefunction", "--model", "triangle-zigzag1", "--t3", "0",
     "--u", "0.5"],
    # the oracle's rounding, about eps 1e300, swamps every check
    ["validate", "--model", "square-zigzag", "--tr", "1e300", "--tu", "1",
     "--td", "1"],
    *_TINY_LATTICE_CONSTANTS,
])
def test_invalid_invocations_exit_2(capsys, argv):
    assert run(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", _TINY_LATTICE_CONSTANTS)
def test_tiny_lattice_constant_is_one_line(capsys, argv):
    # pi/a past the float range would leave a zone of nan momenta
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lattice constant" in err


def test_bands_zero_transverse_coupling_takes_oracle_rows(monkeypatch,
                                                         capsys):
    # |zeta| = 0 at every momentum: no reduced variable, so every row
    # comes from the dense oracle, as on the zigzag models
    argv = ["bands", "--model", "triangle-linear", "--N", "4", "--t1", "0",
            "--t2", "0", "--t3", "0.7", "--k-points", "3"]
    rows = _bands(capsys, argv)
    assert len(rows) == 12
    assert {r[6] for r in rows} == {"oracle"}
    for r in rows:
        assert float(r[2]) == pytest.approx(1.4 * math.cos(float(r[0])),
                                            abs=1e-12)
    # a single degenerate momentum among closed-form ones
    argv = ["bands", "--model", "triangle-linear", "--N", "4", "--t1", "0.5",
            "--t2", "0.5", "--k-points", "1"]
    with monkeypatch.context() as patch:
        patch.setattr(tri, "zeta_of_k", lambda h, k, a=1.0: (0j, 0.0))
        degenerate = _bands(capsys, argv)
    assert {r[6] for r in degenerate} == {"oracle"}
    assert {r[6] for r in _bands(capsys, argv)} == {"analytic"}


@pytest.mark.parametrize("k_points", [8, 7])
def test_general_bands_solve_one_momentum_of_each_pair(monkeypatch, capsys,
                                                       k_points):
    # square-general has no closed form: the oracle solves one momentum of
    # each +-k pair, and the rows of -k are those of k but for the k
    # column; an odd grid holds k = 0, its own partner
    N = 5
    built = []

    def recorded(h, N, k, *args, _build=cli.build_square_bloch, **kwargs):
        built.extend(np.atleast_1d(k).tolist())
        return _build(h, N, k, *args, **kwargs)

    monkeypatch.setattr(cli, "build_square_bloch", recorded)
    rows = _bands(capsys, ["bands", "--model", "square-general", "--N",
                           str(N), "--tl", "0.4", "--k-points",
                           str(k_points)])
    groups = [rows[i:i + 2 * N] for i in range(0, len(rows), 2 * N)]
    assert len(groups) == k_points
    assert {r[6] for r in rows} == {"oracle"}
    for group, partner in zip(groups, groups[::-1]):
        assert float(partner[0][0]) == -float(group[0][0])
        assert [r[1:] for r in partner] == [r[1:] for r in group]
    assert built == [float(g[0][0]) for g in groups[:(k_points + 1) // 2]]
    assert (float(groups[3][0][0]) == 0.0) == (k_points == 7)


@pytest.mark.parametrize("argv", [
    ["bands", "--model", "square-general", "--N", "12", "--tl", "0.4"],
    ["bands", "--model", "triangle-linear", "--N", "40", "--t1", "0",
     "--t2", "0"],
    ["validate", "--model", "square-zigzag", "--N", "12", "--tu", "1",
     "--td", "0.6", "--tr", "1"]])
def test_oracle_chunks_leave_every_byte(monkeypatch, capsys, argv):
    # at 128 momenta half the grid (all of it in validate) spans several
    # chunks of the module's budget; chunks of one momentum, and of three
    # with a short last one, give the same bytes; each chunk is classified
    # in one classify_numeric call
    calls = _counting(monkeypatch, cli, "eigensolve_dense")
    classified = _counting(monkeypatch, cli, "classify_numeric")
    dim = 2 * 12 if argv[2].startswith("square") else 40
    momenta = 128 if argv[0] == "validate" else 64
    outputs = []
    for budget in (cli._CHUNK_ENTRIES, 1, 3 * dim * dim):
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", budget)
        calls.clear()
        classified.clear()
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert len(calls) == -(-momenta // max(1, budget // (dim * dim)))
        assert len(classified) == len(calls)
    assert len(set(outputs)) == 1


def test_parser_built_once_and_reused(monkeypatch, capsys):
    built = []
    original = cli._build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counted)
    argvs = [["bands", "--model", "square-zigzag", "--N", "3",
              "--k-points", "2"],
             ["bands", "--model", "square-zigzag", "--bogus"],
             ["bands", "--model", "square-zigzag", "--N", "3",
              "--k-points", "2"],
             ["edges", "--model", "square-zigzag", "--N", "x"]]
    outputs = []
    for argv in argvs:
        code = run(argv)
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert len(built) == 1
    assert outputs[0] == outputs[2]
    for argv, output in zip(argvs, outputs):
        fresh = subprocess.run(
            [sys.executable, "-m", "chebribbon.cli", *argv],
            capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == output


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


@pytest.mark.parametrize("argv", [
    # energies overflow to inf and IPRs to nan
    ["bands", "--model", "square-zigzag", "--tu", "1e300", "--td", "1e300",
     "--k-points", "3"],
    # the suppression ratio tr/tl overflows to inf
    ["zeromodes", "--model", "square-general", "--tr", "1e300", "--tl",
     "1e-300"],
])
def test_output_that_overflows_exits_2_with_one_line(argv):
    done = subprocess.run([sys.executable, "-m", "chebribbon.cli", *argv],
                          capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # a value that starts with "-" but is not a plain number reads as a flag
    ["bands", "--model", "square-lr", "--tu", "-1e-5"],
    ["bands", "--model", "square-lr", "--tu"],
    ["bands", "--N", "x"],
    ["bands", "--bogus", "1"],
])
def test_usage_error_exits_2_with_one_line(argv):
    done = subprocess.run([sys.executable, "-m", "chebribbon.cli", *argv],
                          capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


def test_help_still_prints_usage(capsys):
    assert run(["bands", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: chebribbon bands") and err == ""


def test_import_does_not_load_scipy():
    # no command needs scipy, and importing it costs a one-shot command
    # more than the computation does
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, chebribbon.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "square-zigzag", "--tr", "1e300", "--tu", "1",
     "--td", "1"],
    ["validate", "--model", "triangle-zigzag1", "--t3", "1e300"],
    ["validate", "--model", "triangle-zigzag2", "--t3", "1e300"],
    ["validate", "--model", "triangle-linear", "--t1", "1e300"],
    ["validate", "--model", "square-lr", "--tr", "1e300", "--tl", "1e300"],
    ["validate", "--model", "square-general", "--tr", "1e300"],
    # 40 eps 2e7 = 1.8e-7, just past the window
    ["validate", "--model", "triangle-zigzag1", "--N", "40", "--t3", "1e7"],
])
def test_validate_exits_2_where_the_oracle_rounds_past_its_window(argv):
    # the dense oracle's eigenvalues carry about dim eps max|E|; past the
    # energy window of its overlap check no vector of it matches, and the
    # report would charge its rounding to the closed form
    done = subprocess.run([sys.executable, "-m", "chebribbon.cli", *argv],
                          capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: the oracle's rounding")
    assert done.stderr.count("\n") == 1


def test_oracle_within_its_window_is_checked(capsys):
    # 40 eps 1e6 = 8.9e-9, inside the window: the report is written, and
    # the overlap check finds the oracle's vectors
    run(["validate", "--model", "triangle-zigzag1", "--N", "40", "--t3",
         "5e5"])
    report = json.loads(capsys.readouterr().out)["reports"]["triangle-zigzag1"]
    assert report["max_energy_dev"] < 1e-9
    assert report["max_overlap_deficit"] < 1e-12


@pytest.mark.parametrize("argv", [
    ["zeromodes", "--model", "square-general", "--tr", "1e-170", "--tl",
     "1e-170"],
    ["wavefunction", "--model", "square-general", "--tr", "1e-170", "--tl",
     "1e-170", "--j", "1"],
    ["validate", "--model", "square-general", "--tr", "1e-170", "--tl",
     "1e-170"],
    ["zeromodes", "--model", "square-lr", "--tr", "1e-300", "--tl",
     "1e-300"],
])
def test_zero_modes_of_underflowing_tr_tl_exit_2_with_one_line(capsys, argv):
    # sqrt(tr * tl) scales the zero-mode condition; here it underflows to 0
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: tr * tl underflows to 0; the hoppings are out of "
                   "range\n")


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
