"""Compare the command-line output of two chebribbon source trees.

    python3 tools/byte_matrix.py SRC_A SRC_B [--list]

SRC_A and SRC_B are checkouts (or their ``src`` directories).  A fixed list
of commands runs under each tree in a process of its own, each command
through ``chebribbon.cli.run`` in-process with ``--out`` to a file.  Per
command the tool compares the ``--out`` bytes (none when the command
names its own ``--out``), the exit code and the stderr
text (or, when ``run`` raises, the last line of the exception), prints each
command that differs and exits 1 if any does.  For a ``bands`` command whose
output differs, it also names the columns that differ and gives the worst
|a - b| / max(1, |a|) of ``energy``, ``u`` and ``ipr``, a from SRC_A, and
ends with the worst of each over all such commands.  It lists each row of
such a command, by (k, band), whose ``energy`` moved by more than
1e-13 max(1, |a|) or whose ``class`` changed.  For any other command whose
JSON output differs (``validate``, ``edges``, ``zeromodes``), it names each
key that differs, with |a - b| of a numeric one, flags (``FLAG``) a change
of ``status``, of ``violations`` or of any non-numeric value, and ends
with the worst |a - b| of each numeric field, by its last key, over all
such commands.  Each tree's ``bands``
energies are also compared with ``numpy.linalg.eigvalsh`` of the Bloch
matrix at each row's k: the tool gives the worst |E - eigvalsh| /
max(1, |E|) of each tree, beyond the solver's own error, and lists the
commands above 1e-9.  Warnings are recorded as
``Category: message`` lines after the stderr text, without the file and
line they came from, so that moved code compares equal.  ``--list`` prints
the commands and exits.

The list, 1,244 commands: both perfbench workloads on seeds 7101 and 7102
with their known defects; zigzag ``bands`` at N = 200 and 1000 in CSV and
JSON; square-lr and triangle-linear ``bands`` at N = 200 and 1000 in CSV
and JSON, and with equal legs (tu = td, t1 = t2) at odd widths on odd
grids; ``bands`` on all six models at N = 1..13 with random, zero and
near-equal hoppings;
single-model ``validate`` at N = 4, 7, 13 and 30, also at ``--tol 1e-16``,
at 1, 3 and 5 k-points on each closed-form model at N = 6 and 13, and at
N = 200 on the zigzag models; ``edges``; ``zeromodes``; ``wavefunction``
with every ``--sign`` and ``--family``; the reproducers of known defects,
argparse usage errors among them;
``bands`` whose rows all come from the dense oracle: square-general at
N = 40 and 200, where half the grid spans several oracle chunks, and on an
odd grid in CSV and JSON, triangle-linear with ``--t1 0 --t2 0``, and
square-general with ``--tu 0 --td 0`` at odd N, whose exact zero pair the
oracle orders;
``bands`` on all six models at ``--a 0.5`` and ``--a 3`` on even and odd
grids; lattice constants so small that the zone overflows, whose
exit code and stderr are compared; and the writer paths no other command
reaches: ``wavefunction`` with ``--u``, ``--band`` and ``--j`` in JSON,
``bands`` that mixes closed-form and oracle rows in CSV and JSON,
square-general at N = 1 in JSON, and an ``edges`` report that overflows;
last, ``bands`` on the three triangular models at N = 200 and t3 = 1e13,
1e14 and 1e15, ``bands`` and ``validate`` on square-zigzag at N = 200 and
tr = 1e-12, whose labels a reduced variable formed back from the energy
got wrong, and ``validate`` on square-general at tl = 1e-20; then
``bands`` whose grid of 1 or 3 momenta takes closed-form rows, oracle rows
or both, in CSV and JSON; and the reproducers of an ``--out`` path that
cannot be opened and of a k grid that numpy refuses to allocate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import re
import subprocess
import sys
import tempfile
import traceback
import warnings
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ("square-zigzag", "square-lr", "square-general", "triangle-linear",
          "triangle-zigzag1", "triangle-zigzag2")
ZIGZAG = ("square-zigzag", "triangle-zigzag1", "triangle-zigzag2")
CLOSED_FORM = ("square-zigzag", "square-lr", "triangle-linear",
               "triangle-zigzag1", "triangle-zigzag2")
SEEDS = (7101, 7102)


def _num(x):
    return repr(float(x))


def _hoppings(model, values):
    """Hopping flags of `model` from the sequence `values` (3 triangular,
    4 square; square-zigzag drops tl, square-lr sets tl = tr)."""
    if model.startswith("triangle"):
        return [f for name, v in zip(("t1", "t2", "t3"), values)
                for f in (f"--{name}", _num(v))]
    tu, td, tr, tl = values
    flags = ["--tu", _num(tu), "--td", _num(td), "--tr", _num(tr)]
    if model == "square-general":
        flags += ["--tl", _num(tl)]
    elif model == "square-lr":
        flags += ["--tl", _num(tr)]
    return flags


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    cmds = []
    for name in ("wide-scan", "narrow-mix"):
        for seed in SEEDS:
            cmds.extend(workloads.generate(name, seed))
        cmds.extend(workloads.KNOWN_DEFECTS.get(name, []))
    return cmds


def _wide():
    tri = ["--t1", "0.9", "--t2", "0.1", "--t3", "1"]
    cmds = []
    for N, k in (("200", "8"), ("1000", "2")):
        for fmt in ("csv", "json"):
            for model in ZIGZAG:
                hop = tri if model.startswith("triangle") else [
                    "--tu", "1", "--td", "0.6", "--tr", "1"]
                cmds.append(["bands", "--model", model, "--N", N, *hop,
                             "--k-points", k, "--format", fmt])
    return cmds


def _linear_bands():
    """square-lr and triangle-linear `bands` at N = 200 and 1000 in CSV and
    JSON, and with equal legs (tu = td, t1 = t2) on odd grids and odd
    widths, where |c| or |zeta| nearly vanishes near the zone edge."""
    square = ["--model", "square-lr", "--tr", "0.7", "--tl", "0.7"]
    triangle = ["--model", "triangle-linear", "--t3", "0.9"]
    cmds = []
    for N, k in (("200", "8"), ("1000", "2")):
        for fmt in ("csv", "json"):
            cmds += [["bands", *square, "--tu", "0.9", "--td", "0.4",
                      "--N", N, "--k-points", k, "--format", fmt],
                     ["bands", *triangle, "--t1", "1.2", "--t2", "0.7",
                      "--N", N, "--k-points", k, "--format", fmt]]
    for N, k in itertools.product(("5", "13", "201"), ("7", "33", "129")):
        cmds += [["bands", *square, "--tu", "0.6", "--td", "0.6", "--N", N,
                  "--k-points", k],
                 ["bands", *triangle, "--t1", "0.8", "--t2", "0.8", "--N", N,
                  "--k-points", k]]
    return cmds


def _narrow(rng):
    """`bands` on every model at N = 1..13: random hoppings, one hopping
    zero (each in turn), and two nearly equal legs."""
    cmds = []
    for model in MODELS:
        count = 3 if model.startswith("triangle") else 4
        for N in range(1, 14):
            base = [rng.uniform(0.1, 2.0) for _ in range(count)]
            zero = list(base)
            zero[N % count] = 0.0
            near = list(base)
            near[1] = near[0] * (1.0 + 1e-12)
            for values in (base, zero, near):
                cmds.append(["bands", "--model", model, "--N", str(N),
                             *_hoppings(model, values), "--k-points", "12"])
    cmds.append(["bands", "--model", "triangle-zigzag2", "--N", "9",
                 "--k-points", "5", "--format", "json"])
    cmds.append(["bands", "--model", "square-zigzag", "--N", "40",
                 "--tu", "1", "--td", "0.6", "--tr", "1", "--k-points", "6"])
    return cmds


def _validate(rng):
    cmds = [["validate", "--k-points", "8"],
            ["validate", "--N", "12", "--k-points", "8"],
            ["validate", "--k-points", "8", "--tol", "1e-16"]]
    for model in MODELS:
        count = 3 if model.startswith("triangle") else 4
        for N in (4, 7, 13, 30):
            if model == "square-general":
                # hoppings with a k = 0 zero mode at j = 1
                root = 0.8
                half = root * math.cos(math.pi / (N + 1))
                hop = ["--tu", _num(half), "--td", _num(half), "--tr", "1",
                       "--tl", _num(root * root)]
            else:
                hop = _hoppings(model, [rng.uniform(0.1, 2.0)
                                        for _ in range(count)])
            argv = ["validate", "--model", model, "--N", str(N), *hop,
                    "--k-points", "6"]
            cmds.append(argv)
            cmds.append(argv + ["--tol", "1e-16"])
    return cmds


def _validate_pairs(rng):
    """Single-model ``validate`` on short grids, whose +-k pairs are a large
    share of the momenta; an odd grid holds k = 0, its own partner."""
    cmds = []
    for model in CLOSED_FORM:
        count = 3 if model.startswith("triangle") else 4
        hop = _hoppings(model, [rng.uniform(0.1, 2.0) for _ in range(count)])
        for N, k in itertools.product(("6", "13"), ("1", "3", "5")):
            cmds.append(["validate", "--model", model, "--N", N, *hop,
                         "--k-points", k, "--tol", "1e-16"])
    for model in ZIGZAG:
        hop = _hoppings(model, [1.0, 0.6, 1.0, 0.0] if model == "square-zigzag"
                        else [0.9, 0.1, 1.0])
        cmds.append(["validate", "--model", model, "--N", "200", *hop,
                     "--k-points", "3"])
    return cmds


def _edges(rng):
    cmds = []
    for model in ZIGZAG:
        count = 3 if model.startswith("triangle") else 4
        for N in (1, 2, 3, 4, 7, 12, 30):
            for _ in range(2):
                values = [rng.uniform(0.1, 2.0) for _ in range(count)]
                cmds.append(["edges", "--model", model, "--N", str(N),
                             *_hoppings(model, values)])
            values = [rng.uniform(0.1, 2.0) for _ in range(count)]
            values[1] = values[0] * (1.0 + rng.uniform(-0.01, 0.01))
            cmds.append(["edges", "--model", model, "--N", str(N),
                         *_hoppings(model, values)])
    cmds += [["edges", "--model", "triangle-zigzag1"],
             ["edges", "--model", "triangle-zigzag2", "--N", "9"],
             ["edges", "--model", "square-lr"],
             ["edges", "--model", "triangle-zigzag1", "--t3", "0"]]
    return cmds


def _zeromodes():
    return [["zeromodes", "--model", "square-general", "--N", "5", "--tu",
             "0.5", "--td", "0.5", "--tr", "1", "--tl", "0.64", "--j", "2"],
            ["zeromodes", "--model", "square-general", "--N", "8", "--tu",
             "0.3", "--td", "0.7", "--tr", "0.5", "--tl", "2"],
            ["zeromodes", "--model", "square-lr", "--N", "6", "--j", "3"],
            ["zeromodes", "--model", "square-general", "--N", "4", "--j",
             "9"],
            ["zeromodes", "--model", "triangle-linear"]]


def _wavefunction(rng):
    cmds = []
    for model in ZIGZAG:
        count = 3 if model.startswith("triangle") else 4
        hops = ([0.9, 0.1, 1.0], [0.5, 0.45, 2.0]) if count == 3 \
            else ([1.0, 0.6, 1.0, 0.0],)
        for hop, N in itertools.product(map(partial(_hoppings, model), hops),
                                        ("2", "7")):
            for u in ("0.05", "0.7", "3", "40"):
                for sign in (None, "1", "-1", "0"):
                    for family in (None, "A", "B"):
                        argv = ["wavefunction", "--model", model, "--N", N,
                                *hop, "--u", u]
                        if sign is not None:
                            argv += ["--sign", sign]
                        if family is not None:
                            argv += ["--family", family]
                        cmds.append(argv)
    for model in MODELS:
        count = 3 if model.startswith("triangle") else 4
        hop = _hoppings(model, [rng.uniform(0.1, 2.0) for _ in range(count)])
        for band in ("1", "3"):
            cmds.append(["wavefunction", "--model", model, "--N", "6", *hop,
                         "--band", band, "--k", _num(rng.uniform(-1.5, 1.5))])
    cmds += [["wavefunction", "--model", "square-general", "--N", "5",
              "--tu", "0.5", "--td", "0.5", "--tr", "1", "--tl", "0.64",
              "--j", "2"],
             ["wavefunction", "--model", "triangle-zigzag1", "--u", "-1"],
             ["wavefunction", "--model", "triangle-zigzag1"]]
    return cmds


def _defects():
    """Reproducers of known defects: their outcome is compared too."""
    return [
        ["edges", "--model", "triangle-zigzag2", "--N", "4", "--t1",
         "1.4860", "--t2", "1.4897", "--t3", "1.8323"],
        ["edges", "--model", "triangle-zigzag1", "--t3", "1e-300"],
        ["edges", "--model", "triangle-zigzag2", "--t3", "1e-300"],
        ["wavefunction", "--model", "triangle-zigzag2", "--N", "4", "--t1",
         "1.4860", "--t2", "1.4897", "--t3", "1.8323", "--u", "9"],
        ["bands", "--model", "triangle-zigzag1", "--t3", "1e300",
         "--k-points", "3"],
        ["bands", "--model", "triangle-zigzag1", "--t3", "1e200",
         "--k-points", "3"],
        ["bands", "--model", "square-zigzag", "--tu", "1e300", "--td",
         "1e300", "--k-points", "3"],
        ["zeromodes", "--model", "square-general", "--tr", "1e300", "--tl",
         "1e-300"],
        ["validate", "--model", "square-zigzag", "--N", "1"],
        ["validate", "--model", "triangle-linear", "--N", "3"],
        ["bands", "--model", "triangle-zigzag2", "--N", "2", "--t1",
         "0.34216959415669657", "--t2", "0.9935623143969152", "--t3",
         "2.6226920480422935", "--k-points", "3"],
        ["bands", "--model", "triangle-zigzag2", "--t3", "1e300",
         "--k-points", "3"],
        ["bands", "--model", "square-zigzag", "--tr", "1e300"],
        ["validate", "--model", "square-zigzag", "--tr", "1e300", "--tu",
         "1", "--td", "1"],
        ["zeromodes", "--model", "square-general", "--tr", "1e-170", "--tl",
         "1e-170"],
        ["wavefunction", "--model", "square-general", "--tr", "1e-170",
         "--tl", "1e-170", "--j", "1"],
        ["validate", "--model", "square-general", "--tr", "1e-170", "--tl",
         "1e-170"],
        ["zeromodes", "--model", "square-lr", "--tr", "1e-300", "--tl",
         "1e-300"],
        ["bands", "--model", "square-zigzag", "--tr", "1e200"],
        *(["bands", "--model", model, "--N", N, "--t3", t3,
           "--k-points", "128"]
          for model in ("triangle-zigzag1", "triangle-zigzag2")
          for N, t3 in (("40", "100"), ("12", "300"), ("5", "3000"))),
        ["validate", "--model", "triangle-zigzag1", "--N", "40", "--t3",
         "1000", "--k-points", "8"],
        ["bands", "--model", "square-lr", "--tu", "-1e-5"],
        ["bands", "--model", "square-lr", "--tu"],
        ["bands", "--N", "x"],
        ["bands", "--bogus", "1"],
    ]


def _oracle_bands():
    general = ["bands", "--model", "square-general", "--tu", "1", "--td",
               "0.6", "--tr", "1", "--tl", "0.4"]
    return [general + ["--N", "40", "--k-points", "16"],
            general + ["--N", "200", "--k-points", "8"],
            general + ["--N", "7", "--k-points", "7"],
            general + ["--N", "7", "--k-points", "7", "--format", "json"],
            ["bands", "--model", "triangle-linear", "--N", "6", "--t1", "0",
             "--t2", "0", "--t3", "0.7", "--k-points", "8"],
            # an exactly degenerate zero pair, whose order is the oracle's
            *(["bands", "--model", "square-general", "--tu", "0", "--td", "0",
               "--tr", "1", "--tl", tl, "--N", N, "--k-points", "2"]
              for tl, N in itertools.product(("0", "0.5"), ("3", "7")))]


def _lattice_constants(rng):
    """`bands` on every model at a = 0.5 and 3, on even and odd grids, and
    the lattice constants so small that the zone overflows."""
    cmds = []
    for model in MODELS:
        count = 3 if model.startswith("triangle") else 4
        hop = _hoppings(model, [rng.uniform(0.1, 2.0) for _ in range(count)])
        for a, k in itertools.product(("0.5", "3"), ("8", "7")):
            cmds.append(["bands", "--model", model, "--N", "6", *hop,
                         "--a", a, "--k-points", k])
    return cmds + [
        ["bands", "--model", "triangle-linear", "--N", "3", "--k-points", "1",
         "--a", "1e-320"],
        ["bands", "--model", "square-zigzag", "--N", "6", "--k-points", "3",
         "--a", "1e-320"],
        ["validate", "--model", "triangle-zigzag1", "--N", "6", "--a",
         "1e-320"],
        ["bands", "--model", "square-lr", "--N", "3", "--a", "1e-309"]]


def _writer_paths():
    """Writer paths no other command reaches: ``wavefunction`` tables in
    JSON (edge branch, oracle band with an empty sublattice, zero mode),
    ``bands`` scans that mix closed-form and oracle rows (hoppings so small
    that the closed form fails at some momenta) in CSV and JSON,
    square-general at N = 1 in JSON, whose classes are empty, and an
    ``edges`` report that overflows to nan."""
    cmds = [["wavefunction", "--model", "square-zigzag", "--N", "7", "--tu",
             "1", "--td", "0.6", "--tr", "1", "--u", "0.7"],
            ["wavefunction", "--model", "triangle-zigzag2", "--N", "7",
             "--t1", "0.9", "--t2", "0.1", "--t3", "1", "--u", "0.7"],
            ["wavefunction", "--model", "triangle-linear", "--N", "6",
             "--band", "2", "--k", "0.3"],
            ["wavefunction", "--model", "square-general", "--N", "5", "--tu",
             "0.5", "--td", "0.5", "--tr", "1", "--tl", "0.64", "--j", "2"]]
    cmds = [argv + ["--format", "json"] for argv in cmds]
    for model, legs in (("square-zigzag", ("--tu", "--td")),
                        ("triangle-zigzag1", ("--t1", "--t2"))):
        for fmt in ("csv", "json"):
            cmds.append(["bands", "--model", model, "--N", "6",
                         legs[0], "1e-308", legs[1], "1e-308",
                         "--k-points", "7", "--format", fmt])
    return cmds + [
        ["bands", "--model", "square-general", "--N", "1", "--k-points",
         "4", "--format", "json"],
        ["edges", "--model", "triangle-zigzag1", "--t1", "1e-300", "--t2",
         "1e-300"]]


def _strong_anisotropy():
    """Commands of the strong-anisotropy regime, where a reduced variable
    formed back from the energy loses every digit, and the zero-mode
    validation that rounding defeats at tiny tl.  The same regime at
    N = 10^5 is left out: _oracle_deviation would build its dense Bloch
    matrices."""
    return [
        *(["bands", "--model", model, "--N", "200", "--t3", t3,
           "--k-points", "8"]
          for model in ("triangle-linear", "triangle-zigzag1",
                        "triangle-zigzag2")
          for t3 in ("1e13", "1e14", "1e15")),
        *([command, "--model", "square-zigzag", "--N", "200", "--tr",
           "1e-12", "--k-points", "8"] for command in ("bands", "validate")),
        ["validate", "--model", "square-general", "--N", "3", "--tl",
         "1e-20"]]


def _short_grids():
    """``bands`` on grids of 1 and 3 momenta, in CSV and JSON, with
    hoppings so small that the closed form fails at some of them: on
    square-zigzag at the outer +-k pair, on triangle-zigzag1 at k = 0."""
    return [["bands", "--model", model, "--N", "6", *hop, "--k-points", m,
             "--format", fmt]
            for model, hop in (
                ("square-zigzag", ["--tu", "4e-309", "--td", "4e-309"]),
                ("triangle-zigzag1", ["--t1", "1e-308", "--t2", "0"]))
            for m in ("1", "3") for fmt in ("csv", "json")]


def _output_and_memory():
    """An ``--out`` path that cannot be opened (no such directory, a
    directory) and a k grid of 745 GiB, which numpy refuses at once."""
    return [["bands", "--model", "square-zigzag", "--N", "3", "--out",
             "/nonexistent/x.csv"],
            ["bands", "--model", "square-zigzag", "--N", "3", "--out", "."],
            ["wavefunction", "--model", "square-zigzag", "--u", "0.5",
             "--out", "."],
            ["bands", "--model", "triangle-linear", "--N", "3",
             "--k-points", "100000000000"]]


def commands():
    """The fixed command list, the same on every call."""
    rng = random.Random(8128)
    return (_workloads() + _wide() + _linear_bands() + _narrow(rng)
            + _validate(rng)
            + _edges(rng) + _zeromodes() + _wavefunction(rng) + _defects()
            + _validate_pairs(random.Random(8129)) + _oracle_bands()
            + _lattice_constants(random.Random(8130)) + _writer_paths()
            + _strong_anisotropy() + _short_grids() + _output_and_memory())


def _src(path):
    path = Path(path).resolve()
    src = path / "src" if (path / "src" / "chebribbon").is_dir() else path
    if not (src / "chebribbon" / "cli.py").is_file():
        raise SystemExit(f"no chebribbon sources under {path}")
    return src


def _oracle_deviation(cli, argv, path):
    """The worst |E - eigvalsh| / max(1, |E|) of the rows of a `bands`
    output, with the eigenvalues of the Bloch matrix at each row's k, less
    the solver's own error 4 dim eps max|eigvalsh| (which only hoppings
    near the float range make large)."""
    import numpy as np
    config = cli._resolve_config(cli._build_parser().parse_args(argv))
    names, rows = _band_table(path)
    k_col, e_col = names.index("k"), names.index("energy")
    dim, worst = config.model.dim, 0.0
    for start in range(0, len(rows), dim):
        group = rows[start:start + dim]
        energy = np.array([float(r[e_col]) for r in group])
        # older trees wrap the matrix in a BlochMatrix, as .entries
        m = cli._bloch(config, float(group[0][k_col]))
        expected = np.linalg.eigvalsh(getattr(m, "entries", m))
        own = 4.0 * dim * np.finfo(float).eps * np.abs(expected).max()
        worst = max(worst, float(np.max(
            np.maximum(np.abs(energy - expected) - own, 0.0)
            / np.maximum(1.0, np.abs(energy)))))
    return worst


def _run_tree(src, results):
    """Worker: run every command under the tree `src`, writing one JSON
    record per command to the file `results`, and the output of each
    command to the directory `results`.d, one file per command index.
    The record of a `bands` command that exits 0 also holds the worst
    deviation of its energies from the Bloch matrix's."""
    sys.path.insert(0, str(src))
    import chebribbon.cli as cli
    if Path(cli.__file__).resolve().parent.parent != Path(src):
        raise SystemExit(f"imported {cli.__file__}, not {src}")
    records = []
    kept = _kept(results)
    kept.mkdir()
    for i, argv in enumerate(commands()):
        out = kept / str(i)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.run(argv if "--out" in argv
                               else argv + ["--out", str(out)])
            except Exception as exc:  # the last line of the traceback
                code = "raised"
                err.write(traceback.format_exception_only(
                    type(exc), exc)[-1])
        text = err.getvalue() + "".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught)
        data = out.read_bytes() if out.exists() else b""
        records.append({"code": code, "stderr": text,
                        "out": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data)})
        if argv[0] == "bands" and code == 0:
            records[-1]["oracle"] = _oracle_deviation(cli, argv, out)
    Path(results).write_text(json.dumps(records))


def _kept(results):
    return Path(f"{results}.d")


_NUMERIC = ("energy", "u", "ipr")


def _band_table(path):
    """(column names, rows of cell texts) of a `bands` output, CSV or
    JSON."""
    text = path.read_text()
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["columns"], [
            ["" if v is None else json.dumps(v) for v in row]
            for row in payload["rows"]]
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column_report(path_a, path_b, worst):
    """The columns of two `bands` outputs that differ, with the worst
    relative deviation of each numeric one; `worst` keeps the largest of
    each over the calls."""
    names, rows_a = _band_table(path_a)
    names_b, rows_b = _band_table(path_b)
    if names != names_b or len(rows_a) != len(rows_b):
        return "rows differ"
    parts = []
    for c, name in enumerate(names):
        pairs = [(a[c], b[c]) for a, b in zip(rows_a, rows_b) if a[c] != b[c]]
        if not pairs:
            continue
        if name not in _NUMERIC:
            parts.append(name)
            continue
        dev = max(abs(float(a) - float(b)) / max(1.0, abs(float(a)))
                  if a and b else math.inf for a, b in pairs)
        worst[name] = max(worst.get(name, 0.0), dev)
        parts.append(f"{name} {dev:.3g}")
    return ", ".join(parts)


def _row_report(path_a, path_b):
    """Lines naming each row, by (k, band), of two `bands` outputs whose
    energy moved by more than 1e-13 max(1, |a|) or whose class changed."""
    names, rows_a = _band_table(path_a)
    names_b, rows_b = _band_table(path_b)
    if names != names_b or len(rows_a) != len(rows_b):
        return []
    k, band, energy, label = (names.index(n)
                              for n in ("k", "band", "energy", "class"))
    lines = []
    for a, b in zip(rows_a, rows_b):
        dev = abs(float(a[energy]) - float(b[energy])) \
            / max(1.0, abs(float(a[energy])))
        if dev > 1e-13 or a[label] != b[label]:
            lines.append(f"k {a[k]} band {a[band]}: energy {a[energy]} -> "
                         f"{b[energy]} ({dev:.3g}), class {a[label]} -> "
                         f"{b[label]}")
    return lines


def _leaves(value, key=""):
    """(key, value) of each leaf of a JSON value: dict keys joined by
    dots, list indices in brackets."""
    if isinstance(value, dict):
        for name, v in value.items():
            yield from _leaves(v, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_FLAGGED = ("status", "violations")


def _json_report(path_a, path_b, worst):
    """Lines naming each key of two JSON outputs whose value differs, with
    |a - b| of a numeric one; a change of `status`, of `violations` or of
    a non-numeric value (a missing key included) is flagged.  `worst`
    keeps the largest |a - b| of each numeric field, by its last key, over
    the calls."""
    a, b = (dict(_leaves(json.loads(p.read_text())))
            for p in (path_a, path_b))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, "<missing>"), b.get(key, "<missing>")
        if type(x) is type(y) and x == y:
            continue
        field = re.sub(r"\[\d+\]", "", key).rsplit(".", 1)[-1]
        flag = (not (_is_number(x) and _is_number(y))
                or key.split(".")[0].split("[")[0] in _FLAGGED)
        line = f"{'FLAG ' if flag else ''}{key}: {x!r} -> {y!r}"
        if _is_number(x) and _is_number(y):
            dev = abs(x - y)
            worst[field] = max(worst.get(field, 0.0), dev)
            line += f" (|a - b| {dev:.3g})"
        lines.append(line)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="SRC")
    parser.add_argument("--list", action="store_true",
                        help="print the commands and exit")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "RESULTS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _run_tree(*args.worker)
        return 0
    cmds = commands()
    if args.list:
        print("\n".join(" ".join(c) for c in cmds))
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, SRC_A and SRC_B")
    trees = [_src(t) for t in args.trees]
    with tempfile.TemporaryDirectory() as work:
        files = [Path(work) / f"{i}.json" for i in range(2)]
        procs = [subprocess.Popen([sys.executable, __file__, "--worker",
                                   str(t), str(f)])
                 for t, f in zip(trees, files)]
        if any(p.wait() != 0 for p in procs):
            print("a worker failed", file=sys.stderr)
            return 2
        a, b = (json.loads(f.read_text()) for f in files)
        keys = ("code", "out", "stderr")
        differ = [i for i, (x, y) in enumerate(zip(a, b))
                  if any(x[key] != y[key] for key in keys)]
        worst, worst_json, moved, flagged = {}, {}, 0, 0
        for i in differ:
            what = [key for key in keys if a[i][key] != b[i][key]]
            print(f"DIFFERS ({', '.join(what)}): {' '.join(cmds[i])}")
            paths = [_kept(f) / str(i) for f in files]
            if cmds[i][0] == "bands" and what == ["out"] \
                    and a[i]["code"] == 0:
                print("    columns: " + _column_report(*paths, worst))
                rows = _row_report(*paths)
                moved += len(rows)
                for line in rows:
                    print("    row " + line)
            elif "out" in what and all(
                    p.exists() and p.read_bytes().startswith(b"{")
                    for p in paths):
                for line in _json_report(*paths, worst_json):
                    flagged += line.startswith("FLAG ")
                    print("    key " + line)
    print(f"{len(differ)} of {len(cmds)} commands differ")
    for name in _NUMERIC:
        if name in worst:
            print(f"worst {name} deviation in differing bands rows: "
                  f"{worst[name]:.3g}")
    for name, dev in sorted(worst_json.items()):
        print(f"worst |a - b| of {name} in differing JSON outputs: {dev:.3g}")
    print(f"{flagged} flagged keys in differing JSON outputs (status, "
          "violations or a non-numeric value)")
    print(f"{moved} bands rows moved energy by more than 1e-13 of "
          f"max(1, |E|) or changed class")
    for tree, records in zip(args.trees, (a, b)):
        deviations = [(r["oracle"], i) for i, r in enumerate(records)
                      if "oracle" in r]
        print(f"worst bands energy deviation from eigvalsh, {tree}: "
              f"{max(deviations)[0]:.3g}")
        for dev, i in deviations:
            if dev > 1e-9:
                print(f"    above 1e-9 ({dev:.3g}): {' '.join(cmds[i])}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
