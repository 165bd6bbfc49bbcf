"""Per-operation correctness gate, run outside the timed region.

``check(argv, exit_code, text)`` returns ``(reason, info)``: ``reason`` is
None when the operation's output is correct, otherwise a one-line
description of the first defect found; ``info`` counts the ``bands`` rows
and how many of them carry ``source=analytic``.  Checks per subcommand:

* every operation: exit code 0 and output that parses;
* ``bands``: k-points x dim rows in (k, band) order on the CLI's midpoint
  grid, every numeric cell finite, and each energy within
  1e-9 * max(1, |E|) of the reference spectrum (reference.py);
* ``validate``: ``"status": "pass"``;
* ``edges``: every number finite; a non-empty branch table wherever the
  hoppings admit a branch (existence recomputed here), and every branch
  point an eigenvalue of the reference Bloch matrix within
  1e-4 * max(1, |E|);
* ``zeromodes``: the admissible list holds the generated mode (k = 0 and
  the generated ``--j``), every admissible (k, j) has a reference
  eigenvalue within 1e-9 of zero, and the solved tu + td is the generated
  one;
* ``wavefunction``: dim rows, finite cells, unit norm, and an eigenvector
  of the reference Bloch matrix (of the reduced square-zigzag matrix for
  ``--u``).
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

ENERGY_TOL = 1e-9
# branch tables come from a u grid and an inversion, not a diagonalization:
# triangle-zigzag2 points drift by up to ~5e-6 relative when t1 ~ t2
BRANCH_TOL = 1e-4
# a square-zigzag branch window narrower than this in |xi| may fall
# between the points of the CLI's u grid
XI_WINDOW = 0.01
BAND_HEADER = "k,band,energy,class,u,ipr,source"
WAVE_HEADER = "n,sublattice,abs,re,im,source"
LABELS = {"bulk", "edge-left", "edge-right", "edge-both", "transition", ""}
CLOSED_FORM_MODELS = ("square-zigzag", "square-lr", "triangle-linear",
                      "triangle-zigzag1", "triangle-zigzag2")


class GateError(Exception):
    """The output of one operation is wrong."""


def parse_argv(argv):
    """(subcommand, {flag: value}) of a generated argv; flags take values."""
    opts = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag.lstrip("-")] = value
    return argv[0], opts


def check(argv, exit_code, text):
    command, opts = parse_argv(argv)
    info = {"rows": 0, "analytic_rows": 0}
    try:
        if exit_code != 0:
            raise GateError(f"exit code {exit_code}")
        if command == "bands":
            _check_bands(opts, text, info)
        elif command == "validate":
            status = _load_json(text).get("status")
            if status != "pass":
                raise GateError(f"validate status {status!r}")
        elif command == "edges":
            _check_edges(opts, _load_json(text))
        elif command == "zeromodes":
            _check_zeromodes(opts, _load_json(text))
        elif command == "wavefunction":
            _check_wavefunction(opts, text)
        else:
            raise GateError(f"no check for subcommand {command!r}")
    except GateError as exc:
        return str(exc), info
    return None, info


def _finite(text, what):
    try:
        value = float(text)
    except ValueError:
        raise GateError(f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise GateError(f"{what} {text!r} is not finite")
    return value


def _close(value, expected, what):
    if abs(value - expected) > ENERGY_TOL * max(1.0, abs(expected)):
        raise GateError(f"{what} {value!r} differs from reference "
                        f"{expected!r}")


def _load_json(text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GateError(f"output is not JSON: {exc}") from None
    _walk_finite(payload)
    return payload


def _walk_finite(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            _walk_finite(item)
    elif isinstance(node, float) and not math.isfinite(node):
        raise GateError(f"non-finite number {node!r} in report")


def _lines(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise GateError(f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_bands(opts, text, info):
    model = opts["model"]
    N = int(opts.get("N", 5))
    k_points = int(opts.get("k-points", 128))
    h = ref.hoppings(model, opts)
    d = ref.dim(model, N)
    rows = _lines(text, BAND_HEADER)
    if len(rows) != k_points * d:
        raise GateError(f"{len(rows)} rows, expected {k_points} x {d}")
    for i, k in enumerate(ref.k_grid(model, k_points)):
        expected = ref.energies(model, h, N, k)
        for j in range(d):
            cells = rows[i * d + j]
            if len(cells) != 7:
                raise GateError(f"row {i * d + j + 1} has {len(cells)} cells")
            k_out, band, energy, label, u, part, source = cells
            if abs(_finite(k_out, "k") - k) > 1e-12:
                raise GateError(f"k {k_out} is not grid point {k!r}")
            if band != str(j + 1):
                raise GateError(f"band {band!r} at row {i * d + j + 1}")
            if label not in LABELS or source not in ("analytic", "oracle"):
                raise GateError(f"bad class/source {label!r}/{source!r}")
            if u:
                _finite(u, "u")
            _finite(part, "ipr")
            _close(_finite(energy, "energy"), float(expected[j]),
                   f"energy at k={k!r} band {j + 1}")
            info["analytic_rows"] += source == "analytic"
    info["rows"] = len(rows)


def _check_edges(opts, payload):
    model = opts["model"]
    N = int(opts.get("N", 5))
    h = ref.hoppings(model, opts)
    if model == "square-zigzag":
        # reduced units (tr = 1): a point (xi, omega) is an eigenvalue of
        # the zigzag matrix with tu = |xi|, td = 0
        xi_min = abs(h["tu"] - h["td"]) / h["tr"]
        xi_max = min((h["tu"] + h["td"]) / h["tr"], N / (N + 1.0))
        table = payload["branch"]
        if not table and xi_max - xi_min > XI_WINDOW:
            raise GateError(f"empty branch table for |xi| in "
                            f"[{xi_min:.6g}, {xi_max:.6g}]")
        for point in table:
            reduced = {"tu": point["xi"], "td": 0.0, "tr": 1.0}
            _on_spectrum("square-zigzag", reduced, N, 0.0, point["omega"],
                         f"branch point u={point['u']!r}")
        return
    scale = {1: abs(h["t1"] - h["t2"]), -1: h["t1"] + h["t2"]}
    if model == "triangle-zigzag1":
        bounds = {None: N / (N + 1.0)}
    else:
        bounds = {"A": 1.0, "B": (N - 1.0) / (N + 1.0)}
    for family, bound in bounds.items():
        existence = payload["existence"]
        branches = payload["branch"]
        if family is not None:
            existence, branches = existence[family], branches[family]
        for label, sign in (("plus", 1), ("minus", -1)):
            where = f"branch {family or ''}{label}"
            threshold = scale[sign] / (2.0 * h["t3"])
            if existence[label]["exists"] != (threshold < bound):
                raise GateError(f"{where}: exists={existence[label]['exists']}"
                                f" but threshold {threshold!r} vs bound "
                                f"{bound!r}")
            if threshold < bound and not branches[label]:
                raise GateError(f"{where} exists but its table is empty")
            for point in branches[label]:
                _on_spectrum(model, h, N, point["k"], point["energy"],
                             f"{where} point u={point['u']!r}")


def _on_spectrum(model, h, N, k, energy, what):
    spectrum = ref.energies(model, h, N, k)
    gap = np.min(np.abs(spectrum - energy))
    if gap > BRANCH_TOL * max(1.0, abs(energy)):
        raise GateError(f"{what}: energy {energy!r} is {gap:.3g} from the "
                        f"reference spectrum at k={k!r}")


def _check_zeromodes(opts, payload):
    N = int(opts.get("N", 5))
    j = int(opts["j"])
    h = ref.hoppings(opts["model"], opts)
    modes = payload["admissible"]
    if not any(abs(m["k"]) < 1e-9 and m["j"] == j for m in modes):
        raise GateError(f"generated zero mode k=0 j={j} not admissible")
    for mode in modes:
        spectrum = np.linalg.eigvalsh(
            ref.dense_bloch("square-general", h, N, mode["k"]))
        if np.min(np.abs(spectrum)) > ENERGY_TOL:
            raise GateError(f"no zero mode at k={mode['k']!r} j={mode['j']}")
    _close(payload["solve"]["tu_plus_td"], h["tu"] + h["td"],
           f"solved tu + td for j={j}")


def _check_wavefunction(opts, text):
    model = opts["model"]
    N = int(opts.get("N", 5))
    rows = _lines(text, WAVE_HEADER)
    d = ref.dim(model, N)
    if len(rows) != d:
        raise GateError(f"{len(rows)} rows, expected {d}")
    psi = np.empty(d, dtype=complex)
    for i, cells in enumerate(rows):
        mag, re, im = (_finite(c, "amplitude") for c in cells[2:5])
        if abs(mag - math.hypot(re, im)) > 1e-12:
            raise GateError(f"abs column disagrees with re/im at row {i + 1}")
        psi[i] = complex(re, im)
    if abs(np.vdot(psi, psi).real - 1.0) > 1e-9:
        raise GateError("state is not unit-normalized")
    if "u" in opts:
        # square-zigzag edge branch in reduced units (tr = 1); the profile
        # is printed in the staggered gauge that absorbs the alternating
        # signs of U_n(-cosh u), i.e. with xi = -|xi|
        u = float(opts["u"])
        xi = math.sinh(N * u) / math.sinh((N + 1) * u)
        H = ref.dense_bloch("square-zigzag",
                            {"tu": -xi, "td": 0.0, "tr": 1.0, "tl": 0.0}, N,
                            0.0)
    else:
        H = ref.dense_bloch(model, ref.hoppings(model, opts), N,
                            float(opts.get("k", 0.0)))
    energy = np.vdot(psi, H @ psi).real
    if np.linalg.norm(H @ psi - energy * psi) > 1e-8 * max(1.0, abs(energy)):
        raise GateError("state is not an eigenvector of the Bloch matrix")
