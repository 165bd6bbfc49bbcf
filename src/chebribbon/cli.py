"""Command-line front end: band scans, edge-regime reports, analytic-vs-
oracle validation, wavefunction profiles, and zero-mode reports.

Closed forms are used wherever they exist; every row is tagged with its
source (analytic or oracle) and k-points where the reduced parameterization
degenerates fall back to the oracle instead of failing.  Output is
deterministic: floats print at 17 significant digits and rows are ordered
by (k index, band index).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import square_ribbon as sq
from . import triangle_ribbon as tri
from .chebpoly import by_family, u_profile_ipr, zigzag_ends
from .classify import (StateLabel, classify_analytic_square,
                       classify_analytic_triangle, classify_numeric, ipr,
                       model_edge_sides)
from .errors import DegenerateParameterError, RootCountError
from .hamiltonian import (OVERLAP_WINDOW, ModelKind, RibbonModel,
                          SquareHoppings, TriangleHoppings,
                          build_square_bloch, build_triangle_bloch,
                          eigensolve_dense, subspace_overlap)

__all__ = ["ScanConfig", "run", "main"]

BAND_COLUMNS = ("k", "band", "energy", "class", "u", "ipr", "source")
WAVE_COLUMNS = ("n", "sublattice", "abs", "re", "im", "source")


class ConfigError(Exception):
    """Invalid model/hopping/flag combination (exit code 2)."""


@dataclass(frozen=True)
class ScanConfig:
    """Resolved scan parameters shared by all subcommands."""

    model: RibbonModel
    hoppings: object
    k_points: int = 128
    tolerance: float = 1e-9
    output_path: str | None = None
    output_format: str = "csv"

    @property
    def kind(self):
        return self.model.kind

    def k_grid(self):
        """Midpoint half-open grid spanning exactly one Brillouin zone.

        Each midpoint is its exact half-integer offset from the zone centre
        times one spacing, so k[m-1-i] == -k[i] bit for bit and an odd grid
        holds k = 0.0; no point loses digits to a cancellation near k = 0."""
        half = self.model.bz_halfwidth
        m = self.k_points
        return (np.arange(m) + 0.5 - m / 2) * (2.0 * half / m)


def _fmt(value):
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _require_finite(names, columns):
    """ConfigError unless every number of the float columns `columns`, each
    given as a tuple of arrays (or of float sequences), is finite: an inf
    or nan there comes from hoppings past the range of floats."""
    for name, parts in zip(names, columns):
        if not all(np.isfinite(part).all() for part in parts):
            raise ConfigError(f"the {name} column overflows to inf or nan; "
                              "the hoppings are out of range")


def _write_table(config, names, columns):
    """Emit a table given as one sequence per column."""
    if config.output_format == "csv":
        out = [",".join(map(_fmt, row)) for row in zip(*columns)]
        text = ",".join(names) + "\n" + "\n".join(out) + ("\n" if out else "")
    else:
        payload = {"columns": list(names),
                   "rows": [[None if v == "" or v is None else v for v in row]
                            for row in zip(*columns)]}
        text = _json_text(payload) + "\n"
    _emit(config.output_path, text)


def _emit(path, text):
    if path not in (None, "-"):
        with open(path, "w") as fh:
            fh.write(text)
        return
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        return
    # under `python -u` / PYTHONUNBUFFERED the text layer writes straight to
    # the raw file and drops a short count from a reader quitting mid-write;
    # loop on the bytes so a cut-off pipe raises BrokenPipeError (exit 1)
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buffer.write(data):]
    buffer.flush()


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, indent=""):
    """The JSON text of `value` at the line indent `indent`: the text of
    json.dumps with indent=2 and allow_nan=False on what the reports hold,
    dicts with str keys, lists and tuples, str, None, bools, ints and
    floats (ValueError on inf or nan, TypeError on any other type).  The
    rows of a float table are filled into one template (_float_rows)."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: "
                         f"{value!r}")
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [_encode_str(key) + ": " + _json_text(v, inner)
                 for key, v in value.items()]
    elif isinstance(value, (list, tuple)):
        rows = value and _float_rows(value, inner)
        if rows:
            return "[" + rows + "\n" + indent + "]"
        brackets = "[]"
        items = [_json_text(v, inner) for v in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                        "serializable")
    if not items:
        return brackets
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n"
            + indent + brackets[1])


def _float_rows(rows, indent):
    """The items of the list `rows` as _json_text renders them at `indent`,
    by one % on a row template repeated, when every item is a dict with the
    keys of the first, in its order, and every value a finite float; None
    otherwise."""
    keys = list(rows[0]) if type(rows[0]) is dict else None
    if not keys or any(type(row) is not dict or list(row) != keys
                       for row in rows):
        return None
    values = [v for row in rows for v in row.values()]
    if set(map(type, values)) != {float} or not all(map(math.isfinite,
                                                        values)):
        return None
    inner = indent + "  "
    row = ("\n" + indent + "{" + ",".join(
        "\n" + inner + _encode_str(key).replace("%", "%%") + ": %r"
        for key in keys) + "\n" + indent + "}")
    return ",".join([row] * len(rows)) % tuple(values)


def _write_json(config, payload):
    try:
        text = _json_text(payload)
    except ValueError:  # inf or nan, which JSON cannot hold
        raise ConfigError("the report overflows to inf or nan; the hoppings "
                          "are out of range")
    _emit(config.output_path, text + "\n")


# ----------------------------------------------------------- band builders --
#
# Each closed-form model has one scan function, config -> _Scan, which
# `bands` and `validate` both read; _band_rows turns a scan into one block
# of rows per solved momentum, which `bands` renders in (k index, band
# index) order.

def _bloch(config, k):
    """The Bloch matrix of config's model at momentum k, or the stack of
    them at an array of momenta."""
    h, N, a = config.hoppings, config.model.N, config.model.a
    if config.kind.is_square:
        return build_square_bloch(h, N, k, a=a)
    return build_triangle_bloch(h, N, k, ends=config.kind.ends, a=a)


# complex matrix entries of one stacked dense solve (16 momenta at dim 24):
# the momenta of a scan are solved, and classified, in chunks of at most
# this many entries (one momentum at least), so that no array holds the
# states of a whole scan
_CHUNK_ENTRIES = 16 * 24 * 24


def _oracle_chunks(config, ks):
    """The oracle Spectrum of the momenta of the array ks, one stack per
    chunk of at most _CHUNK_ENTRIES matrix entries, each chunk solved by
    one eigensolve_dense call when it is asked for."""
    step = max(1, _CHUNK_ENTRIES // config.model.dim ** 2)
    for start in range(0, len(ks), step):
        yield eigensolve_dense(_bloch(config, ks[start:start + step]))


def _oracle_rows(config, ks):
    """The energy, class, u and ipr columns of the dense oracle at the
    momenta of the array ks (arrays, u a list), config.model.dim rows each
    in the order of ks; each chunk is classified before the next is solved."""
    energy, label, part = [np.empty(0)], [np.empty(0, str)], [np.empty(0)]
    u = []
    for spec in _oracle_chunks(config, ks):
        energy.append(spec.energies.ravel())
        vectors = np.hstack(spec.vectors)
        try:
            labels, decay, parts = classify_numeric(vectors)
        except ValueError:  # too few sites for the boundary fits
            labels = np.full(vectors.shape[1], "")
            decay, parts = np.full(vectors.shape[1], np.nan), ipr(vectors)
        label.append(labels)
        u += [None if math.isnan(v) else v for v in decay.tolist()]
        part.append(parts)
        del spec, vectors  # freed before the next chunk's dense solve
    return (np.concatenate(energy), np.concatenate(label), u,
            np.concatenate(part))


def _edge_column(values, edge):
    """The u column: `values` in turn on the rows where `edge` holds, None
    on the others."""
    out = [None] * len(edge)
    for i, value in zip(np.flatnonzero(edge).tolist(), values):
        out[i] = value
    return out


class _Scan(NamedTuple):
    """A model's closed-form solution of the momenta of its config's grid.

    grid: (k, rows, mirrored) per momentum, in grid order.  rows is the
        slice of the scan's rows (config.model.dim of them) that the closed
        form gives at k, or else the DegenerateParameterError or
        RootCountError (None on a model without a closed form) that sends k
        to the oracle.  A mirrored momentum shares the rows (or the error)
        of its partner -k, which came earlier in the grid: the energies,
        labels and decays are those of -k, and its states are the
        conjugates of the states of those rows (see _solve_grid).
    energy, label: one entry per row, ascending in energy at each momentum;
        label values of StateLabel.
    near: True where a row lies within 0.1 of a band edge in the reduced
        variable, where the numeric boundary fit is unreliable; None on a
        model whose states are all bulk, with no label to check.
    u: the decay of each edge row, None on the others.
    ipr: the inverse participation ratio of each row's state, in closed
        form: no state is formed.
    states(rows): the normalized states of the rows (whole momenta) of the
        index array, one column per row, each that of its momentum alone.
    residuals: None, or on the triangular zigzag ribbons a function giving
        the scaled secular residual of every row at its root's own angle or
        decay (tri.root_residuals).
    """

    grid: list
    energy: np.ndarray
    label: np.ndarray
    near: object
    u: list
    ipr: np.ndarray
    states: object
    residuals: object = None


def _solve_grid(config, solve):
    """Pass 1 of a scan: one call solve(ks) for the momenta ks of config's
    grid whose partner -k has not come earlier in the grid.  The hoppings
    are real, so H(-k) = H(k)*: the partner has the same energies, labels
    and decays, and the conjugate states, so it reads the rows of -k,
    mirrored.  solve returns its solution of the momenta it solved, in the
    order of ks, and {index into ks: the DegenerateParameterError or
    RootCountError} of those where the closed form degenerates or misses
    a root, which their partners share.  Returns the scan's grid (see
    _Scan) and the solution."""
    dim = config.model.dim
    grid = config.k_grid()
    first = {}  # the grid index of each momentum solved
    for i, k in enumerate(grid.tolist()):
        if -k not in first:
            first[k] = i
    solution, failed = solve(grid[list(first.values())])
    solved = [n for n in range(len(first)) if n not in failed]
    rows = {n: slice(i * dim, (i + 1) * dim) for i, n in enumerate(solved)}
    rows = {k: rows.get(n, failed.get(n)) for n, k in enumerate(first)}
    return [(k, rows[k], False) if k in rows else (k, rows[-k], True)
            for k in grid.tolist()], solution


def _unsolved(grid):
    """The _Scan of a grid with no closed-form momentum."""
    return _Scan(grid, np.empty(0), np.empty(0, dtype=str), None, [],
                 np.empty(0), None)


def _general_scan(config):
    """The scan of square-general, which has no closed form: every
    momentum, one of each +-k pair, takes oracle rows."""
    return _unsolved(_solve_grid(
        config, lambda ks: (None, dict.fromkeys(range(len(ks)))))[0])


def _square_zigzag_scan(config):
    h, N, a = config.hoppings, config.model.N, config.model.a

    def solve(ks):
        # sq.zigzag_roots of each momentum, with its complex xi
        xi = sq.xi_of_k(h, ks, a)[0]
        roots, failed = sq.zigzag_roots(np.abs(xi), N)
        return (roots, [x for n, x in enumerate(xi.tolist())
                        if n not in failed]), failed

    grid, ((omegas, v, decay), xi_c) = _solve_grid(config, solve)
    if not xi_c:
        return _unsolved(grid)
    xi_c = np.repeat(xi_c, 2 * N)
    # each momentum's -omegas then omegas, ascending; the omegas ascend, so
    # that is the negated row reversed (a -0.0 before a +0.0)
    omega = np.concatenate([-omegas[:, ::-1], omegas], axis=1).ravel()
    v, decay = (np.concatenate([c[:, ::-1], c], axis=1).ravel()
                for c in (v, decay))
    xi = np.abs(xi_c)
    label = classify_analytic_square(omega, xi, N)
    edge = label == StateLabel.EDGE_BOTH.value
    x = (omega * omega - xi * xi - 1.0) / (2.0 * xi)
    # the bullet block is the circ block mirrored, times +-1: half the IPR
    # of the circ block, of an edge row that of its real envelope
    part = np.empty(len(omega))
    bulk = ~np.isnan(v)
    part[bulk] = 0.5 * u_profile_ipr(v[bulk], 1.0 / xi[bulk], N)
    part[~bulk] = 0.5 * ipr(zigzag_ends(1, N)[1][0].envelope(
        decay[~bulk]).T)

    def states(rows):
        return sq.zigzag_root_states(xi_c[rows], omega[rows], v[rows],
                                     decay[rows], N)

    return _Scan(grid, h.tr * omega, label, np.abs(x + 1.0) < 0.1,
                 _edge_column(map(math.acosh, (-x[edge]).tolist()), edge),
                 part, states)


def _square_lr_scan(config):
    h, N, a = config.hoppings, config.model.N, config.model.a

    def solve(ks):
        # |c(k, j)| at every momentum: the entries (-, j = 1), (+, j = 1),
        # (-, j = 2), ... of each sorted by energy, equal ones in that order
        plus, minus = sq.lr_isotropic_spectrum(h, N, ks[:, None],
                                               np.arange(1, N + 1), a=a)
        energy = np.stack([minus, plus], axis=2).reshape(len(ks), 2 * N)
        order = np.argsort(energy, axis=1, kind="stable")
        return (np.take_along_axis(energy, order, 1).ravel(), order.ravel(),
                ks.tolist()), {}

    grid, (energy, order, ks) = _solve_grid(config, solve)
    j, sign = order // 2 + 1, 2 * (order % 2) - 1
    ks = np.repeat(ks, 2 * N)

    def states(rows):
        return sq.lr_isotropic_state(h, N, ks[rows], j[rows], a=a,
                                     sign=sign[rows])

    # both blocks carry the standing wave sin(pi j n/(N+1)) with equal
    # weight: half its IPR
    return _Scan(grid, energy, np.full(len(energy), StateLabel.BULK.value),
                 None, [None] * len(energy),
                 0.5 * u_profile_ipr(np.pi * j / (N + 1), 0.0, N), states)


def _triangle_labels(kind, N, energy, tau, zeta_abs):
    """Label values and band-edge proximity of the rows of a triangular
    ribbon of width N."""
    label = classify_analytic_triangle(
        energy, tau, zeta_abs, N,
        sides=model_edge_sides(kind) or StateLabel.EDGE_BOTH)
    ratio = (energy - tau) / (2.0 * zeta_abs)
    return label, (np.abs(ratio - 1.0) < 0.1) | (np.abs(ratio + 1.0) < 0.1)


def _triangle_linear_scan(config):
    h, N, a = config.hoppings, config.model.N, config.model.a

    def solve(ks):
        zeta_abs, tau, _, failed = tri.reduced(h, ks, a)
        keep = zeta_abs != 0.0
        zeta_abs, tau = zeta_abs[keep, None], tau[keep, None]
        energy = tri.linear_energies(h, N, ks[keep], a)
        order = np.argsort(energy, axis=1)  # each momentum's ascending
        return (np.take_along_axis(energy, order, 1).ravel(), order, tau,
                zeta_abs, ks[keep]), failed

    grid, (energy, order, tau, zeta_abs, ks) = _solve_grid(config, solve)

    def states(rows):
        ms = rows[::N] // N
        return np.take_along_axis(tri.linear_states(h, N, ks[ms], a=a),
                                  order[ms][:, None, :], 2
                                  ).swapaxes(0, 1).reshape(N, -1)

    return _Scan(grid, energy, *_triangle_labels(
        config.kind, N, energy, np.repeat(tau, N), np.repeat(zeta_abs, N)),
        [None] * len(energy),
        u_profile_ipr(np.pi * (order.ravel() + 1) / (N + 1), 0.0, N), states)


def _triangle_zigzag_scan(config):
    h, N, a = config.hoppings, config.model.N, config.model.a
    ends = config.kind.ends
    grid, roots = _solve_grid(
        config, lambda ks: tri.roots(h, N, ks, ends, a=a))
    if not len(roots.energy):
        return _unsolved(grid)
    edge = roots.edge
    part = np.empty(len(roots.energy))
    part[~edge] = u_profile_ipr(roots.phi[~edge], roots.tau[~edge]
                                / roots.zeta_abs[~edge], N)
    for family in zigzag_ends(ends, N)[1]:
        rows = edge & (roots.family == family.name)
        part[rows] = ipr(family.envelope(roots.u[rows]).T)

    def states(rows):
        return tri.root_states(tri.RootTable(*(c[rows] for c in roots)), N,
                               ends)

    return _Scan(grid, roots.energy, *_triangle_labels(
        config.kind, N, roots.energy, roots.tau, roots.zeta_abs),
        _edge_column(roots.u[edge].tolist(), edge), part, states,
        lambda: tri.root_residuals(roots, N, ends))


_SCANS = {
    ModelKind.SQUARE_GENERAL: _general_scan,
    ModelKind.SQUARE_ZIGZAG: _square_zigzag_scan,
    ModelKind.SQUARE_LR: _square_lr_scan,
    ModelKind.TRIANGLE_LINEAR: _triangle_linear_scan,
    ModelKind.TRIANGLE_ZIGZAG1: _triangle_zigzag_scan,
    ModelKind.TRIANGLE_ZIGZAG2: _triangle_zigzag_scan,
}


def _band_rows(config, scan):
    """(grid, blocks): (k, n) of each grid momentum in grid order, and the
    blocks of rows, the n-th one momentum's (energy, label, u, ipr,
    source) per band: its slice of the scan's columns, or of the oracle's
    rows where the closed form leaves it unsolved.  A mirrored momentum
    reads its partner's block (conjugate states have the same |psi|)."""
    dim = config.model.dim
    unsolved = [k for k, rows, mirrored in scan.grid
                if not (isinstance(rows, slice) or mirrored)]
    at = {k: slice(n * dim, (n + 1) * dim) for n, k in enumerate(unsolved)}
    oracle = _oracle_rows(config, np.array(unsolved))
    # every solved row is a row of the output, and no other is
    _require_finite(("k", "energy", "u", "ipr"), (
        (config.k_grid(),), (scan.energy, oracle[0]),
        tuple([v for v in u if v is not None] for u in (scan.u, oracle[2])),
        (scan.ipr, oracle[3])))
    analytic, oracle = ((c[0].tolist(), c[1].tolist(), c[2], c[3].tolist())
                        for c in ((scan.energy, scan.label, scan.u, scan.ipr),
                                  oracle))
    index, blocks = {}, []
    for k, rows, mirrored in scan.grid:
        if not mirrored:
            index[k] = len(blocks)
            blocks.append((*(c[rows] for c in analytic), "analytic")
                          if isinstance(rows, slice) else
                          (*(c[at[k]] for c in oracle), "oracle"))
    return [(k, index[-k if mirrored else k])
            for k, _, mirrored in scan.grid], blocks


def _write_bands(config, grid, blocks):
    """Emit the BAND_COLUMNS table of _band_rows' grid and blocks: the
    rows of each block without their k (its tails) are rendered once, for
    both members of a +-k pair, by one % on its source's template, and
    each momentum's k once, in front of its block's lines."""
    band = range(1, config.model.dim + 1)
    if config.output_format == "csv":
        # a newline before each line, replaced by one and the k
        template = {source: "".join(f"\n{b},%.17g,%s,%s,%.17g,{source}"
                                    for b in band)
                    for source in ("analytic", "oracle")}
        values = [None] * (4 * len(band))
        tails = []
        for energy, label, u, part, source in blocks:
            values[0::4] = energy
            values[1::4] = label
            values[2::4] = ["" if v is None else "%.17g" % v for v in u]
            values[3::4] = part
            tails.append(template[source] % tuple(values))
        text = ",".join(BAND_COLUMNS) + "".join(
            tails[n].replace("\n", "\n" + format(k, ".17g") + ",")
            for k, n in grid) + "\n"
    else:
        tails = [[[b, e, c or None, v, p, source]
                  for b, e, c, v, p in zip(band, energy, label, u, part)]
                 for energy, label, u, part, source in blocks]
        text = _json_text({"columns": list(BAND_COLUMNS), "rows": [
            [k, *row] for k, n in grid for row in tails[n]]}) + "\n"
    _emit(config.output_path, text)


def cmd_bands(config):
    """Pass 1 is the model's scan of its solved momenta, one of each +-k
    pair, pass 2 renders each block of rows once and emits them in (k,
    band) order."""
    _write_bands(config, *_band_rows(config, _SCANS[config.kind](config)))
    return 0


# ------------------------------------------------------------------ edges --

def _require_positive(h):
    """The hoppings of an edge-state analysis, ConfigError unless all are
    positive."""
    try:
        return h.require_positive()
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_edges(config):
    h, N = config.hoppings, config.model.N
    kind = config.kind
    if kind == ModelKind.SQUARE_ZIGZAG:
        regime = sq.edge_regime(h, N)
        u = tri.default_u_grid()
        xi, omega = sq.zigzag_edge_curve(u, N)
        # the points these hoppings reach
        reached = (regime.xi_min <= xi) & (xi <= regime.xi_max)
        table = [dict(zip(("u", "xi", "omega"), point)) for point in zip(
            *(c[reached].tolist() for c in (u, xi, omega)))]
        payload = {
            "model": kind.value,
            "N": N,
            "hoppings": {"tu": h.tu, "td": h.td, "tr": h.tr, "tl": h.tl},
            "verdict": regime.verdict.value,
            "xi_range": [regime.xi_min, regime.xi_max],
            "critical": {"xi": regime.xi_cr, "omega": regime.omega_cr},
            "branch": table,
        }
    elif kind.ends:
        _require_positive(h)
        ends = kind.ends
        families = zigzag_ends(ends, N)[1]

        def branches(fam):
            # the u, cos_ka, k and energy of each point of each side's table
            tables = {label: tri.edge_solutions(h, N, sign, ends, fam.name)
                      for label, sign in (("plus", 1), ("minus", -1))}
            return {label: [dict(zip(t._fields, point)) for point in zip(
                *(c.tolist() for c in t[:4]))] for label, t in tables.items()}

        payload = {
            "model": kind.value,
            "N": N,
            "hoppings": {"t1": h.t1, "t2": h.t2, "t3": h.t3},
            "existence": tri.edge_existence(h, N, ends),
            "critical": {f"{fam.label}_bound": fam.bound
                         for fam in families},
            "branch": by_family(families, branches),
        }
    else:
        raise ConfigError(
            f"model {kind.value} has no edge-branch analytics; "
            "use square-zigzag, triangle-zigzag1, or triangle-zigzag2")
    _write_json(config, payload)
    return 0


# --------------------------------------------------------------- validate --

_EDGE_LABELS = [label.value for label in StateLabel if label.is_edge]


def _require_checkable(errors, energies):
    """Raise, in momentum order, the first closed-form error (None where a
    momentum solved) or ConfigError where its oracle spectrum's (a row of
    `energies`) rounding, about dim eps max|E|, tops subspace_overlap's
    window, which every check would charge to the closed form."""
    rounding = (energies.shape[-1] * np.finfo(float).eps
                * np.abs(energies).max(axis=-1))
    for error, r in zip(errors, np.atleast_1d(rounding).tolist()):
        if error is not None:
            raise error
        if r > OVERLAP_WINDOW:
            raise ConfigError(
                f"the oracle's rounding, about {r:.1e}, exceeds the "
                f"{OVERLAP_WINDOW:g} energy window of its overlap check; "
                "the hoppings are out of range")


def _label_agreement(scan, rows, spec):
    """How many label values of the scan's `rows` agree with the numeric
    classes of the oracle stack `spec`'s states, classified in one call: all
    when `near` is None (every state is bulk), else those equal, both
    edges, transitions or `near` a band edge, where the boundary fit is
    unreliable.  None below 4 sites, too short for the boundary fits."""
    if scan.near is None:
        return len(rows)
    try:
        numeric = classify_numeric(np.hstack(spec.vectors))[0]
    except ValueError:  # too few sites for the boundary fits
        return None
    analytic = scan.label[rows]
    edge = np.isin(analytic, _EDGE_LABELS) & np.isin(numeric, _EDGE_LABELS)
    return int(np.count_nonzero((analytic == numeric) | edge | scan.near[rows]
                                | (analytic == StateLabel.TRANSITION.value)))


def _validate_scan(config, violations):
    """Check config's closed-form scan against the oracle, a chunk of
    momenta at a time (its states formed, a mirrored momentum's by conj,
    and checked in one call each): energies, overlaps, labels and, on the
    triangular zigzag ribbons, the worst scaled secular residual."""
    scan = _SCANS[config.kind](config)
    name, tol, dim = config.kind.value, config.tolerance, config.model.dim
    dev = deficit = 0.0
    agree = total = 0
    # every momentum is solved, a mirrored one too: its own oracle spectrum
    # is what checks the mirror
    start = 0
    for spec in _oracle_chunks(
            config, np.array([k for k, _, _ in scan.grid])):
        oracle = spec.energies
        chunk = scan.grid[start:start + len(oracle)]
        start += len(oracle)
        # a mirrored momentum's error is its partner's, raised before
        _require_checkable([None if isinstance(at, slice) else at
                            for _, at, _ in chunk], oracle)
        starts = np.array([at.start for _, at, _ in chunk])
        mirrored = np.array([m for _, _, m in chunk])
        distinct, inverse = np.unique(starts, return_inverse=True)
        states = scan.states((distinct[:, None] + np.arange(dim)).ravel()
                             ).reshape(dim, -1, dim).swapaxes(0, 1)[inverse]
        # a mirrored momentum's states are the conjugates of its partner's
        np.conjugate(states, out=states, where=mirrored[:, None, None])
        rows = (starts[:, None] + np.arange(dim)).ravel()
        energies = scan.energy[rows].reshape(len(starts), dim)
        # subspace projection: degenerate pairs (e.g. the +-0 partners of a
        # deep edge state) leave single oracle vectors arbitrary
        overlap = subspace_overlap(spec, energies, states)
        deficit = max(deficit, *(1.0 - overlap).ravel().tolist())
        d = np.abs(energies - oracle)
        for m, i in np.argwhere(d > tol * np.maximum(np.abs(energies), 1)):
            violations.append((name, float(chunk[m][0]), int(i) + 1,
                               "energy", d[m, i]))
        dev = max(dev, *d.ravel().tolist())
        agreed = _label_agreement(scan, rows, spec)
        if agreed is not None:
            agree += agreed
            total += len(rows)
        # freed before the next chunk's dense solve, not after it
        del spec, states
    out = {"max_energy_dev": dev, "max_overlap_deficit": deficit,
           "agreement": agree / total if total else None}
    if scan.residuals is not None:
        # every row of the scan is a row of a momentum of the grid
        out["max_secular_residual"] = float(np.abs(scan.residuals()).max())
    return out


def _zero_mode_momenta(h, N, a=1.0):
    """sq.zero_mode_momenta, ConfigError where it rejects the hoppings."""
    try:
        return sq.zero_mode_momenta(h, N, a=a)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _validate_zero_modes(h, N, tol, violations):
    if h.tl <= 0.0 or h.tr <= 0.0:
        raise ConfigError("zero-mode validation needs tr > 0 and tl > 0")
    dev = deficit = 0.0
    for k, j in _zero_mode_momenta(h, N):
        spec = eigensolve_dense(build_square_bloch(h, N, k))
        _require_checkable([None], spec.energies)
        d = float(np.min(np.abs(spec.energies)))
        if d > tol:
            violations.append(("square-general", float(k), j, "zero-energy",
                               d))
        dev = max(dev, d)
        state = sq.zero_mode_full_state(h, N, k, j)
        deficit = max(deficit, 1.0 - subspace_overlap(spec, 0.0, state))
    return {"max_energy_dev": dev, "max_overlap_deficit": deficit,
            "agreement": 1.0}


def _validate_branch_tables(tol, violations):
    """Edge-branch internals: round-trip the u-parameterized tables through
    the per-k solvers and an eigenvector residual on the true Bloch matrix."""
    worst = 0.0
    grid = np.logspace(-2, 0.5, 7)
    h = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    N = 5
    for sign in (1, -1):
        for ends in (1, 2):
            for fam in zigzag_ends(ends, N)[1]:
                t = tri.edge_solutions(h, N, sign, ends, fam.name,
                                       u_grid=grid)
                states = tri.edge_state(t.u, N, sign, ends, fam.name, t.theta)
                for H, psi, energy in zip(
                        build_triangle_bloch(h, N, t.k, ends=ends),
                        states, t.energy.tolist()):
                    worst = max(worst, float(np.linalg.norm(
                        H @ psi - energy * psi) / np.linalg.norm(psi)))
    hs = SquareHoppings(tu=1.0, td=0.6, tr=1.0, tl=0.0)
    regime = sq.edge_regime(hs, N)
    for xi, omega in zip(*(c.tolist() for c in sq.zigzag_edge_curve(grid, N))):
        worst = max(worst, abs(sq.zigzag_secular_residual(omega, xi, N)))
    if worst > 1000.0 * tol:
        violations.append(("edge-branches", None, None, "residual", worst))
    return {"max_energy_dev": worst, "max_overlap_deficit": 0.0,
            "agreement": 1.0, "verdict_exercised": regime.verdict.value}


def _default_matrix(config):
    N = config.model.N
    k_pts = config.k_points
    return [
        ("square-zigzag",
         SquareHoppings(tu=1.0, td=0.6, tr=1.0, tl=0.0), N, k_pts),
        ("square-lr",
         SquareHoppings(tu=0.9, td=0.4, tr=0.7, tl=0.7), N, k_pts),
        ("square-general-zero-modes", None, N, 0),
        ("triangle-linear", TriangleHoppings(1.0, 1.0, 1.0), N, k_pts),
        ("triangle-zigzag1", TriangleHoppings(0.9, 0.1, 1.0), N, k_pts),
        ("triangle-zigzag2", TriangleHoppings(0.9, 0.1, 1.0),
         max(N, 2), k_pts),
        ("edge-branches", None, N, 0),
    ]


def cmd_validate(config, single_model=False):
    tol = config.tolerance
    overlap_tol = max(1000.0 * tol, 1e-8)
    violations = []
    reports = {}
    dims = {}
    if single_model:
        entries = [(config.kind.value, config.hoppings, config.model.N,
                    config.k_points)]
    else:
        entries = _default_matrix(config)
    for name, h, N, k_pts in entries:
        if name == "square-general-zero-modes":
            reports[name] = _validate_zero_modes(
                SquareHoppings(tu=0.5, td=0.5, tr=1.0, tl=0.64), N, tol,
                violations)
            continue
        if name == "edge-branches":
            reports[name] = _validate_branch_tables(tol, violations)
            continue
        kind = ModelKind(name)
        entry = ScanConfig(model=RibbonModel(kind=kind, N=N, a=config.model.a),
                           hoppings=h, k_points=k_pts, tolerance=tol)
        dims[name] = entry.model.dim
        try:
            if kind == ModelKind.SQUARE_GENERAL:
                reports[name] = _validate_zero_modes(h, N, tol, violations)
            else:
                reports[name] = _validate_scan(entry, violations)
        except (DegenerateParameterError, RootCountError) as exc:
            # zero transverse coupling, or a secular equation whose roots
            # cannot be resolved: no closed form to check
            raise ConfigError(f"cannot validate {name}: {exc}")
    for name, rep in reports.items():
        if rep["max_overlap_deficit"] > overlap_tol:
            violations.append((name, None, None, "overlap",
                               rep["max_overlap_deficit"]))
        # the boundary-fit detector needs enough sites to resolve a tail;
        # below that width the agreement rate is reported but not gated
        if dims.get(name, 0) >= 13 and rep["agreement"] < 0.99:
            violations.append((name, None, None, "agreement",
                               rep["agreement"]))
    payload = {
        "tolerance": tol,
        "overlap_tolerance": overlap_tol,
        "reports": reports,
        "violations": [{"model": v[0], "k": v[1], "band": v[2],
                        "metric": v[3], "value": v[4]} for v in violations],
        "status": "pass" if not violations else "fail",
    }
    _write_json(config, payload)
    return 0 if not violations else 1


# ----------------------------------------------------------- wavefunction --

def _wave_rows_square(state, N, source):
    rows = []
    for i, amp in enumerate(state):
        n = (i % N) + 1
        sub = "circ" if i < N else "bullet"
        rows.append([n, sub, abs(amp), amp.real, amp.imag, source])
    return rows


def _wave_rows_chain(state, source):
    return [[i + 1, "", abs(amp), complex(amp).real, complex(amp).imag,
             source] for i, amp in enumerate(state)]


def cmd_wavefunction(config, args):
    h, N, a = config.hoppings, config.model.N, config.model.a
    kind = config.kind
    given_u = args.u is not None
    given_band = args.band is not None
    if given_u and given_band:
        raise ConfigError("--u and --band are mutually exclusive")
    if given_u and not (math.isfinite(args.u) and args.u > 0.0):
        raise ConfigError(f"--u must be a positive decay parameter, "
                          f"got {args.u}")
    if args.k is not None and not math.isfinite(args.k):
        raise ConfigError(f"--k must be a finite momentum, got {args.k}")
    sign = 1 if args.sign is None or args.sign >= 0 else -1
    family = args.family if args.family is not None else "A"
    if kind == ModelKind.SQUARE_ZIGZAG and given_u:
        pt = sq.zigzag_edge_branch(args.u, N)
        state = np.concatenate([pt.psi_circ, sign * pt.psi_bullet])
        state = state * pt.norm_const
        rows = _wave_rows_square(state.astype(complex), N, "analytic")
    elif kind.ends and given_u:
        _require_positive(h)
        ends = kind.ends
        family = "A" if ends == 1 else family  # one-sided: --family ignored
        table = tri.edge_solutions(h, N, sign, ends, family, u_grid=[args.u],
                                   a=a)
        if not len(table.u):
            raise ConfigError(
                f"u={args.u} is not on an admissible edge branch for these "
                "hoppings")
        theta = float(table.theta[0])
        # the two-sided state prints in the paper's gauge e^{-i n theta}
        psi = tri.edge_state(args.u, N, sign, ends, family,
                             theta if ends == 1 else -theta)
        psi = psi / np.linalg.norm(psi)
        rows = _wave_rows_chain(psi, "analytic")
    elif kind == ModelKind.SQUARE_GENERAL and args.j is not None:
        try:
            momenta = [kj for kj in sq.zero_mode_momenta(h, N, a=a)
                       if kj[1] == args.j and kj[0] >= 0.0]
            if not momenta:
                raise ConfigError(
                    f"no admissible zero-mode momentum with j={args.j}")
            k = momenta[0][0] if args.k is None else args.k
            state = sq.zero_mode_full_state(h, N, k, args.j, a=a)
        except ValueError as exc:  # tl = 0, or --k off the zero mode
            raise ConfigError(str(exc))
        rows = _wave_rows_square(state, N, "analytic")
    elif given_band:
        k = args.k if args.k is not None else 0.0
        # a momentum's band rows number the Bloch matrix dimension
        if not 1 <= args.band <= config.model.dim:
            raise ConfigError(f"band index must be in 1..{config.model.dim}, "
                              f"got {args.band}")
        vec = eigensolve_dense(_bloch(config, k)).vectors[:, args.band - 1]
        if config.kind.is_square:
            rows = _wave_rows_square(vec, N, "oracle")
        else:
            rows = _wave_rows_chain(vec, "oracle")
    else:
        raise ConfigError(
            "wavefunction needs --u (edge branch), --band [--k], or "
            "--j (zero mode, square-general)")
    columns = list(zip(*rows))
    _require_finite(WAVE_COLUMNS[2:5], [(c,) for c in columns[2:5]])
    _write_table(config, WAVE_COLUMNS, columns)
    return 0


# -------------------------------------------------------------- zeromodes --

def cmd_zeromodes(config, args):
    h, N, a = config.hoppings, config.model.N, config.model.a
    if not config.kind.is_square:
        raise ConfigError("zero modes are a square-lattice feature")
    if h.tl <= 0.0 or h.tr <= 0.0:
        raise ConfigError("zero-mode analysis needs tr > 0 and tl > 0")
    if args.j is not None and not 1 <= args.j <= N:
        raise ConfigError(f"--j must be a transverse index in 1..{N}, "
                          f"got {args.j}")
    momenta = _zero_mode_momenta(h, N, a=a)
    root = 2.0 * math.sqrt(h.tr * h.tl)
    if math.isclose(h.tr, h.tl, rel_tol=1e-12):
        localization = "none"
    elif h.tr < h.tl:
        localization = "bullet-left-circ-right"
    else:
        localization = "bullet-right-circ-left"
    payload = {
        "N": N,
        "hoppings": {"tu": h.tu, "td": h.td, "tr": h.tr, "tl": h.tl},
        "k0_family_feasible": (h.tu + h.td) <= root * (1.0 + 1e-12),
        "admissible": [{"k": k, "j": j} for k, j in momenta],
        "suppression_ratio": h.tr / h.tl,
        "localization": localization,
    }
    if args.j is not None:
        payload["solve"] = {"j": args.j,
                            "tu_plus_td": sq.solve_zero_mode_sum(
                                h.tr, h.tl, N, args.j)}
    _write_json(config, payload)
    return 0


# ------------------------------------------------------------ arg plumbing --

# config key -> the type its flag parses to, and the choices it allows
_CONFIG_KEYS = {
    "model": (str, None), "N": (int, None), "a": (float, None),
    **{name: (float, None)
       for name in ("tu", "td", "tl", "tr", "t1", "t2", "t3")},
    "k_points": (int, None), "tol": (float, None), "out": (str, None),
    "format": (str, ("csv", "json")), "k": (float, None), "band": (int, None),
    "u": (float, None), "sign": (int, None), "family": (str, ("A", "B")),
    "j": (int, None),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors in one line, `error: <message>`, with exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="chebribbon",
        description="Exact spectra and edge-state phase diagrams of "
                    "anisotropic square and triangular lattice ribbons.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", choices=[m.value for m in ModelKind])
        p.add_argument("--N", type=int)
        for name in ("tu", "td", "tl", "tr", "t1", "t2", "t3"):
            p.add_argument(f"--{name}", type=float)
        p.add_argument("--a", type=float)
        p.add_argument("--k-points", dest="k_points", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--out")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--config")

    common(sub.add_parser("bands", help="band-structure scan over one zone"))
    common(sub.add_parser("edges", help="edge-regime report and u-branch "
                                        "table"))
    common(sub.add_parser("validate", help="analytic-vs-oracle validation"))
    wave = sub.add_parser("wavefunction", help="single-state profile")
    common(wave)
    wave.add_argument("--k", type=float)
    wave.add_argument("--band", type=int)
    wave.add_argument("--u", type=float)
    wave.add_argument("--sign", type=int)
    wave.add_argument("--family", choices=["A", "B"])
    wave.add_argument("--j", type=int)
    zm = sub.add_parser("zeromodes", help="zero-mode admissibility report")
    common(zm)
    zm.add_argument("--j", type=int)
    return parser


def _merge_config_file(args):
    if args.config is None:
        return
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        if value is not None:
            value = _config_value(key, value)
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _config_value(key, value):
    """`value` as its flag would parse it; ConfigError if it cannot be."""
    kind, choices = _CONFIG_KEYS[key]
    # JSON has one number type: an integer is a valid float, but a bool
    # (an int subclass in Python) is neither
    numeric = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, numeric):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, "
                          f"got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"config key {key!r} must be one of "
                          f"{list(choices)}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer past float range
        raise ConfigError(f"config key {key!r} is out of range: {value!r}")


def _resolve_config(args):
    model_name = args.model
    if model_name is None:
        raise ConfigError("--model is required (or set it in --config)")
    try:
        kind = ModelKind(model_name)
    except ValueError:
        raise ConfigError(f"unknown model {model_name!r}")
    N = args.N if args.N is not None else 5
    a = args.a if args.a is not None else 1.0
    try:
        if kind.is_square:
            tu = args.tu if args.tu is not None else 1.0
            td = args.td if args.td is not None else 1.0
            tr = args.tr if args.tr is not None else 1.0
            if args.tl is not None:
                tl = args.tl
            elif kind == ModelKind.SQUARE_ZIGZAG:
                tl = 0.0
            else:
                tl = tr  # isotropic default for lr and general
            hoppings = SquareHoppings(tu=tu, td=td, tr=tr, tl=tl)
        else:
            hoppings = TriangleHoppings(
                t1=args.t1 if args.t1 is not None else 1.0,
                t2=args.t2 if args.t2 is not None else 1.0,
                t3=args.t3 if args.t3 is not None else 1.0)
        model = RibbonModel(kind=kind, N=N, a=a)
        model.validate_hoppings(hoppings)
        if kind.ends:
            zigzag_ends(kind.ends, N)
    except ValueError as exc:
        raise ConfigError(str(exc))
    k_points = args.k_points if args.k_points is not None else 128
    if k_points < 1:
        raise ConfigError("k-points must be >= 1")
    tol = args.tol if args.tol is not None else 1e-9
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"--tol must be a finite number >= 0, got {tol}")
    return ScanConfig(
        model=model,
        hoppings=hoppings,
        k_points=k_points,
        tolerance=tol,
        output_path=args.out,
        output_format=args.format if args.format is not None else "csv",
    )


# built on the first run() rather than at import, which stays as fast
_PARSER = None


def run(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow that reaches the output exits 2 with one line
        # (_require_finite, _write_json); numpy's floating-point warnings
        # on the way there would add lines to it
        with np.errstate(all="ignore"):
            _merge_config_file(args)
            if args.command == "validate" and args.model is None:
                args.model = ModelKind.SQUARE_ZIGZAG.value
                config = _resolve_config(args)
                return cmd_validate(config, single_model=False)
            config = _resolve_config(args)
            if args.command == "bands":
                return cmd_bands(config)
            if args.command == "edges":
                return cmd_edges(config)
            if args.command == "validate":
                return cmd_validate(config, single_model=True)
            if args.command == "wavefunction":
                return cmd_wavefunction(config, args)
            if args.command == "zeromodes":
                return cmd_zeromodes(config, args)
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:  # `math` raises it past the float range
        print("error: a value overflows the float range; the hoppings are "
              "out of range", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream pipe (head, less, ...) closed early; silence the
        # interpreter-shutdown flush error and report the truncation
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
