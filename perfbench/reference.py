"""Independent reference spectra and the LAPACK floor.

Every Bloch matrix here is rebuilt from the model definitions, not from the
package's builders, so a defect in those builders cannot hide behind the
reference.  Models that reduce to a real symmetric tridiagonal matrix are
solved with ``scipy.linalg.eigh_tridiagonal`` (values and vectors), which is
also the floor a closed form has to beat:

* triangular ribbons: diagonal 2 t3 cos k (zeroed on zigzag-truncated end
  rows) and coupling zeta = t1 + t2 e^{-ik}; a diagonal phase gauge turns
  the couplings into |zeta|;
* square zigzag (tl = 0): the Bloch matrix [[0, T], [T^H, 0]] has T lower
  bidiagonal with diagonal tu + td e^{2ik} and subdiagonal tr, so its
  eigenvalues are +-(singular values of T).  The Golub-Kahan perfect shuffle
  of the gauged bidiagonal is a zero-diagonal tridiagonal matrix with
  off-diagonals |tu + td e^{2ik}|, tr, |tu + td e^{2ik}|, ..., tr,
  |tu + td e^{2ik}|.

The other models (square-lr, square-general, triangle-linear) use
``numpy.linalg.eigvalsh`` on the dense Bloch matrix.  The lattice constant is
1 throughout; the workloads never pass ``--a``.

``yardstick_seconds`` times a fixed kernel that does not touch the package;
timed right after each command, it measures how fast the machine runs Python
at that moment.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

SQUARE_MODELS = ("square-zigzag", "square-lr", "square-general")
TRIANGLE_EDGES = {"triangle-linear": 0, "triangle-zigzag1": 1,
                  "triangle-zigzag2": 2}
# models whose spectrum has a real tridiagonal form: the LAPACK floor
FLOOR_MODELS = ("square-zigzag", "triangle-zigzag1", "triangle-zigzag2")

SQUARE_DEFAULTS = {"tu": 1.0, "td": 1.0, "tr": 1.0}
TRIANGLE_DEFAULTS = {"t1": 1.0, "t2": 1.0, "t3": 1.0}


def dim(model, N):
    return 2 * N if model in SQUARE_MODELS else N


def k_grid(model, k_points):
    """The CLI's midpoint grid over one Brillouin zone (same arithmetic)."""
    half = math.pi / 2.0 if model in SQUARE_MODELS else math.pi
    return np.array([-half + (i + 0.5) * (2.0 * half / k_points)
                     for i in range(k_points)])


def hoppings(model, opts):
    """Hopping values the CLI resolves from ``opts`` (flag -> float)."""
    if model in SQUARE_MODELS:
        h = {name: float(opts.get(name, SQUARE_DEFAULTS[name]))
             for name in ("tu", "td", "tr")}
        default_tl = 0.0 if model == "square-zigzag" else h["tr"]
        h["tl"] = float(opts.get("tl", default_tl))
        return h
    return {name: float(opts.get(name, TRIANGLE_DEFAULTS[name]))
            for name in ("t1", "t2", "t3")}


def tridiagonal(model, h, N, k):
    """(diagonal, off-diagonal) of the real tridiagonal form at momentum k."""
    if model == "square-zigzag":
        xi = abs(h["tu"] + h["td"] * complex(math.cos(2 * k), math.sin(2 * k)))
        off = np.empty(2 * N - 1)
        off[0::2] = xi
        off[1::2] = h["tr"]
        return np.zeros(2 * N), off
    diag = np.full(N, 2.0 * h["t3"] * math.cos(k))
    truncated = TRIANGLE_EDGES[model]
    if truncated >= 1:
        diag[0] = 0.0
    if truncated == 2:
        diag[-1] = 0.0
    zeta = abs(h["t1"] + h["t2"] * complex(math.cos(k), -math.sin(k)))
    return diag, np.full(N - 1, zeta)


def dense_bloch(model, h, N, k):
    """Complex Hermitian Bloch matrix.  Square basis: circ sites 1..N, then
    bullet sites 1..N, with T = (tu + td e^{2ik}) I + tr B^T + tl e^{2ik} B
    for B the unit superdiagonal; triangular: the chain with zeta* above
    and zeta below the diagonal."""
    if model in SQUARE_MODELS:
        phase = complex(math.cos(2 * k), math.sin(2 * k))
        T = ((h["tu"] + h["td"] * phase) * np.eye(N)
             + h["tr"] * np.eye(N, k=-1) + h["tl"] * phase * np.eye(N, k=1))
        H = np.zeros((2 * N, 2 * N), dtype=complex)
        H[:N, N:] = T
        H[N:, :N] = T.conj().T
        return H
    diag, _ = tridiagonal(model, h, N, k)
    zeta = h["t1"] + h["t2"] * complex(math.cos(k), -math.sin(k))
    return (np.diag(diag).astype(complex) + np.conj(zeta) * np.eye(N, k=1)
            + zeta * np.eye(N, k=-1))


def energies(model, h, N, k):
    """Ascending reference eigenvalues at one momentum."""
    if model in FLOOR_MODELS:
        diag, off = tridiagonal(model, h, N, k)
        return eigh_tridiagonal(diag, off, eigvals_only=True)
    return np.linalg.eigvalsh(dense_bloch(model, h, N, k))


def floor_seconds(scans):
    """Wall time of eigh_tridiagonal (values and vectors) over every
    (model, hoppings, N, k) of ``scans``, a list of (model, h, N, ks)."""
    mats = [tridiagonal(model, h, N, k)
            for model, h, N, ks in scans for k in ks]
    start = time.perf_counter()
    for diag, off in mats:
        eigh_tridiagonal(diag, off)
    return time.perf_counter() - start


def yardstick_seconds():
    """Wall time of fixed interpreter-bound work: a pure-Python float
    recurrence and small numpy calls, the two kinds of work the package
    does per k-point (a few milliseconds)."""
    start = time.perf_counter()
    a, b, x = 0.0, 1.0, 0.3
    for _ in range(40000):
        a, b = b, 2.0 * x * b - a
    v = np.linspace(0.0, 1.0, 16)
    for _ in range(1000):
        v = np.sin(v) * 0.5 + 0.25
    return time.perf_counter() - start
