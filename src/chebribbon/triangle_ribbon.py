"""Closed-form analytics for triangular ribbons with linear and zigzag edges.

The Bloch matrix is tridiagonal with on-site term tau = 2 t3 cos(ka) and
coupling zeta = t1 + t2 e^{-ika}; zigzag truncation removes tau from the
first row (one-sided) or from both end rows (two-sided).  In the reduced
variable y = (E - tau)/(2|zeta|) the bulk spectrum lives at y = cos(phi),
edge states at y = +-cosh(u).

Edge branches are parameterized by the decay constant u.  One-sided zigzag
supports at most one localized state per momentum; the two-sided case has a
symmetric and an antisymmetric family (A and B) and can host two.  The
roots of every momentum of a scan come from one pass of the indexed phase
equation and the edge-ratio inversion (_roots.scan_roots); the
u-parameterized branch tables used for phase diagrams evaluate the momenta
in closed form instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._roots import scan_roots
from .chebpoly import (_folded, _math_map, _sinh_quotient, _with_phase,
                       by_family, u_profile, zigzag_ends)
from .errors import DegenerateParameterError, RootCountError

__all__ = [
    "zeta_of_k",
    "tau_of_k",
    "reduced",
    "linear_energies",
    "linear_states",
    "RootTable",
    "roots",
    "root_residuals",
    "root_states",
    "EdgeBranch",
    "edge_solutions",
    "edge_state",
    "edge_existence",
    "default_u_grid",
]


def zeta_of_k(h, k, a=1.0):
    """Transverse coupling at momentum k: (zeta, arg zeta), or arrays of
    both at an array of momenta."""
    return _with_phase(np.asarray(
        h.t1 + h.t2 * np.exp(-1.0j * np.asarray(k, dtype=float) * a)))


def tau_of_k(h, k, a=1.0):
    """On-site Bloch term 2 t3 cos(ka), an array at an array of momenta."""
    return 2.0 * h.t3 * np.cos(np.asarray(k, dtype=float) * a)


def reduced(h, k, a=1.0):
    """|zeta|, tau and arg zeta at each momentum of the array k, and
    {index into k: DegenerateParameterError} where |zeta| = 0 (t1 = t2 at
    the zone boundary, or t1 = t2 = 0), which the dense oracle solves."""
    zeta, theta = zeta_of_k(h, k, a)
    zeta_abs = np.hypot(zeta.real, zeta.imag)  # as abs(); np.abs rounds apart
    failed = {i: DegenerateParameterError(f"|zeta| = 0 at k = {k.tolist()[i]}")
              for i in np.flatnonzero(zeta_abs == 0.0).tolist()}
    return zeta_abs, tau_of_k(h, k, a), theta, failed


# ---------------------------------------------------------------- linear ---

def linear_energies(h, N, k, a=1.0):
    """Exact spectrum of the linear-edge ribbon: energies[j-1] = tau +
    2|zeta| cos(pi j/(N+1)), j = 1..N; one row of them per momentum of an
    array k."""
    zeta = zeta_of_k(h, k, a)[0]
    cos = np.cos(np.pi * np.arange(1, N + 1) / (N + 1))
    return (tau_of_k(h, k, a)[..., None]
            + 2.0 * np.hypot(zeta.real, zeta.imag)[..., None] * cos)


def linear_states(h, N, k, a=1.0):
    """Normalized standing waves of the linear-edge ribbon (all bulk), one
    column per energy of linear_energies, in the same order; a matrix per
    momentum of an array k."""
    theta = np.asarray(zeta_of_k(h, k, a)[1])[..., None, None]
    j = np.arange(1, N + 1)
    n = np.arange(1, N + 1)
    states = (np.exp(1.0j * (n[:, None] - 1) * theta)
              * np.sin(np.pi * np.outer(n, j) / (N + 1)))
    return states / np.linalg.norm(states, axis=-2, keepdims=True)


# ------------------------------------------------------------- per-k roots --

class RootTable(NamedTuple):
    """The N secular roots of one momentum, one array entry per root,
    ascending in energy, with the momentum's reduced parameters."""

    energy: np.ndarray
    phi: np.ndarray       # bulk angle, y = cos(phi); NaN on edge roots
    u: np.ndarray         # edge decay, y = sign*cosh(u); NaN on bulk roots
    sign: np.ndarray      # edge branch: +1 above, -1 below the band; 0 on bulk
    family: np.ndarray    # edge family "A"/"B" (two-sided zigzag); "" on bulk
    tau: np.ndarray       # on-site term tau_of_k, the same on every root
    zeta_abs: np.ndarray  # |zeta|, the same on every root
    theta: np.ndarray     # arg zeta, the same on every root

    @property
    def edge(self):
        """True on edge roots."""
        return self.sign != 0


def roots(h, N, k, ends, a=1.0):
    """All N secular roots at momentum k of the zigzag ribbon with `ends`
    truncated end rows (1: one-sided, 2: two-sided), as a RootTable
    ascending in energy.  For an array of momenta: the RootTable of every
    momentum solved, N rows each in the order of k, and {index into k: the
    DegenerateParameterError or RootCountError} of the others, which a
    single momentum raises.  One scan_roots pass over r = tau/|zeta|
    solves them all."""
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    families = zigzag_ends(ends, N)[1]
    za, tau, theta, failed = reduced(h, ks, a)
    solved = np.flatnonzero(za != 0.0)
    za, tau, theta = za[solved], tau[solved], theta[solved]
    r = tau / za
    m, phi, u, fam, lost = scan_roots(
        r, *((N, 1) if ends == 1 else (N - 1, 2)), families)
    for i in lost.tolist():
        failed[int(solved[i])] = RootCountError(
            f"a root did not converge (k={ks.tolist()[solved[i]]}, N={N})")
    sign = np.where(fam < 0, 0, np.where(r[m] < 0.0, 1, -1))
    energy = tau[m] + 2.0 * za[m] * np.cos(phi)
    for i, family in enumerate(families):
        edge = fam == i
        # tau + s 2|zeta| cosh(u) cancels when |tau| >> |zeta|; + 0.0 keeps
        # the flat levels (N = 1, family B at N = 3) from printing as -0
        energy[edge] = sign[edge] * za[m[edge]] * family.level(u[edge]) + 0.0
    # each momentum's rows ascending in energy; equal energies keep the
    # order of scan_roots, bulk before family A before family B
    order = np.lexsort((energy, m))
    m = m[order]
    names = np.array(["", *(family.name for family in families)])
    table = RootTable(energy[order], phi[order], u[order], sign[order],
                      names[fam[order] + 1], tau[m], za[m], theta[m])
    if np.ndim(k):
        return table, failed
    if failed:
        raise failed[0]
    return table


def root_residuals(roots, N, ends):
    """The secular sum sum_m c_m U_{N-m}(y) of each root of a RootTable
    (from roots with the same `ends`) at the root's own angle or decay,
    scaled so that rounding shows as a small multiple of N eps.  On a bulk
    root sin(phi) times it, sum_m c_m sin((N+1-m) phi), is taken over the
    sum of the magnitudes of its coefficients, which bounds it: the
    magnitudes of its terms can fall far below their rounding (by about
    |r| when |tau| >> |zeta|).  Past 3 pi/4 the terms are (-1)^N times
    those at psi = pi - phi and -r (_folded), whose products n psi lose no
    digits.  On an edge root at y = sign cosh(u) it is over the sum of the
    magnitudes of its terms, ratios to sinh((N+1)u)."""
    r = roots.tau / roots.zeta_abs
    coefficients = zigzag_ends(ends, N)[0]
    out = np.empty(len(r))
    bulk = ~roots.edge
    psi, rf, _, fold = _folded(roots.phi[bulk], r[bulk])
    c = coefficients(rf)
    out[bulk] = (sum(c_m * np.sin((N + 1 - m) * psi)
                     for m, c_m in enumerate(c)) / sum(map(np.abs, c))
                 * np.where(fold & (N % 2 == 1), -1.0, 1.0))
    u, sign = roots.u[~bulk], roots.sign[~bulk]
    terms = [sign ** m * c_m * _sinh_quotient(N + 1 - m, N + 1, u)
             for m, c_m in enumerate(coefficients(r[~bulk]))]
    out[~bulk] = sum(terms) / sum(map(np.abs, terms))
    return out


def root_states(roots, N, ends):
    """Normalized states of a RootTable's roots (of any momenta, from roots
    with the same `ends`), one column each, that of its momentum alone bit
    for bit, in the Bloch-matrix gauge e^{+i n theta}: bulk roots at their
    angles (u_profile), edge roots from their envelopes."""
    psi = np.empty((len(roots.energy), N), dtype=complex)
    bulk = ~roots.edge
    psi[bulk] = (np.exp(1.0j * np.arange(1, N + 1) * roots.theta[bulk, None])
                 * u_profile(roots.phi[bulk],
                             roots.tau[bulk] / roots.zeta_abs[bulk], N))
    psi[bulk] /= np.linalg.norm(psi[bulk], axis=-1, keepdims=True)
    edge = np.flatnonzero(roots.edge)
    for family in zigzag_ends(ends, N)[1]:
        rows = edge[roots.family[edge] == family.name]
        psi[rows] = edge_state(roots.u[rows], N, roots.sign[rows], ends,
                               family.name, roots.theta[rows])
    # np.linalg.norm of a vector sums by dot, apart from its axis form
    for i in edge.tolist():
        psi[i] /= np.linalg.norm(psi[i])
    return psi.T


# ----------------------------------------------------------- edge branches --

def default_u_grid():
    """Log-spaced grid of 400 decay parameters over the branch range."""
    return np.logspace(-4.0, 1.0, 400)


def _family(ends, N, name):
    for fam in zigzag_ends(ends, N)[1]:
        if fam.name == name:
            return fam
    raise ValueError(f"family must be 'A' or 'B', got {name!r}")


def edge_state(u, N, sign, ends, family="A", theta=0.0):
    """Edge state of the zigzag ribbon with `ends` truncated end rows in
    the Bloch-matrix gauge: (sign)^{n-1} e^{+i n theta} times the envelope
    of the EdgeFamily named `family` at u > 0, sinh((N-n+1)u)/sinh(Nu)
    one-sided, [sinh((N-n)u) +- sinh((n-1)u)]/sinh((N-1)u) two-sided for
    family A (+) or B (-); a row per entry of the arrays u, sign, theta.
    At -theta it is the two-sided state in its printed form, with the
    e^{-i n theta} phase prefactor."""
    if np.any(np.asarray(u) <= 0.0):
        raise ValueError("decay parameter must be positive")
    n = np.arange(1, N + 1)
    return (np.asarray(sign, dtype=float)[..., None] ** (n - 1)
            * np.exp(1.0j * n * np.asarray(theta)[..., None])
            * _family(ends, N, family).envelope(u))


class EdgeBranch(NamedTuple):
    """The points of an edge branch's u grid that resolve to a momentum, an
    array entry each in grid order: the decay u, cos(ka), k, the energy,
    and |zeta|, tau and arg zeta at k (where edge_state forms each)."""

    u: np.ndarray
    cos_ka: np.ndarray
    k: np.ndarray
    energy: np.ndarray
    zeta_abs: np.ndarray
    tau: np.ndarray
    theta: np.ndarray


def _edge_sign_scale(h, sign):
    # hopping combination controlling each branch: the +cosh branch pairs
    # with |t1 - t2|, the -cosh branch with t1 + t2
    return abs(h.t1 - h.t2) if sign > 0 else h.t1 + h.t2


def edge_solutions(h, N, sign, ends, family="A", u_grid=None, a=1.0):
    """Edge-branch table of the zigzag ribbon with `ends` truncated end
    rows for one (sign, family) pair: the admissible points of the u grid
    resolved to their momenta and energies in one pass, an EdgeBranch of
    arrays; empty when the existence bound fails (threshold >= N/(N+1)
    one-sided; two-sided, family A: threshold >= 1, family B: threshold >=
    (N-1)/(N+1))."""
    h.require_positive()
    zigzag_ends(ends, N)  # the N >= 2 check comes before the sign's
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    fam = _family(ends, N, family)
    threshold = _edge_sign_scale(h, sign) / (2.0 * h.t3)
    u = np.asarray(default_u_grid() if u_grid is None else u_grid,
                   dtype=float)
    if threshold >= fam.bound:
        u = u[:0]
    t1, t2, t3 = h.t1, h.t2, h.t3
    s, p, d2 = t1 * t1 + t2 * t2, t1 * t2, (t1 - t2) ** 2
    half = fam.half(u)  # decreasing in u
    u, half = u[~(half <= threshold)], half[~(half <= threshold)]
    # cos(ka) = c solves f2 t3^2 c^2 - 2 p c - s = 0 with f2 = (2 half)^2;
    # on the +cosh branch c = (p - disc)/(f2 t3^2) cancels, so c and
    # 1 + c (small near k = pi) are taken in forms that do not
    ft = 4.0 * half * half * t3 * t3
    disc = np.sqrt(p * p + ft * s)
    if sign > 0:
        c = -s / (p + disc)
        one_plus_c = s * (ft - d2) / ((disc + s - p) * (p + disc))
    else:
        c = (p + disc) / ft
        one_plus_c = 1.0 + c
    keep = ~((np.abs(c) > 1.0) | (one_plus_c < 0.0))
    u, c, one_plus_c = u[keep], c[keep], one_plus_c[keep]
    k = 2.0 * _math_map(math.atan2, np.sqrt(1.0 - c),
                        np.sqrt(one_plus_c)) / a
    zeta_abs = np.sqrt(d2 + 2.0 * p * one_plus_c)  # |t1 + t2 e^{-ika}|
    tau = 2.0 * t3 * c
    energy = tau + sign * 2.0 * zeta_abs * _math_map(math.cosh, u)
    return EdgeBranch(u, c, k, energy, zeta_abs, tau, zeta_of_k(h, k, a)[1])


def edge_existence(h, N, ends):
    """Existence report of the edge branches of the zigzag ribbon with
    `ends` truncated end rows: the two one-sided ones, or the four
    two-sided (family, sign) ones."""
    h.require_positive()
    thresholds = {label: _edge_sign_scale(h, sign) / (2.0 * h.t3)
                  for label, sign in (("plus", 1), ("minus", -1))}
    return by_family(zigzag_ends(ends, N)[1], lambda fam: {
        label: {"threshold": t, "bound": fam.bound, "exists": t < fam.bound}
        for label, t in thresholds.items()})
