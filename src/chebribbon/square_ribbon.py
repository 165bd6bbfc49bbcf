"""Closed-form analytics for the anisotropic square ribbon.

Covers the zigzag reduction (tl = 0): secular equation, bulk and edge
eigenstates, the parametric edge branch with its critical point and regime
trichotomy; the left-right isotropic case (tl = tr) with its closed
dispersion and gauge-transformed eigenvectors; and the exact zero modes of
the fully anisotropic ribbon.

Dimensionless conventions: xi = (tu + td e^{2ika})/tr, omega = E/tr, and the
secular variable x = (omega^2 - |xi|^2 - 1)/(2|xi|).  Bulk states live at
x = cos(v), edge states at x = -cosh(u).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._roots import ratio_roots, scan_roots
from .chebpoly import (_sinh_quotient, _with_phase, u_all, u_pair,
                       u_profile, zigzag_ends)
from .errors import (DegenerateParameterError, NoEdgeStateError,
                     RootCountError, SingularArgumentError)

__all__ = [
    "xi_of_k",
    "zigzag_secular_residual",
    "zigzag_roots",
    "zigzag_spectrum",
    "zigzag_bulk_components",
    "zigzag_edge_branch",
    "zigzag_edge_u_from_xi",
    "zigzag_full_state",
    "zigzag_root_states",
    "sublattice_link",
    "EdgeBranchPoint",
    "EdgeRegime",
    "RegimeVerdict",
    "edge_regime",
    "extrema_ellipse_residual",
    "lr_isotropic_spectrum",
    "lr_isotropic_state",
    "zero_mode_momenta",
    "zero_mode_state",
    "zero_mode_full_state",
    "solve_zero_mode_sum",
    "ZeroModeState",
]


def xi_of_k(h, k, a=1.0):
    """Reduced off-diagonal parameter at momentum k: (xi, arg xi), or
    arrays of both at an array of momenta."""
    if h.tr <= 0.0:
        raise ValueError("xi is defined only for tr > 0")
    xi = np.array(h.tu + h.td * np.exp(2.0j * np.asarray(k, dtype=float) * a))
    # Python's complex / float divides each part; numpy's multiplies by 1/tr
    xi.real /= h.tr
    xi.imag /= h.tr
    return _with_phase(xi)


# ---------------------------------------------------------------- zigzag ---

def zigzag_secular_residual(omega, xi_abs, N):
    """U_N(x) + U_{N-1}(x)/|xi| at x = (omega^2 - |xi|^2 - 1)/(2 |xi|).

    Vanishes exactly on the spectrum (in units of tr).
    """
    if xi_abs <= 0.0:
        raise DegenerateParameterError(
            "|xi| = 0: secular form undefined, use the dense oracle")
    x = (omega * omega - xi_abs * xi_abs - 1.0) / (2.0 * xi_abs)
    a, b, log_scale = u_pair(N, x)
    with np.errstate(over="ignore"):
        out = (b + a / xi_abs) * np.exp(log_scale)
    return float(out)


def _edge_family(N):
    # the square zigzag ribbon has the one-sided edge condition, |r| = 1/|xi|
    return zigzag_ends(1, N)[1][0]


def _edge_omega(u, N):
    # on-branch energy of a decay or an array of them: omega =
    # sinh(u)/sinh((N+1)u), the stable equivalent of the omega^2(u) branch
    # formula (which cancels catastrophically for large u)
    return _sinh_quotient(1, N + 1, u)


def zigzag_edge_u_from_xi(xi_abs, N):
    """Invert |xi| = sinh(Nu)/sinh((N+1)u) for the decay parameter u > 0."""
    if xi_abs <= 0.0:
        raise ValueError("xi_abs must be positive")
    family = _edge_family(N)
    if xi_abs >= family.bound:
        raise NoEdgeStateError(f"|xi| = {xi_abs} >= N/(N+1) = "
                               f"{family.bound}: no localized branch")
    # equivalent increasing problem: sinh((N+1)u)/sinh(Nu) = 1/|xi|
    return float(ratio_roots(np.array([1.0 / xi_abs]), family.order,
                             family.even)[0])


def zigzag_roots(xi_abs, N):
    """All N non-negative omega roots at fixed |xi| (mirror negatives are
    implied by chiral symmetry), ascending, as three arrays (omega, v, u):
    a bulk root's angle v, x = cos v (NaN on the edge root), and the edge
    root's decay u, x = -cosh u (NaN on the others).

    For an array of |xi|: the three arrays of those solved, one row of N
    roots each in the order of xi_abs, and {index into xi_abs: the
    DegenerateParameterError or RootCountError} of the others, which a
    single |xi| raises.  The secular equation is the one-sided zigzag one
    with r = 1/|xi|, solved by one scan_roots pass."""
    xis = np.atleast_1d(np.asarray(xi_abs, dtype=float))
    failed = {i: DegenerateParameterError(
        "|xi| = 0: secular form undefined, use the dense oracle")
        for i in np.flatnonzero(~(xis > 0.0)).tolist()}
    solved = np.flatnonzero(xis > 0.0)
    xi = xis[solved]
    m, v, u, family, lost = scan_roots(1.0 / xi, N, 1, (_edge_family(N),))
    for i in lost.tolist():
        failed[int(solved[i])] = RootCountError(
            f"a root did not converge (|xi|={xi[i]}, N={N})")
    omega = np.sqrt(xi[m] * xi[m] + 1.0 + 2.0 * xi[m] * np.cos(v))
    edge = family == 0
    omega[edge] = _edge_omega(u[edge], N)
    order = np.lexsort((omega, m))
    roots = tuple(c[order].reshape(-1, N) for c in (omega, v, u))
    if np.ndim(xi_abs):
        return roots, failed
    if failed:
        raise failed[0]
    return tuple(c[0] for c in roots)


def zigzag_spectrum(xi_abs, N):
    """All N non-negative omega roots at fixed |xi| (mirror negatives are
    implied by chiral symmetry), ascending: zigzag_roots without the
    angles."""
    return zigzag_roots(xi_abs, N)[0]


def zigzag_bulk_components(v, xi_abs, N):
    """Signed transverse components of a bulk state at angle v.

    Returns (c_circ, c_bullet): c_circ[n-1] = U_{n-1}(x) + U_{n-2}(x)/|xi|
    anchored at chain 1, and the mirrored c_bullet anchored at chain N,
    with x = cos v.
    """
    if not 0.0 < v < math.pi:
        raise SingularArgumentError("bulk angle must lie strictly in (0, pi)")
    if xi_abs <= 0.0:
        raise DegenerateParameterError("|xi| = 0 has no reduced bulk form")
    un = u_all(N, math.cos(v))  # un[m+1] = U_m
    n = np.arange(1, N + 1)
    c_circ = un[1:N + 1] + un[0:N] / xi_abs
    c_bullet = un[N + 1 - n] + un[N - n] / xi_abs
    return c_circ, c_bullet


@dataclass(frozen=True)
class EdgeBranchPoint:
    """One point of the u-parameterized edge branch (units of tr) of a
    ribbon N chains wide.  The decaying envelopes sinh((N-n+1)u)/sinh(Nu)
    from chain 1 (psi_circ) and its mirror image toward chain N
    (psi_bullet), and the closed-form normalization constant, are formed
    when first read."""

    u: float
    xi_abs: float
    omega: float
    N: int

    @cached_property
    def psi_circ(self):
        return _edge_family(self.N).envelope(self.u)

    @cached_property
    def psi_bullet(self):
        return self.psi_circ[::-1]

    @cached_property
    def norm_const(self):
        return 1.0 / math.sqrt(_edge_norm_square(self.u, self.N))


def _edge_norm_square(u, N):
    """|Psi|^2 of the unit-anchored edge state:
    [sinh((2N+1)u) - (2N+1) sinh(u)] / (2 sinh(u) sinh^2(Nu)).

    Below (2N+1)u = 0.5 that difference cancels catastrophically (and its
    denominator underflows for tiny u), so the sum it closes,
    2 sum_n (sinh(nu)/sinh(Nu))^2, is added up instead."""
    big = (2 * N + 1) * u
    if big < 0.5:
        ratios = np.sinh(np.arange(1, N + 1) * u) / math.sinh(N * u)
        return 2.0 * math.fsum((ratios * ratios).tolist())
    if big < 350.0:
        return ((math.sinh(big) - (2 * N + 1) * math.sinh(u))
                / (2.0 * math.sinh(u) * math.sinh(N * u) ** 2))
    # the same in powers of e^{-u}, which neither overflow nor cancel here
    # (the subtracted term is e^{-2Nu} < e^{-230} of the first); a log
    # domain form loses eps * (2N+1)u relative
    return 2.0 * (-math.expm1(-2.0 * big) / -math.expm1(-2.0 * u)
                  - (2 * N + 1) * math.exp(-2.0 * N * u)) \
        / math.expm1(-2.0 * N * u) ** 2


def zigzag_edge_branch(u, N):
    """Edge-branch point at decay parameter u > 0: |xi|, omega, the two
    decaying profiles, and the closed-form normalization constant."""
    if u <= 0.0:
        raise ValueError("decay parameter must be positive")
    return EdgeBranchPoint(u=u, xi_abs=_edge_family(N).half(u),
                           omega=float(_edge_omega(u, N)), N=N)


def sublattice_link(omega, u_n_value, theta_total=0.0):
    """Complex amplitude ratio psi_circ(1) : psi_bullet(N) of an eigenstate,
    -e^{i theta_total} / (omega * U_N); theta_total = N arg(xi).

    A vanishing product (decoupled flat-band limit) falls back to the
    symmetric unit-modulus convention -e^{i theta_total}.
    """
    phase = cmath.exp(1.0j * theta_total)
    denom = omega * u_n_value
    if denom == 0.0:
        return -phase
    return -phase / denom


def zigzag_root_states(xi, omega, v, u, N):
    """Full normalized 2N eigenvectors (circ block then bullet block) for
    complex xi, matching the Bloch matrix gauge, one contiguous column per
    root: signed reduced energies omega with the angles v and decays u of
    zigzag_roots (v NaN on an edge root).

    The circ block is c_n = U_{n-1}(cos v) + U_{n-2}(cos v)/|xi| formed at
    the angle (u_profile), or the alternating decaying envelope of an edge
    root.  The bullet block is the circ block mirrored, times
    t = |xi| c_N / omega, which is +-1 on the spectrum."""
    xi_abs, theta = abs(xi), cmath.phase(xi)
    omega, v, u = (np.atleast_1d(np.asarray(c, dtype=float))
                   for c in (omega, v, u))
    n = np.arange(1, N + 1)
    edge = np.isnan(v)
    c_circ = np.empty((len(omega), N))
    c_circ[~edge] = u_profile(v[~edge], 1.0 / xi_abs, N)
    envelope = _edge_family(N).envelope
    for i in np.flatnonzero(edge).tolist():
        c_circ[i] = (-1.0) ** (n - 1) * envelope(u[i])
    t = np.where(c_circ[:, -1] * omega < 0.0, -1.0, 1.0)
    full = np.empty((len(omega), 2 * N), dtype=complex)
    full[:, :N] = np.exp(-1.0j * (n - 1) * theta) * c_circ
    full[:, N:] = np.exp(-1.0j * n * theta) * (t[:, None] * c_circ[:, ::-1])
    full /= np.linalg.norm(full, axis=1, keepdims=True)
    return full.T


def zigzag_full_state(xi, omega, N):
    """Full normalized 2N eigenvector (circ block then bullet block) at
    reduced energy omega for complex xi, matching the Bloch matrix gauge
    (zigzag_root_states at the angle or decay read back from omega).

    An array of energies gives one contiguous column per energy."""
    xi_abs = abs(xi)
    if xi_abs <= 0.0:
        raise DegenerateParameterError("|xi| = 0 has no reduced closed form")
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    x = (omegas * omegas - xi_abs * xi_abs - 1.0) / (2.0 * xi_abs)
    if np.any(x > 1.0 + 1e-12):
        raise ValueError("omega lies outside the spectral range for this xi")
    edge = x < -1.0 - 1e-12
    if np.any(omegas[~edge] == 0.0):
        raise ValueError("omega = 0 is not a zigzag eigenvalue for "
                         "nonzero xi")
    v = np.where(edge, np.nan, np.arccos(np.clip(x, -1.0, 1.0)))
    u = np.where(edge, np.arccosh(np.maximum(-x, 1.0)), np.nan)
    full = zigzag_root_states(xi, omegas, v, u, N)
    return full[:, 0] if np.ndim(omega) == 0 else full


# ---------------------------------------------------------------- regime ---

class RegimeVerdict(enum.Enum):
    NEVER_EMERGE = "never-emerge"
    ALWAYS_EDGE = "always-edge"
    EDGE_BULK_TRANSITION = "edge-bulk-transition"


@dataclass(frozen=True)
class EdgeRegime:
    verdict: RegimeVerdict
    xi_cr: float
    omega_cr: float
    xi_min: float
    xi_max: float


def edge_regime(h, N):
    """Classify the hoppings: edge states never emerge, always exist, or
    appear and disappear as k sweeps the zone."""
    if h.tr <= 0.0:
        raise ValueError("regime analysis needs tr > 0")
    if h.tl != 0.0:
        raise ValueError("regime analysis applies to the zigzag model "
                         "(tl = 0)")
    xi_min = abs(h.tu - h.td) / h.tr
    xi_max = (h.tu + h.td) / h.tr
    xi_cr = _edge_family(N).bound
    if xi_min > xi_cr:
        verdict = RegimeVerdict.NEVER_EMERGE
    elif xi_max < xi_cr:
        verdict = RegimeVerdict.ALWAYS_EDGE
    else:
        verdict = RegimeVerdict.EDGE_BULK_TRANSITION
    return EdgeRegime(verdict=verdict, xi_cr=xi_cr, omega_cr=1.0 / (N + 1.0),
                      xi_min=xi_min, xi_max=xi_max)


def extrema_ellipse_residual(omega, xi_abs, N):
    """omega^2 + ((N+2)/N)|xi|^2 - 1; zero on the locus of subband extrema."""
    return omega * omega + (N + 2.0) / N * xi_abs * xi_abs - 1.0


# ------------------------------------------------- left-right isotropic ---

def _require_lr(h, N, j):
    # tl = tr > 0, and every transverse index j in 1..N
    if h.tr <= 0.0 or not math.isclose(h.tl, h.tr, rel_tol=1e-12,
                                       abs_tol=0.0):
        raise ValueError("closed form needs tl = tr > 0")
    for jj in np.ravel(j).tolist():
        if not 1 <= jj <= N:
            raise ValueError(f"band index must be in 1..{N}, got {jj}")


def _lr_c(h, N, k, a, j):
    # complex dispersion amplitude whose modulus is the band energy: a
    # complex, or an array over the broadcast momenta k and indices j
    c = (2.0 * h.tr * np.cos(np.pi * j / (N + 1))
         + h.tu * np.exp(-1.0j * k * a) + h.td * np.exp(1.0j * k * a))
    return c if np.ndim(c) else complex(c)


def lr_isotropic_spectrum(h, N, k, j, a=1.0):
    """Band pair (+E, -E) of the tl = tr ribbon for transverse index j;
    arrays of momenta k and indices j broadcast to arrays of both."""
    _require_lr(h, N, j)
    c = _lr_c(h, N, k, a, j)
    e = np.hypot(c.real, c.imag)  # as abs(); np.abs rounds apart
    return e, -e


def lr_isotropic_state(h, N, k, j, a=1.0, sign=1):
    """Normalized 2N eigenvector (circ block, bullet block) of the tl = tr
    ribbon for transverse index j and branch sign(E).

    Arrays of indices j and signs give one contiguous column per (j, sign)
    pair."""
    _require_lr(h, N, j)
    js = np.atleast_1d(j)
    signs = np.broadcast_to(sign, js.shape)
    if (np.abs(signs) != 1).any():
        raise ValueError("sign must be +1 or -1")
    n = np.arange(1, N + 1)
    f = np.sin(math.pi * js[:, None] * n / (N + 1))
    gauge = np.exp(-1.0j * n * k * a)
    circ = np.exp(0.5j * k * a) * gauge
    a_bullet = 1.0 / math.sqrt(2.0)
    full = np.empty((len(js), 2 * N), dtype=complex)
    # a complex product rounds differently on numpy's broadcast paths, so
    # each state's circ amplitude multiplies a vector, as for one state
    for row, c, s in zip(full, _lr_c(h, N, k, a, js).tolist(),
                         signs.tolist()):
        if abs(c) == 0.0:
            row[:N] = circ * a_bullet  # degenerate pair convention
        else:
            row[:N] = circ * (s * (c / abs(c)) / math.sqrt(2.0))
    full[:, :N] *= f
    full[:, N:] = np.exp(-0.5j * k * a) * gauge * a_bullet * f
    # one norm per contiguous state: a batched reduction sums in another
    # order and changes the last bits
    for row in full:
        row /= np.linalg.norm(row)
    return full[0] if np.ndim(j) == 0 else full.T


# ------------------------------------------------------------ zero modes ---

@dataclass(frozen=True)
class ZeroModeState:
    psi_bullet: np.ndarray
    psi_circ: np.ndarray


def _zero_mode_x(h, k, a):
    # admissibility parameter; real on both zero-mode families
    return ((h.tu * cmath.exp(-1.0j * k * a) + h.td * cmath.exp(1.0j * k * a))
            / (2.0 * math.sqrt(h.tr * h.tl)))


def zero_mode_momenta(h, N, a=1.0):
    """All admissible (k, j) pairs hosting an exact E = 0 state.

    Two families: k = 0 whenever (tu+td)/(2 sqrt(tr tl)) hits a transverse
    cosine, and (for tu = td) the momenta solving
    cos(ka) = sqrt(tr tl) cos(pi j/(N+1))/tu.  The latter use the principal
    arccos branch and may land outside the reduced zone |k| < pi/(2a); the
    Bloch matrix is periodic under k -> k + pi/a, so they are equivalent to
    folded momenta.  For tu = td = 0 the admissible j is k-independent and
    only the k = 0 representative is listed.
    """
    if h.tr <= 0.0 or h.tl <= 0.0:
        raise ValueError("zero-mode analysis needs tr > 0 and tl > 0")
    root = math.sqrt(h.tr * h.tl)
    if root == 0.0:
        raise ValueError("tr * tl underflows to 0; the hoppings are out of "
                         "range")
    cos_j = np.cos(np.pi * np.arange(1, N + 1) / (N + 1))
    found = []
    for j in range(1, N + 1):
        if abs((h.tu + h.td) / (2.0 * root) - cos_j[j - 1]) < 1e-12:
            found.append((0.0, j))
    if h.tu > 0.0 and math.isclose(h.tu, h.td, rel_tol=1e-12, abs_tol=0.0):
        for j in range(1, N + 1):
            arg = root * cos_j[j - 1] / h.tu
            if abs(arg) <= 1.0:
                kj = math.acos(arg) / a
                for cand in ((kj, j), (-kj, j)) if kj != 0.0 else ((0.0, j),):
                    if not any(abs(cand[0] - k0) < 1e-15 and j == j0
                               for k0, j0 in found):
                        found.append(cand)
    return sorted(found, key=lambda kj: (kj[1], kj[0]))


def zero_mode_state(h, N, k, j, a=1.0):
    """Sublattice profiles of the E = 0 state at an admissible (k, j), each
    normalized to unit maximum magnitude.

    The bullet profile carries the (tr/tl)^{n/2} envelope (left-localized
    for tr < tl), the circ profile the inverse one; for tr = tl both reduce
    to pure standing waves.
    """
    if h.tr <= 0.0 or h.tl <= 0.0:
        raise ValueError("zero-mode analysis needs tr > 0 and tl > 0")
    if not 1 <= j <= N:
        raise ValueError(f"transverse index must be in 1..{N}, got {j}")
    x = _zero_mode_x(h, k, a)
    target = math.cos(math.pi * j / (N + 1))
    if abs(x - target) > 1e-9:
        raise ValueError(f"(k={k}, j={j}) does not satisfy the zero-mode "
                         f"admissibility condition (|dev| = {abs(x - target):.2e})")
    n = np.arange(1, N + 1)
    sine = np.sin(math.pi * j * n / (N + 1)) / math.sin(math.pi * j / (N + 1))
    common = (-1.0) ** n * np.exp(-1.0j * n * k * a) * sine
    ratio = h.tr / h.tl
    psi_bullet = common * ratio ** (n / 2.0)
    psi_circ = common * ratio ** (-n / 2.0)
    psi_bullet = psi_bullet / np.abs(psi_bullet).max()
    psi_circ = psi_circ / np.abs(psi_circ).max()
    return ZeroModeState(psi_bullet=psi_bullet, psi_circ=psi_circ)


def zero_mode_full_state(h, N, k, j, a=1.0):
    """Normalized 2N null vector (circ block, bullet block) at (k, j)."""
    zm = zero_mode_state(h, N, k, j, a=a)
    full = np.concatenate([zm.psi_circ, zm.psi_bullet])
    return full / np.linalg.norm(full)


def solve_zero_mode_sum(tr, tl, N, j):
    """The tu + td value placing the k = 0 zero mode exactly on index j."""
    if tr <= 0.0 or tl <= 0.0:
        raise ValueError("needs tr > 0 and tl > 0")
    if not 1 <= j <= N:
        raise ValueError(f"transverse index must be in 1..{N}, got {j}")
    return 2.0 * math.sqrt(tr * tl) * math.cos(math.pi * j / (N + 1))
