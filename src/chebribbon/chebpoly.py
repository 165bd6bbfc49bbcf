"""Chebyshev polynomials of the second kind, on and off [-1, 1].

The three-term recurrence U_n = 2x U_{n-1} - U_{n-2} (U_0 = 1, U_{-1} = 0) is
the single source of truth here.  Off [-1, 1] the values grow like
exp(n*arccosh|x|), so the recurrence carries a running log-scale; results are
exposed reconstructed (u_eval, saturating to +/-inf past float range), as
log-magnitude + sign (u_log), or as a same-scale pair (u_pair).

Closed forms sin((n+1)v)/sin(v) and log[sinh((n+1)u)/sinh(u)] are provided
separately (u_trig, u_hyp_log) so the recurrence can be validated against
them.  The zigzag ribbons' bulk profiles U_{n-1}(cos phi) + r U_{n-2}(cos phi)
and their inverse participation ratios come from the angle phi in closed
form (u_profile, u_profile_ipr).
All functions are pure and accept scalars or arrays in the real argument.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import SingularArgumentError

_RESCALE = 1e150
_LOG2 = float(np.log(2.0))

__all__ = [
    "u_eval",
    "u_all",
    "u_log",
    "u_pair",
    "u_trig",
    "u_profile",
    "u_profile_ipr",
    "u_hyp_log",
    "u_zeros",
    "det_perturbed_corner",
    "logsinh",
    "logcosh",
    "EdgeFamily",
    "zigzag_ends",
    "by_family",
]


def _match_scalar(x_in, out):
    return float(out) if np.isscalar(x_in) else out


def u_pair(n, x):
    """Run the recurrence up to degree n.

    Returns (a, b, log_scale) with U_{n-1}(x) = a*exp(log_scale) and
    U_n(x) = b*exp(log_scale).  log_scale stays exactly 0 until a value
    exceeds 1e150, so on-band evaluations are plain recurrence output.
    """
    if n < -1:
        raise ValueError(f"degree must be >= -1, got {n}")
    x = np.asarray(x, dtype=float)
    if n == -1:
        # (U_{-2}, U_{-1}) = (-1, 0), forced by running the recurrence backward
        return -np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    a = np.zeros_like(x)  # U_{-1}
    b = np.ones_like(x)   # U_0
    log_scale = np.zeros_like(x)
    for _ in range(n):
        a, b = b, 2.0 * x * b - a
        big = np.abs(b) > _RESCALE
        if np.any(big):
            s = np.where(big, np.abs(b), 1.0)
            a = a / s
            b = b / s
            log_scale = log_scale + np.log(s)
    return a, b, log_scale


def u_eval(n, x):
    """U_n(x) for any real x, n >= -1; overflows saturate to signed inf."""
    _, b, log_scale = u_pair(n, x)
    safe = np.where(b == 0.0, 1.0, np.abs(b))
    with np.errstate(over="ignore"):
        mag = np.exp(log_scale + np.log(safe))
    out = np.where(log_scale == 0.0, b,
                   np.where(b == 0.0, 0.0, np.copysign(mag, b)))
    return _match_scalar(x, out)


def u_all(n_max, x):
    """[U_{-1}(x), U_0(x), ..., U_{n_max}(x)] along the first axis.

    A scalar x gives a vector of n_max + 2 values; an array x gives a table
    of shape (n_max + 2,) + x.shape, one column per argument, with the
    recurrence run once for all of them.  Each column equals the scalar
    table bit for bit.  Plain recurrence without rescaling — meant for
    transverse state profiles, where n_max*arccosh|x| stays well inside
    float range.
    """
    if n_max < -1:
        raise ValueError(f"degree must be >= -1, got {n_max}")
    if np.ndim(x) == 0:
        out = np.zeros(n_max + 2)
        if n_max >= 0:
            out[1] = 1.0
        for m in range(1, n_max + 1):
            out[m + 1] = 2.0 * x * out[m] - out[m - 1]
        return out
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 2,) + x.shape)
    if n_max >= 0:
        out[1] = 1.0
    # (2x) U_m - U_{m-1}, rounded after each operation as in the scalar loop
    two_x = 2.0 * x
    rows = list(out)
    for m in range(1, n_max + 1):
        np.multiply(two_x, rows[m], out=rows[m + 1])
        np.subtract(rows[m + 1], rows[m - 1], out=rows[m + 1])
    return out


def u_log(n, x):
    """(log|U_n(x)|, sign) with sign in {-1, 0, +1}; log is -inf at zeros."""
    _, b, log_scale = u_pair(n, x)
    with np.errstate(divide="ignore"):
        logmag = log_scale + np.log(np.abs(b))
    if np.isscalar(x):
        return float(logmag), float(np.sign(b))
    return logmag, np.sign(b)


def u_trig(n, v):
    """sin((n+1)v)/sin(v), the closed form of U_n(cos v)."""
    s = np.sin(v)
    if np.any(np.abs(s) < 1e-12):
        raise SingularArgumentError(
            "angle too close to a multiple of pi; use u_eval(n, cos v)")
    return _match_scalar(v, np.sin((n + 1) * np.asarray(v, dtype=float)) / s)


# pi - float(pi): subtracted after float(pi), it reduces an angle mod pi to
# full relative precision
_PI_LO = 1.2246467991473532e-16


def _with_phase(z):
    """(z, arg z) of a 1-D complex array, arg by cmath.phase (np.angle
    differs in the last bit); a complex and a float for a 0-d z."""
    if z.ndim:
        return z, np.array([cmath.phase(v) for v in z.tolist()])
    return complex(z), cmath.phase(z)


def _folded(phi, r):
    """(psi, r', delta, fold) of angles phi in [0, pi] and ratios r.

    The profile sin(n phi) + r sin((n-1) phi) equals |c| sin(n phi + delta)
    with c = 1 + r e^{-i phi}; delta is taken mod pi, which flips only the
    sign.  Past 3 pi/4 (fold) it is (-1)^{n-1} times the profile at
    psi = pi - phi and r' = -r, so that angles near pi, whose products
    n phi would lose digits to rounding, are near 0 instead."""
    phi = np.asarray(phi, dtype=float)
    r = np.asarray(r, dtype=float)
    fold = phi > 0.75 * math.pi
    psi = np.where(fold, (math.pi - phi) + _PI_LO, phi)
    r = np.where(fold, -r, r)
    half = np.sin(0.5 * psi)
    # Re c = 1 + r cos(psi), in a form that keeps its digits at r ~ -1
    re_c = (1.0 + r) - 2.0 * r * half * half
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.arctan(-r * np.sin(psi) / re_c)
    return psi, r, delta, fold


def u_profile(phi, r, N):
    """Rows p_n, n = 1..N, proportional to U_{n-1}(cos phi) + r
    U_{n-2}(cos phi) = [sin(n phi) + r sin((n-1) phi)]/sin(phi) with a
    positive factor, one row per entry of phi and r (broadcast together),
    formed from sin(n phi + delta) and never from the recurrence.  At
    phi = 0 and phi = pi the rows are the limits (1 +- r) n -+ r."""
    psi, r, delta, fold = (v[..., None] for v in _folded(phi, r))
    n = np.arange(1, N + 1)
    rows = np.where(psi == 0.0, (1.0 + r) * n - r, np.sin(n * psi + delta))
    rows = np.where(fold & (n % 2 == 0), -rows, rows)
    return rows * np.copysign(1.0, rows[..., :1])  # p_1 > 0, as U_0 = 1


def _cosine_sum(m, psi, delta, N):
    """sum_{n=1..N} cos(m (n psi + delta)), a Dirichlet kernel in
    x = m psi / 2, which depends on x mod pi only: reduced there, its poles
    at multiples of pi cost no digits."""
    x = 0.5 * m * psi
    turns = np.rint(x / math.pi)
    x = (x - turns * math.pi) - turns * _PI_LO
    return np.cos(m * delta + (N + 1) * x) * np.sin(N * x) / np.sin(x)


def u_profile_ipr(phi, r, N):
    """Inverse participation ratio sum p^4 / (sum p^2)^2 of each profile
    of u_profile(phi, r, N), with no profile formed.

    With C_m = sum_n cos(m (n phi + delta)), sum sin^2 = (N - C_2)/2 and
    sum sin^4 = (3N - 4 C_2 + C_4)/8, so the IPR is
    (3N - 4 C_2 + C_4) / (2 (N - C_2)^2).  Where sum sin^2 falls below
    N/4 that difference cancels, near phi = 0 and pi with N phi small and
    at phi in {0, pi} itself; those few rows are summed from u_profile."""
    phi, r = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                 np.asarray(r, dtype=float))
    psi, _, delta, _ = _folded(phi, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        c2 = _cosine_sum(2, psi, delta, N)
        c4 = _cosine_sum(4, psi, delta, N)
        d = N - c2
        out = (3.0 * N - 4.0 * c2 + c4) / (2.0 * d * d)
    direct = ~(d > 0.5 * N)  # a NaN at phi = 0 too
    p2 = u_profile(phi[direct], r[direct], N) ** 2
    out[direct] = (p2 * p2).sum(axis=-1) / p2.sum(axis=-1) ** 2
    return out


def u_hyp_log(n, u):
    """log of sinh((n+1)u)/sinh(u); finite for n*u far past float range."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0):
        raise ValueError("decay parameter must be positive")
    return _match_scalar(u, logsinh((n + 1) * u_arr) - logsinh(u_arr))


def logsinh(y):
    """log(sinh y) for y > 0, valid across the whole double range."""
    if isinstance(y, float):
        # the array path's ufuncs on one float, without its wrapping
        if y <= 0.0:
            raise ValueError("logsinh needs y > 0")
        if y < 350.0:
            return float(np.log(np.sinh(y)))
        return float(y - _LOG2 + np.log1p(-np.exp(-2.0 * y)))  # also NaN
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0):
        raise ValueError("logsinh needs y > 0")
    small = y_arr < 350.0
    direct = np.log(np.sinh(np.where(small, y_arr, 1.0)))
    with np.errstate(over="ignore", divide="ignore"):
        tail = y_arr - _LOG2 + np.log1p(-np.exp(-2.0 * np.where(small, 1.0, y_arr)))
    return _match_scalar(y, np.where(small, direct, tail))


def _sinh_quotient(a, b, u):
    """sinh(a u)/sinh(b u) for 0 <= a <= b and decays u > 0, as
    e^{(a-b)u} expm1(-2au)/expm1(-2bu) with a - b formed exactly: nothing
    overflows, and each factor keeps full relative precision from u ~
    1e-300 to past sinh's range."""
    with np.errstate(under="ignore"):
        return (np.exp((a - b) * u) * np.expm1(-2.0 * a * u)
                / np.expm1(-2.0 * b * u))


def _cosh_quotient(a, b, u):
    """cosh(a u)/cosh(b u) for 0 <= a <= b and decays u >= 0, as
    e^{(a-b)u} (1 + e^{-2au})/(1 + e^{-2bu}), in _sinh_quotient's way."""
    with np.errstate(under="ignore"):
        return (np.exp((a - b) * u) * (1.0 + np.exp(-2.0 * a * u))
                / (1.0 + np.exp(-2.0 * b * u)))


class EdgeFamily(NamedTuple):
    """An edge branch of a zigzag ribbon: |r| = ratio(u) on it, rising from
    `threshold` at u -> 0; half(u) = 1/ratio(u) and bound = 1/threshold;
    envelope(u) is the state's profile.  ratio(u), which _roots.ratio_roots
    inverts, is cosh((b+1)u)/cosh(bu) (even) or sinh((b+1)u)/sinh(bu) with
    b = `order`; half(u) is _cosh_quotient's or _sinh_quotient's
    exponential form, to a few eps at any u.  level(u) is 2 cosh(u) -
    ratio(u) in a form that does not cancel, for a decay or an array of
    them, so that the edge energy tau + s 2|zeta| cosh(u), s = -sign(r), is
    s |zeta| level(u) to full relative precision however large |r| is."""

    name: str   # "A" (one-sided, or two-sided even) or "B" (odd)
    label: str  # its name in reports
    half: object
    threshold: float
    bound: float
    envelope: object
    level: object
    order: float
    even: bool


# a scan asks for the same ribbon at every momentum
@functools.lru_cache(maxsize=64)
def zigzag_ends(ends, N):
    """(coefficients, families) of the zigzag ribbon of width N with `ends`
    truncated end rows, 1 or 2: the secular equation in r = tau/|zeta| is
    sum_m c_m U_{N-m}(y) = 0 with (c_0, c_1[, c_2]) = coefficients(r), and
    families are its EdgeFamily branches.  The square zigzag ribbon has the
    one-sided edge condition with |r| = 1/|xi|."""
    n = np.arange(1, N + 1)
    # the sinh ratios of the envelopes as sinh(a)/sinh(b) =
    # e^{a-b} expm1(-2a)/expm1(-2b), a <= b, with a - b formed exactly:
    # nothing overflows, and each factor keeps full relative precision
    # from u ~ 1e-300 to past sinh's range
    if ends == 1:
        def envelope(u):  # sinh((N-n+1)u)/sinh(Nu)
            with np.errstate(under="ignore"):
                return (np.exp(-(n - 1) * u) * np.expm1(-2.0 * (N - n + 1) * u)
                        / math.expm1(-2.0 * N * u))

        def level(u):  # sinh((N-1)u)/sinh(Nu), 0.0 at N = 1
            return np.abs(_sinh_quotient(N - 1, N, u))

        def half_one_sided(u):  # sinh(Nu)/sinh((N+1)u)
            return _sinh_quotient(N, N + 1, u)

        return (lambda r: (1.0, r)), (EdgeFamily(
            "A", "one_sided", half_one_sided, (N + 1) / N, N / (N + 1.0),
            envelope, level, float(N), False),)
    if N < 2:
        raise ValueError("two-sided zigzag needs N >= 2")
    # the envelopes in their stable symmetric forms (see zz2_edge_profile)
    m = n - (N + 1) / 2.0
    half = (N - 1) / 2.0

    def even(u):  # cosh(mu)/cosh((N-1)u/2)
        return _cosh_quotient(np.abs(m), half, u)

    def odd(u):  # -sign(m) sinh(|m|u)/sinh((N-1)u/2)
        with np.errstate(under="ignore"):
            return -np.sign(m) * (np.exp((np.abs(m) - half) * u)
                                  * np.expm1(-2.0 * np.abs(m) * u)
                                  / math.expm1(-2.0 * half * u))

    # the levels with a = |N - 3|/2 <= b = (N - 1)/2, whose difference is
    # -1 (0 at N = 2)
    def level_even(u):  # cosh((N-3)u/2)/cosh((N-1)u/2)
        return _cosh_quotient(abs(N - 3) / 2.0, half, u)

    def half_even(u):  # cosh((N-1)u/2)/cosh((N+1)u/2)
        return _cosh_quotient(half, half + 1.0, u)

    def level_odd(u):  # sinh((N-3)u/2)/sinh((N-1)u/2), 0.0 at N = 3
        return np.copysign(_sinh_quotient(abs(N - 3) / 2.0, half, u), N - 3)

    def half_odd(u):  # sinh((N-1)u/2)/sinh((N+1)u/2)
        return _sinh_quotient(half, half + 1.0, u)

    return (lambda r: (1.0, 2.0 * r, r * r)), (
        EdgeFamily("A", "family_A", half_even, 1.0, 1.0, even, level_even,
                   half, True),
        EdgeFamily("B", "family_B", half_odd, (N + 1.0) / (N - 1.0),
                   (N - 1.0) / (N + 1.0), odd, level_odd, half, False))


def by_family(families, value):
    """value(family) keyed by family name; one family's value alone."""
    out = {fam.name: value(fam) for fam in families}
    return out if len(out) > 1 else out[families[0].name]


def logcosh(y):
    """log(cosh y), valid across the whole double range."""
    if isinstance(y, float):
        y = abs(y)
        if y < 350.0:
            return float(np.log(np.cosh(y)))
        return float(y - _LOG2 + np.log1p(np.exp(-2.0 * y)))  # also NaN
    y_arr = np.abs(np.asarray(y, dtype=float))
    small = y_arr < 350.0
    direct = np.log(np.cosh(np.where(small, y_arr, 1.0)))
    with np.errstate(over="ignore"):
        tail = y_arr - _LOG2 + np.log1p(np.exp(-2.0 * y_arr))
    return _match_scalar(y, np.where(small, direct, tail))


def u_zeros(n):
    """Zeros of U_n: cos(pi j/(n+1)), j = 1..n, in descending order."""
    if n < 1:
        raise ValueError(f"need degree >= 1, got {n}")
    j = np.arange(1, n + 1)
    return np.cos(np.pi * j / (n + 1))


def det_perturbed_corner(n, w, w_tilde, xi_abs):
    """Determinant of the n x n tridiagonal matrix with diagonal w/xi_abs,
    unit off-diagonal products, and first entry replaced by w_tilde/xi_abs.

    Equals (w_tilde/xi_abs) U_{n-1}(x) - U_{n-2}(x) at x = w/(2 xi_abs).
    """
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if xi_abs <= 0.0:
        raise ValueError("xi_abs must be positive")
    x = w / (2.0 * xi_abs)
    a, b, log_scale = u_pair(n - 1, x)  # (U_{n-2}, U_{n-1}) at shared scale
    with np.errstate(over="ignore"):
        out = ((w_tilde / xi_abs) * b - a) * np.exp(log_scale)
    return float(out)
