"""Roots of the zigzag secular equations, every momentum of a scan at once.

With y = cos(phi), U_n(y) = sin((n+1) phi)/sin(phi), so each zigzag secular
sum times sin(phi) is Im[e^{i M phi} (e^{i phi} + r)^p]: (M, p) = (N, 1) on
the one-sided triangular ribbon (r = tau/|zeta|) and the square zigzag one
(r = 1/|xi|), (N - 1, 2) on the two-sided one.  So bulk root j solves

    F(phi) = M phi + p atan2(sin phi, cos phi + r) = j pi

in [(j - p) pi/M, j pi/M], as the atan2 term lies in [0, pi], and F(0),
F(pi) fix the indices: p [r < -1] + 1 <= j <= M + p [r <= 1] - 1.  F
increases but in the edge-bulk transition band 1 < |r| <= (M + p)/M, where
its one extremum, cos phi* = -(M (1 + r^2) + p)/(r (2M + p)), adds the
index next to it and cuts every bracket (beyond phi*, F never comes back to
a root's level).  phase_roots refines every root in its bracket at once by
a safeguarded Newton iteration: no grid, and no tolerance at phi = 0 or pi.
Edge roots solve ratio(u) = |r|, which ratio_roots inverts the same way;
invert_monotone_ratio inverts one increasing ratio by scipy's brentq.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .chebpoly import _PI_LO

_EPS = np.finfo(float).eps


def _newton(f, x, lo, hi):
    """Root of each increasing f in its bracket [lo, hi], from x.

    f(x, live) gives, for the entries `live`, the values, the slopes and
    the sums of the magnitudes of the terms of the values.  A Newton step
    not strictly inside the bracket bisects it instead, and each value
    narrows the bracket.  An entry is done, with its last Newton step, when
    that step is a few ulps or its value is within rounding of 0, or when
    its bracket is a few ulps wide; one not done after 100 steps is NaN."""
    out = np.full(x.shape, np.nan)
    live = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if not live.size:
                break
            value, slope, scale = f(x, live)
            below = value < 0.0
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            delta = value / slope
            step = x - delta
            inside = (step > lo) & (step < hi)
            close = ((np.abs(delta) <= 4.0 * _EPS * x)
                     | (np.abs(value) <= 4.0 * _EPS * scale))
            done = close | (hi - lo <= 4.0 * _EPS * hi)
            out[live[done]] = np.where(inside & close, step, x)[done]
            x = np.where(inside, step, 0.5 * (lo + hi))[~done]
            live, lo, hi = live[~done], lo[~done], hi[~done]
    return out


def phase_roots(r, M, p):
    """Every bulk root of F(phi) = M phi + p atan2(sin phi, cos phi + r) =
    j pi in [0, pi], for each entry of the array r.

    Returns (m, phi), the index into r and the angle of each root, grouped
    by m; phi is NaN on a root not converged.  A negative r is solved as
    -r, whose roots are pi - phi (with index M + p - j), so the band's
    extremum lies next to pi, where F - j pi is formed from pi - phi
    without cancelling."""
    r = np.asarray(r, dtype=float)
    rho = np.abs(r)
    band = (rho > 1.0) & (rho <= (M + p) / M)
    count = M + p * (rho <= 1.0) - 1 + band  # j = 1..count for r >= 0
    m = np.repeat(np.arange(r.size), count)
    j = np.arange(m.size) - np.repeat(np.cumsum(count) - count, count) + 1
    lo = np.maximum((j - p) * np.pi / M, 0.0)
    hi = np.minimum(j * np.pi / M, np.pi)
    # pi - phi* of the extremum, from cos^2(phi*/2) formed from |r| - 1
    dr = rho - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = 2.0 * np.arcsin(np.sqrt(np.maximum(
            dr * (p - M * dr), 0.0) / (2.0 * rho * (2 * M + p))))
    hi = np.where(band[m], np.minimum(hi, np.pi - cut[m]), hi)
    rm = rho[m]
    past = (j - M) * np.pi

    def f(phi, live):
        rl, jl = rm[live], past[live]
        near = phi < 0.5 * np.pi
        # past pi/2 every term comes from x = pi - phi, to full precision
        x = np.where(near, phi, (np.pi - phi) + _PI_LO)
        s, c = np.sin(0.5 * x), np.cos(0.5 * x)
        sin = 2.0 * s * c
        # cos(phi) + r, without cancelling at r ~ 1 near phi = pi
        q = np.where(near, (1.0 + rl) - 2.0 * s * s, (rl - 1.0) + 2.0 * s * s)
        # M phi - j pi, as -M (pi - phi) - (j - M) pi past pi/2
        linear = np.where(near, M * x, -M * x)
        offset = np.where(near, jl + M * np.pi, jl)
        turn = p * np.arctan2(sin, q)
        slope = M + p * (1.0 + rl * (q - rl)) / (sin * sin + q * q)
        return (linear - offset + turn, slope,
                np.abs(linear) + np.abs(offset) + turn)

    phi = _newton(f, 0.5 * (lo + hi), lo, hi)
    return m, np.where(r[m] < 0.0, np.pi - phi, phi)


def scan_roots(r, M, p, families):
    """Every root of the zigzag secular equation of each entry of the array
    r: the bulk roots of phase_roots and, for each edge family (a
    chebpoly.EdgeFamily) whose threshold |r| exceeds, one from ratio_roots.

    Returns the rows (m, phi, u, family), bulk rows first: the index into
    r, the bulk angle or the edge decay (the other NaN) and the index of
    the edge root's family (-1 on a bulk root); and the indices m with a
    root not converged, whose rows are left out."""
    m, phi = phase_roots(r, M, p)
    rows = [(m, phi, np.full(m.size, np.nan), np.full(m.size, -1))]
    for i, family in enumerate(families):
        host = np.flatnonzero(np.abs(r) > family.threshold)
        rows.append((host, np.full(host.size, np.nan),
                     ratio_roots(np.abs(r[host]), family.order, family.even),
                     np.full(host.size, i)))
    m, phi, u, family = map(np.concatenate, zip(*rows))
    lost = np.unique(m[np.isnan(phi) & np.isnan(u)])
    keep = ~np.isin(m, lost)
    return m[keep], phi[keep], u[keep], family[keep], lost


def ratio_roots(rho, b, even):
    """The decay u > 0 at which cosh((b+1)u)/cosh(bu) (even) or
    sinh((b+1)u)/sinh(bu) equals rho, for each entry of the array rho
    above the ratio's u -> 0 limit, 1 or (b+1)/b.

    Newton's method on log ratio(u) - log rho, which neither overflows nor
    cancels, inside [log(rho/limit), log(2 rho)], from the root of its
    quadratic expansion at u = 0.  NaN where it does not converge."""
    rho = np.asarray(rho, dtype=float)
    a = b + 1.0
    limit = 1.0 if even else a / b
    level = np.log1p((rho - limit) / limit)  # log(rho/limit)
    curvature = (a + b) / (2.0 if even else 6.0)
    lo, hi = level, np.log(rho) + np.log(2.0)
    u0 = np.clip(np.sqrt(level / curvature), lo, hi)
    offset = np.log(limit)

    def f(u, live):
        if even:
            terms = (np.log1p(np.exp(-2.0 * a * u)),
                     -np.log1p(np.exp(-2.0 * b * u)))
            slope = a * np.tanh(a * u) - b * np.tanh(b * u)
        else:
            terms = (np.log(np.expm1(-2.0 * a * u) / np.expm1(-2.0 * b * u)),
                     -offset)
            # a coth(au) - b coth(bu) cancels at small u: its series there
            slope = np.where(a * u < 1e-3, (a + b) * u / 3.0,
                             a / np.tanh(a * u) - b / np.tanh(b * u))
        value = u + terms[0] + terms[1] - level[live]
        return (value, slope,
                u + np.abs(terms[0]) + np.abs(terms[1]) + level[live])

    return _newton(f, u0, lo, hi)


def invert_monotone_ratio(f, target):
    """Solve f(u) = target for the strictly increasing ratio f on (0, inf).

    Doubles hi from 1 until f(hi) >= target, then Brent-refines on
    [1e-300, hi].  The caller must guarantee target > lim_{u->0} f(u).
    """
    hi = 1.0
    for _ in range(200):
        if f(hi) >= target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the ratio inversion")
    return float(brentq(lambda u: f(u) - target, 1e-300, hi,
                        xtol=1e-300, rtol=8.9e-16))
