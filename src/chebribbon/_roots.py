"""Shared bracketing machinery for the angular secular equations.

Every bulk secular equation in this package reduces to finding the roots of a
smooth function R(phi) on [0, pi] whose product with sin(phi) is a cheap
trigonometric polynomial.  The scan brackets sign changes of that product on
a node grid (the grid must include the zeros of the participating Chebyshev
polynomials: for strongly weighted secular terms, root pairs straddle those
zeros and would otherwise share a cell without a net sign change), and
refines with Brent's method.  Endpoint-adjacent brackets use the smooth form
R itself, since the product vanishes identically at 0 and pi.

Interior brackets are refined all at once by brent_lockstep, an array port
of scipy's brentq that returns the same roots bit for bit, once there are
enough of them to repay its per-iteration array overhead.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.optimize import brentq


# Interior brackets per scan from which brent_lockstep beats a loop of
# scalar brentq calls (measured per momentum: 0.36 vs 0.57 ms at N = 4,
# 0.68 vs 0.59 ms at N = 8).
LOCKSTEP_MIN_BRACKETS = 8

_XTOL = 1e-15
_RTOL = 8.9e-16


def angular_scan(g_grid, g_exact, left_limit, right_limit, nodes,
                 boundary_tol):
    """Roots of R(phi) in (0, pi), plus boundary-root flags.

    g_grid: vectorized, equals R(phi)*sin(phi) on the open interval (same
        sign as R there).
    g_exact: scalar-friendly smooth continuation of R through 0 and pi.
    left_limit / right_limit: R(0) and R(pi).
    nodes: sorted grid covering [0, pi] with 0 and pi included.
    boundary_tol: |limit| at or below this counts as a root sitting exactly
        on the interval end (returned as a flag, not in the root list).
    """
    nodes = np.asarray(nodes, dtype=float)
    vals = np.empty(len(nodes))
    vals[1:-1] = g_grid(nodes[1:-1])
    vals[0] = left_limit
    vals[-1] = right_limit
    boundary0 = abs(left_limit) <= boundary_tol
    boundary_pi = abs(right_limit) <= boundary_tol

    roots = []
    for i in np.nonzero(vals[1:-1] == 0.0)[0] + 1:
        roots.append(float(nodes[i]))  # grid point landed on a root
        vals[i] = np.nan
    if boundary0:
        vals[0] = np.nan
    if boundary_pi:
        vals[-1] = np.nan

    # NaN neighbours compare False, so flagged cells drop out here
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    last = len(nodes) - 1
    ends = (cells == 0) | (cells + 1 == last)
    for i in cells[ends]:
        roots.append(float(brentq(g_exact, nodes[i], nodes[i + 1],
                                  xtol=_XTOL, rtol=_RTOL)))
    inner = cells[~ends]
    if len(inner) >= LOCKSTEP_MIN_BRACKETS:
        roots.extend(brent_lockstep(g_grid, nodes[inner], nodes[inner + 1],
                                    xtol=_XTOL, rtol=_RTOL).tolist())
    else:
        for i in inner:
            roots.append(float(brentq(g_grid, nodes[i], nodes[i + 1],
                                      xtol=_XTOL, rtol=_RTOL)))
    return sorted(roots), boundary0, boundary_pi


def _nan_checked(f, x):
    fx = np.asarray(f(x), dtype=float)
    bad = np.isnan(fx)
    if np.any(bad):
        raise ValueError(f"The function value at x={x[bad][0]} is NaN; "
                         "solver cannot continue.")
    return fx


def brent_lockstep(f, a, b, xtol=_XTOL, rtol=_RTOL, maxiter=100):
    """Roots of f in every bracket [a[i], b[i]], refined side by side.

    f maps an array of abscissae to the array of function values.  The step
    rule is scipy's brentq (scipy/optimize/Zeros/brentq.c) with each
    expression evaluated in the same order, so every entry of the result
    equals brentq(f, a[i], b[i], xtol=xtol, rtol=rtol, maxiter=maxiter) bit
    for bit.  Like brentq it raises ValueError on a NaN function value or a
    bracket without a sign change, and RuntimeError when a bracket has not
    converged after maxiter iterations.
    """
    xpre = np.array(a, dtype=float)
    xcur = np.array(b, dtype=float)
    fpre = _nan_checked(f, xpre)
    fcur = _nan_checked(f, xcur)
    root = np.where(fpre == 0.0, xpre, xcur)
    live = (fpre != 0.0) & (fcur != 0.0)
    if np.any(live & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    idx = np.flatnonzero(live)
    xpre, xcur, fpre, fcur = xpre[idx], xcur[idx], fpre[idx], fcur[idx]
    xblk = np.zeros_like(xcur)
    fblk = np.zeros_like(xcur)
    spre = np.zeros_like(xcur)
    scur = np.zeros_like(xcur)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(maxiter):
            fresh = ((fpre != 0.0) & (fcur != 0.0)
                     & (np.signbit(fpre) != np.signbit(fcur)))
            xblk = np.where(fresh, xpre, xblk)
            fblk = np.where(fresh, fpre, fblk)
            spre = np.where(fresh, xcur - xpre, spre)
            scur = np.where(fresh, spre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                                np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                                np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))

            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if np.any(done):
                root[idx[done]] = xcur[done]
                keep = ~done
                idx, xpre, xcur, xblk = idx[keep], xpre[keep], xcur[keep], \
                    xblk[keep]
                fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
                spre, scur = spre[keep], scur[keep]
                delta, sbis = delta[keep], sbis[keep]
            if not len(idx):
                return root

            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = (-fcur * (fblk * dblk - fpre * dpre)
                           / (dblk * dpre * (fblk - fpre)))
            stry = np.where(xpre == xblk, interpolate, extrapolate)
            lim_s, lim_b = np.abs(spre), 3 * np.abs(sbis) - delta
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry)
                        < np.where(lim_s < lim_b, lim_s, lim_b)))
            spre = np.where(short, scur, sbis)
            scur = np.where(short, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0, delta, -delta))
            fcur = _nan_checked(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur[0]}")


def secular_nodes(N, degrees):
    """Uniform 8(N+1)-interval grid on [0, pi] joined with the zero angles
    pi*j/(d+1) of each Chebyshev degree d in `degrees`.

    Built once per (N, degrees) and shared by every caller, so the array is
    read-only."""
    return _node_grid(N, tuple(degrees))


# a scan asks for the same few grids at every momentum
@functools.lru_cache(maxsize=64)
def _node_grid(N, degrees):
    parts = [np.linspace(0.0, np.pi, 8 * (N + 1) + 1)]
    for d in degrees:
        if d >= 1:
            parts.append(np.pi * np.arange(1, d + 1) / (d + 1))
    nodes = np.unique(np.concatenate(parts))
    nodes.flags.writeable = False
    return nodes


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
