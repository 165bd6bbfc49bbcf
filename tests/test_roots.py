"""The indexed phase equation of the zigzag secular sums (_roots)."""

import math

import mpmath
import numpy as np
import pytest

from chebribbon import _roots
from chebribbon import square_ribbon as sq
from chebribbon import triangle_ribbon as tri
from chebribbon._roots import phase_roots, ratio_roots
from chebribbon.chebpoly import zigzag_ends
from chebribbon.hamiltonian import (SquareHoppings, TriangleHoppings,
                                    build_square_bloch, build_triangle_bloch)

# (M, p) of the one-sided (and square) and two-sided secular sums
_FORMS = [(N, 1) for N in (1, 2, 3, 5, 13)] + \
    [(N - 1, 2) for N in (2, 3, 5, 13)]


def _offsets(value):
    return [value * (1.0 + d) for d in (-1e-9, 0.0, 1e-9)]


def _ratios(M, p):
    """r on both sides of -1, 1 and the edge thresholds +-(M + p)/M, and
    away from them."""
    top = (M + p) / M
    return sorted({s * x for s in (1.0, -1.0) for x in
                   [0.0, 0.5, *_offsets(1.0), *_offsets(top), 3.0, 1e4]})


@pytest.mark.parametrize("M, p", _FORMS)
def test_phase_roots_index_range(M, p):
    r = np.array(_ratios(M, p))
    m, phi = phase_roots(r, M, p)
    top = (M + p) / M
    for i, ri in enumerate(r.tolist()):
        rho = abs(ri)
        band = 1.0 < rho <= top
        root = phi[m == i]
        assert np.all((root >= 0.0) & (root <= math.pi))
        # each root solves an indexed equation F = j pi, F evaluated at 40
        # digits, which gives back its index j
        index = []
        with mpmath.workdps(40):
            for phi_j in root.tolist():
                F = M * mpmath.mpf(phi_j) + p * mpmath.atan2(
                    mpmath.sin(phi_j), mpmath.cos(phi_j) + ri)
                j = int(mpmath.nint(F / mpmath.pi))
                assert abs(F - j * mpmath.pi) < 1e-14 * (M + p), (ri, j)
                index.append(j)
        # F(0) and F(pi) fix the range; the band adds the index next to
        # the extremum
        first = p * (ri < -1.0) + 1 - (band and ri < 0.0)
        last = M + p * (ri <= 1.0) - 1 + (band and ri > 0.0)
        assert sorted(index) == list(range(first, last + 1)), ri


def _reduced_spectrum(ri, N, ends):
    """y = (E - tau)/(2|zeta|) of the zigzag ribbon: the eigenvalues of the
    tridiagonal matrix with 1/2 off the diagonal and -r/2 on the
    truncated end rows."""
    diag = np.zeros(N)
    diag[0] -= ri / 2.0
    if ends == 2:
        diag[-1] -= ri / 2.0
    off = np.full(N - 1, 0.5)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                              + np.diag(off, -1))


@pytest.mark.parametrize("N", [1, 2, 3, 5, 13, 40])
@pytest.mark.parametrize("ends", [1, 2])
def test_phase_and_ratio_roots_give_the_whole_spectrum(N, ends):
    # bulk roots and one edge root per family above its threshold are the
    # N eigenvalues, across -1, 1 and both thresholds
    if ends == 2 and N < 2:
        return
    M, p = (N, 1) if ends == 1 else (N - 1, 2)
    r = np.array(_ratios(M, p) + [1.0 + 1e-12, -(1.0 + 1e-12)])
    m, phi = phase_roots(r, M, p)
    families = zigzag_ends(ends, N)[1]
    for i, ri in enumerate(r.tolist()):
        y = np.cos(phi[m == i]).tolist()
        for fam in families:
            if abs(ri) > fam.threshold:
                u, = ratio_roots(np.array([abs(ri)]), fam.order, fam.even)
                y.append(-math.copysign(math.cosh(u), ri))
        expected = _reduced_spectrum(ri, N, ends)
        assert len(y) == N
        # the dense solver's own error is eps times the matrix norm
        assert np.allclose(np.sort(y), expected, rtol=0.0,
                           atol=1e-13 * (1.0 + abs(ri))), ri


def _log_ratio(u, b, even):
    """log of cosh((b+1)u)/cosh(bu) (even) or sinh((b+1)u)/sinh(bu)."""
    if even:
        return u + np.log((1.0 + np.exp(-2.0 * (b + 1) * u))
                          / (1.0 + np.exp(-2.0 * b * u)))
    return u + np.log(np.expm1(-2.0 * (b + 1) * u) / np.expm1(-2.0 * b * u))


@pytest.mark.parametrize("b, even", [(1.0, False), (0.5, False), (0.5, True),
                                     (6.0, True), (6.0, False),
                                     (199.5, True), (1000.0, False)])
def test_ratio_roots_invert_the_family_ratios(b, even):
    u = np.array([1e-7, 1e-4, 0.01, 0.3, 1.0, 5.0, 50.0, 700.0])
    rho = np.exp(_log_ratio(u, b, even))
    found = ratio_roots(rho, b, even)
    # each decay gives back its ratio to rounding; the ratio flattens as
    # u -> 0, where the rounding of rho costs u more digits
    assert np.all(np.abs(_log_ratio(found, b, even) - np.log(rho))
                  <= 8.0 * np.finfo(float).eps * (1.0 + u))
    assert np.allclose(found[u >= 1.0], u[u >= 1.0], rtol=1e-14, atol=0.0)


def _counted_newton(monkeypatch):
    """Record the Newton steps of each _roots._newton call."""
    steps = []
    newton = _roots._newton

    def counted(f, *args):
        steps.append(0)

        def step(x, live):
            steps[-1] += 1
            return f(x, live)

        return newton(step, *args)

    monkeypatch.setattr(_roots, "_newton", counted)
    return steps


def test_slow_two_sided_scan_converges_within_the_cap(monkeypatch):
    # t = (1, 1, 1) at N = 40 puts momenta of a 128-point grid near the
    # family B threshold, where F flattens next to its extremum
    h, N = TriangleHoppings(1.0, 1.0, 1.0), 40
    ks = (np.arange(128) + 0.5 - 64) * (2.0 * math.pi / 128)
    steps = _counted_newton(monkeypatch)
    table, failed = tri.roots(h, N, ks, 2)
    assert failed == {} and len(table.energy) == N * len(ks)
    assert max(steps) <= 20
    for i, k in enumerate(ks.tolist()):
        expected = np.linalg.eigvalsh(build_triangle_bloch(
            h, N, k, ends=2))
        assert np.allclose(table.energy[i * N:(i + 1) * N], expected,
                           rtol=0.0, atol=3e-14)


@pytest.mark.parametrize("M, p", [(5, 1), (40, 1), (4, 2), (39, 2), (199, 2)])
def test_roots_next_to_the_thresholds_converge(monkeypatch, M, p):
    # |r| from 1e-16 to 1e-1 relative on either side of 1 and of (M + p)/M,
    # where F is flattest
    side = np.concatenate([s * np.logspace(-16.0, -1.0, 200)
                           for s in (1.0, -1.0)])
    rho = np.concatenate([1.0 + side, (M + p) / M * (1.0 + side)])
    steps = _counted_newton(monkeypatch)
    m, phi = phase_roots(np.concatenate([rho, -rho]), M, p)
    assert not np.isnan(phi).any()
    assert max(steps) <= 60


def _r_with_root_at(phi, M, p):
    """The r < -1 of the transition band for which phi is the root next to
    0: M phi + p atan2(sin phi, cos phi + r) = p pi."""
    return -math.cos(phi) - math.sin(phi) / math.tan(M * phi / p)


@pytest.mark.parametrize("N", [3, 6, 12])
def test_root_near_the_band_edge_matches_the_dense_spectrum(N):
    # a bulk root at phi ~ 1e-4 of the transition band, which a boundary
    # tolerance would snap onto phi = 0 (an energy error ~ |zeta| phi^2)
    for ends in (1, 2):
        M, p = (N, 1) if ends == 1 else (N - 1, 2)
        r = _r_with_root_at(1e-4, M, p)
        assert -(M + p) / M < r < -1.0
        # t2 = 0 and k = pi: zeta = t1 = 1 and tau = -2 t3
        h = TriangleHoppings(1.0, 0.0, -r / 2.0)
        roots = tri.roots(h, N, math.pi, ends)
        assert np.nanmin(roots.phi) == pytest.approx(1e-4, rel=1e-9)
        expected = np.linalg.eigvalsh(build_triangle_bloch(
            h, N, math.pi, ends=ends))
        assert np.all(np.abs(roots.energy - expected)
                      <= 1e-9 * np.maximum(1.0, np.abs(expected)))
    # square-zigzag's one-sided form with r = 1/|xi| > 0: the root next to
    # pi is the mirror image of the one next to 0 at -r
    xi = -1.0 / _r_with_root_at(1e-4, N, 1)
    omega, v, u = sq.zigzag_roots(xi, N)
    assert math.pi - np.nanmax(v) == pytest.approx(1e-4, rel=1e-9)
    h = SquareHoppings(tu=xi, td=0.0, tr=1.0, tl=0.0)
    expected = np.linalg.eigvalsh(build_square_bloch(h, N, 0.0))
    assert np.allclose(np.concatenate([-omega[::-1], omega]), expected,
                       rtol=0.0, atol=1e-9)
