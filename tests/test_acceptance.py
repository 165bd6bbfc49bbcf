"""Acceptance gate: one test per release criterion.

Each test carries a one-line docstring that the conftest hooks echo as a
PASS/FAIL line in the terminal summary, so the whole gate can be read at a
glance.  Every expected number here is produced by an independent route:
dense diagonalization of the Bloch matrix, cofactor expansion of the secular
determinant, the three-term recurrence, or a hand-derived closed form —
never by the code under test.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import edge_envelope, midpoint_grid

from chebribbon import square_ribbon as sq
from chebribbon import triangle_ribbon as tri
from chebribbon.chebpoly import (det_perturbed_corner, u_all, u_eval,
                                 u_hyp_log, u_log, u_trig)
from chebribbon.hamiltonian import (SquareHoppings, TriangleHoppings,
                                    build_square_bloch, build_triangle_bloch,
                                    eigensolve_dense, subspace_overlap)


def _square_oracle(h, N, k):
    return eigensolve_dense(build_square_bloch(h, N, k))


def _triangle_oracle(h, N, k, ends):
    return eigensolve_dense(build_triangle_bloch(h, N, k, ends=ends))


def _laplace_det(matrix):
    """Recursive cofactor expansion along the first row (independent of
    numpy.linalg), kept for matrices small enough that exact recursion wins."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for col in range(n):
        if m[0, col] == 0.0:
            continue
        minor = np.delete(np.delete(m, 0, axis=0), col, axis=1)
        total += (-1.0) ** col * m[0, col] * _laplace_det(minor)
    return total


def _corner_matrix(n, w, w_tilde, xi_abs):
    """Tridiagonal matrix with constant diagonal w/xi, unit off-diagonals,
    and the first diagonal entry replaced by w_tilde/xi."""
    m = (w / xi_abs) * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    m[0, 0] = w_tilde / xi_abs
    return m


def test_criterion_01():
    """Square zigzag closed-form spectra match the dense oracle at 1e-9."""
    h = SquareHoppings(tu=1.0, td=1.0, tl=0.0, tr=1.0)
    started = time.perf_counter()
    for N in (5, 13):
        for k in midpoint_grid(math.pi / 2, 256):
            xi_abs = abs(sq.xi_of_k(h, k)[0])
            omegas = sq.zigzag_roots(xi_abs, N)[0]
            assert omegas.size == N
            analytic = np.sort(np.concatenate([-omegas, omegas]))
            spec = _square_oracle(h, N, k)
            dev = np.abs(analytic - spec.energies)
            assert np.max(dev / np.maximum(1.0, np.abs(spec.energies))) < 1e-9
    assert time.perf_counter() - started < 5.0


def test_criterion_02():
    """Edge branch detaches at (N/(N+1), 1/(N+1)) in the shallow limit."""
    for N in (5, 13):
        pt = sq.zigzag_edge_branch(1e-6, N)
        assert abs(pt.xi_abs - N / (N + 1.0)) < 1e-5
        assert abs(pt.omega - 1.0 / (N + 1.0)) < 1e-5


def test_criterion_03():
    """Regime verdicts predict per-momentum edge presence in the oracle."""
    N = 5
    cases = [
        (SquareHoppings(tu=2.0, td=0.1, tl=0.0, tr=1.0),
         sq.RegimeVerdict.NEVER_EMERGE),
        (SquareHoppings(tu=0.2, td=0.2, tl=0.0, tr=1.0),
         sq.RegimeVerdict.ALWAYS_EDGE),
        (SquareHoppings(tu=1.0, td=1.0, tl=0.0, tr=1.0),
         sq.RegimeVerdict.EDGE_BULK_TRANSITION),
    ]
    for h, expected in cases:
        regime = sq.edge_regime(h, N)
        assert regime.verdict is expected
        assert regime.xi_cr == pytest.approx(N / (N + 1.0))
        assert regime.omega_cr == pytest.approx(1.0 / (N + 1.0))
        for k in midpoint_grid(math.pi / 2, 64):
            xi_abs = abs(sq.xi_of_k(h, k)[0])
            if xi_abs < 1e-6 or abs(xi_abs - regime.xi_cr) < 1e-3:
                continue
            spec = _square_oracle(h, N, k)
            ratios = (((spec.energies / h.tr) ** 2 - xi_abs ** 2 - 1.0)
                      / (2.0 * xi_abs))
            assert bool(np.any(ratios < -1.0)) == (xi_abs < regime.xi_cr)


def test_criterion_04():
    """Interior subband extrema lie on the closed-form ellipse."""
    N = 5
    xi_grid = np.linspace(0.02, 1.4, 1401)
    table = np.array([sq.zigzag_roots(x, N)[0] for x in xi_grid])
    found = 0
    for j in range(N):
        diffs = np.diff(table[:, j])
        flips = np.nonzero(diffs[:-1] * diffs[1:] < 0.0)[0] + 1
        for i in flips:
            sgn = 1.0 if diffs[i - 1] < 0.0 else -1.0
            res = minimize_scalar(
                lambda x: sgn * sq.zigzag_roots(float(x), N)[0][j],
                bounds=(xi_grid[i - 1], xi_grid[i + 1]), method="bounded",
                options={"xatol": 1e-12})
            xi_star = float(res.x)
            omega_star = sq.zigzag_roots(xi_star, N)[0][j]
            assert abs(sq.extrema_ellipse_residual(omega_star, xi_star,
                                                   N)) < 1e-6
            found += 1
    assert found == 2  # bands 2 and 3 turn over inside the scanned range


def test_criterion_05():
    """Left-right model energies and states are exact for random hoppings."""
    rng = np.random.default_rng(20260816)
    tu, td, tr = rng.uniform(0.3, 1.4, size=3)
    h = SquareHoppings(tu=tu, td=td, tl=tr, tr=tr)
    N = 5
    for idx, k in enumerate(midpoint_grid(math.pi / 2, 128)):
        pairs = [sq.lr_isotropic_spectrum(h, N, k, j)
                 for j in range(1, N + 1)]
        analytic = np.sort(np.ravel(pairs))
        spec = _square_oracle(h, N, k)
        assert np.max(np.abs(analytic - spec.energies)) < 1e-10
        if idx % 16:
            continue
        for j in range(1, N + 1):
            e_plus, e_minus = sq.lr_isotropic_spectrum(h, N, k, j)
            for energy, sign in ((e_plus, 1), (e_minus, -1)):
                state = sq.lr_isotropic_state(h, N, k, j, sign=sign)
                assert subspace_overlap(spec, energy, state) > 1 - 1e-8


def test_criterion_06():
    """Zero-mode momenta, energies, and sublattice envelopes are exact."""
    h = SquareHoppings(tu=0.5, td=0.5, tl=1.0, tr=1.0)
    momenta = sq.zero_mode_momenta(h, 2)
    assert (0.0, 1) in momenta
    for k, j in momenta:
        spec = _square_oracle(h, 2, k)
        assert np.min(np.abs(spec.energies)) < 1e-10
        state = sq.zero_mode_full_state(h, 2, k, j)
        assert subspace_overlap(spec, 0.0, state) > 1 - 1e-8
    # anisotropic wide ribbon: the closed-form envelope, not just the energy
    N, j, tr, tl = 30, 1, 0.9, 1.0
    half = math.sqrt(tr * tl) * math.cos(math.pi * j / (N + 1))
    h = SquareHoppings(tu=half, td=half, tl=tl, tr=tr)
    assert (0.0, j) in sq.zero_mode_momenta(h, N)
    zm = sq.zero_mode_state(h, N, 0.0, j)
    n = np.arange(1, N + 1)
    envelope = ((-1.0) ** n * (tr / tl) ** (n / 2.0)
                * np.sin(math.pi * j * n / (N + 1))
                / math.sin(math.pi * j / (N + 1)))
    envelope = envelope / np.abs(envelope).max()
    m = int(np.argmax(np.abs(envelope)))
    aligned = zm.psi_bullet * (envelope[m] / zm.psi_bullet[m])
    assert np.max(np.abs(aligned - envelope)) < 1e-12
    spec = _square_oracle(h, N, 0.0)
    full = sq.zero_mode_full_state(h, N, 0.0, j)
    assert subspace_overlap(spec, 0.0, full) > 1 - 1e-6


def test_criterion_07():
    """Linear-edge triangular spectra match the dense oracle at 1e-10."""
    h = TriangleHoppings(t1=1.0, t2=1.0, t3=1.0)
    N = 5
    for k in midpoint_grid(math.pi, 128):
        energies = tri.linear_energies(h, N, k)
        spec = _triangle_oracle(h, N, k, 0)
        assert np.max(np.abs(np.sort(energies) - spec.energies)) < 1e-10


def _points(table):
    """The points of an EdgeBranch table, each an EdgeBranch of scalars."""
    return [table._make(point) for point in zip(*table)]


def test_criterion_08():
    """One-sided zigzag edge branches exist per threshold and sit one-sided."""
    h = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    N = 5
    report = tri.edge_existence(h, N, 1)
    assert report["plus"]["threshold"] == pytest.approx(0.4)
    assert report["minus"]["threshold"] == pytest.approx(0.5)
    assert report["plus"]["bound"] == pytest.approx(N / (N + 1.0))
    assert report["plus"]["exists"] and report["minus"]["exists"]
    u_grid = np.logspace(-2, 0.4, 12)
    for sign in (1, -1):
        sols = tri.edge_solutions(h, N, sign, 1, u_grid=u_grid)
        assert len(sols.u)
        for sol in _points(sols):
            gap = sol.energy - (sol.tau + sign * 2.0 * sol.zeta_abs)
            assert sign * gap > 0.0
            spec = _triangle_oracle(h, N, sol.k, 1)
            y = (spec.energies - sol.tau) / (2.0 * sol.zeta_abs)
            outside = np.abs(y) > 1.0 + 1e-6
            assert int(np.sum(outside & (y > 0))) == (1 if sign > 0 else 0)
            assert int(np.sum(outside & (y < 0))) == (0 if sign > 0 else 1)


def test_criterion_09():
    """Two-sided zigzag family bounds gate which edge branches appear."""
    strong = TriangleHoppings(t1=1.5, t2=0.1, t3=1.0)
    weak = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    N = 5
    report = tri.edge_existence(strong, N, 2)
    for side in ("plus", "minus"):
        assert report["A"][side]["exists"]
        assert not report["B"][side]["exists"]
    weak_report = tri.edge_existence(weak, N, 2)
    assert all(weak_report[f][s]["exists"]
               for f in ("A", "B") for s in ("plus", "minus"))
    for sign in (1, -1):
        assert len(tri.edge_solutions(weak, N, sign, 2, "B").u)
        assert not len(tri.edge_solutions(strong, N, sign, 2, "B").u)
    for h in (strong, weak):
        for k in midpoint_grid(math.pi, 64):
            roots = tri.roots(h, N, k, 2)
            spec = _triangle_oracle(h, N, k, 2)
            tau = tri.tau_of_k(h, k)
            za = abs(tri.zeta_of_k(h, k)[0])
            y = (spec.energies - tau) / (2.0 * za)
            if np.any(np.abs(np.abs(y) - 1.0) < 1e-4):
                continue  # transition point: counting is ill-conditioned
            analytic = int(np.count_nonzero(roots.edge))
            assert analytic == int(np.sum(np.abs(y) > 1.0))


def test_criterion_10():
    """Deep edge states keep unit-accurate wavefunctions on wide ribbons."""
    N = 30
    for u in (0.01, 0.12, 1.0):
        pt = sq.zigzag_edge_branch(u, N)
        w = pt.xi_abs / 2.0
        h = SquareHoppings(tu=w, td=w, tl=0.0, tr=1.0)
        spec = _square_oracle(h, N, 0.0)
        omega = np.array([pt.omega, -pt.omega])
        states = sq.zigzag_root_states(complex(pt.xi_abs), omega,
                                       np.full(2, np.nan), np.full(2, u), N)
        assert np.all(subspace_overlap(spec, omega, states) > 1 - 1e-6)
        direct = math.sqrt(float(np.sum(pt.psi_circ ** 2)
                                 + np.sum(pt.psi_bullet ** 2)))
        assert pt.norm_const == pytest.approx(1.0 / direct, rel=1e-12)


def test_criterion_11():
    """Shallow edge envelopes approach the linear detachment profile."""
    N = 30
    pt = sq.zigzag_edge_branch(1e-6, N)
    n = np.arange(1, N + 1)
    expected = (N - n + 1.0) / N
    assert np.max(np.abs(pt.psi_circ - expected)) < 1e-4
    assert np.max(np.abs(pt.psi_bullet[::-1] - expected)) < 1e-4
    # at the detachment point |xi| = N/(N+1) the oracle's state at
    # omega = 1/(N+1) follows the power law itself
    for N in (5, 30, 200):
        w = N / (2.0 * (N + 1))
        spec = _square_oracle(SquareHoppings(tu=w, td=w, tl=0.0, tr=1.0),
                              N, 0.0)
        circ = np.abs(spec.vectors[:N, np.argmin(
            np.abs(spec.energies - 1.0 / (N + 1)))])
        expected = N - np.arange(N, dtype=float)
        assert np.max(np.abs(circ / np.linalg.norm(circ)
                             - expected / np.linalg.norm(expected))) < 1e-12


def test_criterion_12():
    """Two-sided envelopes stay exactly mirror-(anti)symmetric when deep."""
    N = 30
    for u in (0.2, 0.8, 2.0):
        even = edge_envelope(u, N, 2, "A")
        odd = edge_envelope(u, N, 2, "B")
        assert np.max(np.abs(even - even[::-1])) < 1e-12
        assert np.max(np.abs(odd + odd[::-1])) < 1e-12


def test_criterion_13():
    """Corner-perturbed determinants match direct cofactor expansion."""
    samples = [(1.3, 2.1, 0.8), (-0.7, 0.3, 0.5), (0.4, 1.4, 1.5)]
    for w, w_tilde, xi_abs in samples:
        for n in range(1, 13):
            direct = _laplace_det(_corner_matrix(n, w, w_tilde, xi_abs))
            closed = det_perturbed_corner(n, w, w_tilde, xi_abs)
            assert abs(direct - closed) < 1e-10 * max(1.0, abs(direct))
    for w, _, xi_abs in samples:
        for n in range(1, 13):
            closed = det_perturbed_corner(n, w, w, xi_abs)
            assert closed == pytest.approx(u_eval(n, w / (2.0 * xi_abs)),
                                           rel=1e-10, abs=1e-10)


def test_criterion_14():
    """Polynomial recurrence agrees with trig, hyperbolic, and log routes."""
    degrees = (1, 2, 3, 5, 10, 25, 50, 100, 150, 200)
    for n in degrees:
        for v in np.linspace(0.15, math.pi - 0.15, 7):
            closed = u_trig(n, v)
            direct = u_all(n, math.cos(v))[n + 1]
            assert abs(direct - closed) < 1e-10 * max(1.0, abs(closed))
        for u in (0.01, 0.05, 0.2, 1.0, 2.5):
            if (n + 1) * u > 600.0:
                continue
            closed = math.exp(u_hyp_log(n, u))
            direct = u_all(n, math.cosh(u))[n + 1]
            assert abs(direct - closed) < 1e-10 * max(1.0, abs(closed))
    for n, u in ((200, 2.0), (5000, 1.0), (400, 0.9)):
        log_closed = u_hyp_log(n, u)
        log_direct, sign = u_log(n, math.cosh(u))
        assert sign == 1
        assert abs(log_direct - log_closed) < 1e-10 * max(1.0, log_closed)
    assert u_hyp_log(5000, 1.0) > 710.0  # far past float overflow
