"""Square-ribbon closed forms against hand values and the dense oracle."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from conftest import midpoint_grid

from chebribbon import square_ribbon as sq
from chebribbon.chebpoly import u_all, u_eval
from chebribbon.errors import DegenerateParameterError, NoEdgeStateError
from chebribbon.hamiltonian import (SquareHoppings, build_square_bloch,
                                    eigensolve_dense, subspace_overlap)

ISO = SquareHoppings(tu=1.0, td=1.0, tl=0.0, tr=1.0)


# ------------------------------------------------------------- reduction ---

def test_xi_of_k_examples():
    xi, phase = sq.xi_of_k(ISO, 0.0)
    assert xi == pytest.approx(2.0)
    assert phase == pytest.approx(0.0)
    xi, phase = sq.xi_of_k(ISO, math.pi / 4)
    assert xi == pytest.approx(1.0 + 1.0j)
    assert phase == pytest.approx(math.pi / 4)
    half = sq.xi_of_k(ISO, 0.3, a=0.5)[0]
    assert half == pytest.approx(sq.xi_of_k(ISO, 0.15)[0])
    with pytest.raises(ValueError):
        sq.xi_of_k(SquareHoppings(tu=1, td=1, tl=0, tr=0), 0.0)


def test_secular_residual_known_roots():
    # N = 1 collapses to a dimer: the only non-negative root is omega = |xi|
    for xi_abs in (0.3, 1.7):
        assert abs(sq.zigzag_secular_residual(xi_abs, xi_abs, 1)) < 1e-12
    # the marginal point where the localized branch detaches
    assert abs(sq.zigzag_secular_residual(1.0 / 6.0, 5.0 / 6.0, 5)) < 1e-9
    with pytest.raises(DegenerateParameterError):
        sq.zigzag_secular_residual(0.5, 0.0, 5)


def test_secular_residual_vanishes_on_oracle_energies():
    h = SquareHoppings(tu=1.2, td=0.0, tl=0.0, tr=1.0)  # |xi| = 1.2 at any k
    spec = eigensolve_dense(build_square_bloch(h, 4, 0.2))
    for omega in spec.energies[spec.energies > 0]:
        assert abs(sq.zigzag_secular_residual(omega, 1.2, 4)) < 1e-8


# --------------------------------------------------------------- spectrum --

def test_spectrum_examples():
    np.testing.assert_allclose(sq.zigzag_roots(0.7, 1)[0], [0.7], atol=1e-12)
    roots = sq.zigzag_roots(5.0 / 6.0, 5)[0]
    assert roots.size == 5
    assert roots[0] == pytest.approx(1.0 / 6.0, abs=1e-9)
    with pytest.raises(DegenerateParameterError):
        sq.zigzag_roots(0.0, 5)[0]


def test_spectrum_matches_oracle_across_widths():
    h = SquareHoppings(tu=1.0, td=0.35, tl=0.0, tr=1.0)
    for N in (2, 3, 5, 13):
        for k in midpoint_grid(math.pi / 2, 64):
            xi, _ = sq.xi_of_k(h, k)
            omegas = sq.zigzag_roots(abs(xi), N)[0]
            assert omegas.size == N
            analytic = np.sort(np.concatenate([-omegas, omegas]))
            spec = eigensolve_dense(build_square_bloch(h, N, k))
            dev = np.abs(analytic - spec.energies)
            assert np.max(dev / np.maximum(1.0, np.abs(spec.energies))) < 1e-9


# ------------------------------------------------------------ bulk states --

def test_bulk_components_anchor_and_recurrence():
    # the circ block is U_{n-1}(cos v) + U_{n-2}(cos v)/|xi| up to a
    # positive factor, anchored at U_0 = 1 on chain 1; the bullet block is
    # its mirror, anchored at chain N
    N, xi_abs = 5, 1.0
    for v in (math.pi / 3, 2.8):
        state = sq.zigzag_root_states(complex(xi_abs), 1.0, v, np.nan, N)
        circ, bullet = state[:N, 0].real, state[N:, 0].real
        assert circ[0] > 0.0
        assert circ[1] / circ[0] == pytest.approx(
            2.0 * math.cos(v) + 1.0 / xi_abs)
        np.testing.assert_allclose(circ[2:], 2.0 * math.cos(v) * circ[1:-1]
                                   - circ[:-2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(bullet[::-1]), np.abs(circ),
                                   rtol=0, atol=1e-15)
        # components are signed, not moduli
        assert (circ[1] < 0.0) == (v > 2.0)
    # at v = 0 and pi the profile is the limit (-1)^{n-1} [(1 +- r) n -+ r]
    n = np.arange(1, N + 1)
    for v, limit in ((0.0, 2.0 * n - 1.0), (math.pi, (-1.0) ** (n - 1))):
        circ = sq.zigzag_root_states(complex(xi_abs), 1.0, v, np.nan,
                                     N)[:N, 0].real
        np.testing.assert_allclose(circ / circ[0], limit, rtol=0,
                                   atol=1e-15)


def test_root_failures_are_reported_per_xi():
    N = 5
    xis = np.array([0.7, 0.0, -0.3, np.nan, 1.4])
    (omega, v, u), failed = sq.zigzag_roots(xis, N)
    assert sorted(failed) == [1, 2, 3]
    assert all(isinstance(e, DegenerateParameterError)
               for e in failed.values())
    assert omega.shape == v.shape == u.shape == (2, N)
    for row, xi_abs in enumerate((0.7, 1.4)):
        for got, single in zip((omega, v, u), sq.zigzag_roots(xi_abs, N)):
            np.testing.assert_array_equal(got[row], single)
    with pytest.raises(DegenerateParameterError):
        sq.zigzag_roots(0.0, N)


def test_bulk_state_matches_oracle_modulus():
    h = SquareHoppings(tu=0.8, td=0.3, tl=0.0, tr=1.0)
    N, k = 5, 0.45
    xi, _ = sq.xi_of_k(h, k)
    spec = eigensolve_dense(build_square_bloch(h, N, k))
    # the top subband is always in the band
    omega, v, u = (c[-1:] for c in sq.zigzag_roots(abs(xi), N))
    assert not np.isnan(v[0])
    profile = np.abs(sq.zigzag_root_states(xi, omega, v, u, N)[:N, 0])
    oracle = np.abs(spec.vectors[:N, -1])
    np.testing.assert_allclose(profile / np.linalg.norm(profile),
                               oracle / np.linalg.norm(oracle), atol=1e-8)


# ------------------------------------------------------------ edge branch --

def test_edge_branch_shallow_limit():
    pt = sq.zigzag_edge_branch(1e-8, 5)
    assert pt.xi_abs == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert pt.omega == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_edge_branch_profiles_and_norm():
    N, u = 30, 1.0
    pt = sq.zigzag_edge_branch(u, N)
    assert pt.psi_circ[0] == pytest.approx(1.0)
    assert pt.psi_bullet[-1] == pytest.approx(1.0)
    n = 6
    assert pt.psi_circ[n - 1] == pytest.approx(
        math.sinh((N - n + 1) * u) / math.sinh(N * u), rel=1e-12)
    assert pt.psi_bullet[n - 1] == pytest.approx(
        math.sinh(n * u) / math.sinh(N * u), rel=1e-12)
    for u in (0.01, 0.12, 1.0, 3.0):
        pt = sq.zigzag_edge_branch(u, N)
        direct = math.sqrt(float(np.sum(pt.psi_circ ** 2)
                                 + np.sum(pt.psi_bullet ** 2)))
        assert pt.norm_const == pytest.approx(1.0 / direct, rel=1e-12)
    # at tiny u the envelope is (N - n + 1)/N to rounding, and the
    # closed-form norm makes the state a unit vector to rounding
    pt = sq.zigzag_edge_branch(1e-150, N)
    np.testing.assert_allclose(pt.psi_circ, (N - np.arange(N)) / N,
                               rtol=1e-15)
    state = np.concatenate([pt.psi_circ, pt.psi_bullet]) * pt.norm_const
    assert abs(math.fsum((state ** 2).tolist()) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        sq.zigzag_edge_branch(0.0, 5)
    with pytest.raises(ValueError):
        sq.zigzag_edge_branch(-0.2, 5)


@pytest.mark.parametrize("N", [1, 6, 200, 1000])
def test_edge_norm_matches_extended_precision_sum(N):
    # from the shallow edge-bulk transition (u -> 0, where the closed form
    # cancels) to deep states (u = 400, where sinh overflows)
    mpmath.mp.dps = 40
    for u in (1e-300, 1e-12, 1e-6, 1e-3, 0.05, 1.0, 400.0):
        mu = mpmath.mpf(u)
        exact = 2 * mpmath.fsum((mpmath.sinh(n * mu) / mpmath.sinh(N * mu))
                                ** 2 for n in range(1, N + 1))
        found = sq._edge_norm_square(u, N)
        assert abs(found - exact) <= 1e-13 * exact, (u, found)


def test_edge_branch_points_satisfy_secular_equation():
    N = 5
    for u in np.logspace(-3, 0.3, 9):
        pt = sq.zigzag_edge_branch(u, N)
        x = -math.cosh(u)
        scale = abs(u_eval(N, x)) + abs(u_eval(N - 1, x)) / pt.xi_abs
        resid = sq.zigzag_secular_residual(pt.omega, pt.xi_abs, N)
        assert abs(resid) < 1e-10 * scale
        # reduced variable round trip
        x_back = (pt.omega ** 2 - pt.xi_abs ** 2 - 1.0) / (2.0 * pt.xi_abs)
        assert x_back == pytest.approx(-math.cosh(u), rel=1e-10)


def test_edge_branch_monotone_decay():
    N = 5
    us = np.linspace(0.05, 4.0, 40)
    omegas = [sq.zigzag_edge_branch(u, N).omega for u in us]
    assert np.all(np.diff(omegas) < 0.0)
    deep = sq.zigzag_edge_branch(30.0, N)
    assert deep.omega < 1e-60
    assert deep.xi_abs == pytest.approx(math.exp(-30.0), rel=1e-10)


def test_edge_u_inversion():
    N = 5
    for u0 in np.logspace(-3, 1, 7):
        xi_abs = sq.zigzag_edge_branch(u0, N).xi_abs
        assert sq.zigzag_edge_u_from_xi(xi_abs, N) == pytest.approx(
            u0, rel=1e-10)
    # asymptotics: deep branch has |xi| ~ e^{-u}
    assert sq.zigzag_edge_u_from_xi(1e-6, N) == pytest.approx(
        -math.log(1e-6), rel=0.02)
    # near the detachment point the decay parameter collapses
    assert sq.zigzag_edge_u_from_xi(5.0 / 6.0 - 1e-9, N) < 1e-3
    with pytest.raises(NoEdgeStateError):
        sq.zigzag_edge_u_from_xi(5.0 / 6.0, N)
    with pytest.raises(NoEdgeStateError):
        sq.zigzag_edge_u_from_xi(0.9, N)
    # against 40-digit roots of log(sinh((N+1)u)/sinh(Nu)) = -log|xi|, up to
    # 1e-6 below the bound, where u ~ sqrt(bound - |xi|) is still
    # conditioned well enough for 1e-9, and below 1/DBL_MAX, where 1/|xi|
    # overflows
    for N in (1, 5, 40, 1000):
        bound = N / (N + 1.0)
        for xi_abs in [share * bound for share in (
                1e-300, 1e-100, 1e-10, 1e-3, 0.1, 0.5, 0.9, 0.999,
                1.0 - 1e-6)] + [1e-310, 5e-324]:
            with mpmath.workdps(40):
                level = -mpmath.log(mpmath.mpf(xi_abs))
                expected = mpmath.findroot(
                    lambda u: mpmath.log(mpmath.sinh((N + 1) * u)
                                         / mpmath.sinh(N * u)) - level,
                    (mpmath.mpf("1e-30"), level), solver="anderson")
            assert sq.zigzag_edge_u_from_xi(xi_abs, N) == pytest.approx(
                float(expected), rel=1e-9), (N, xi_abs)


# ------------------------------------------------------------ full states --

def _hoppings_for_xi(xi_abs, k):
    # tu = td realizes |xi(k)| = 2 tu cos(k) with arg(xi) = k
    w = xi_abs / (2.0 * math.cos(k))
    return SquareHoppings(tu=w, td=w, tl=0.0, tr=1.0)


def test_full_state_matches_oracle_for_edge_and_bulk():
    N, k = 5, 0.4
    pt = sq.zigzag_edge_branch(0.5, N)
    h = _hoppings_for_xi(pt.xi_abs, k)
    xi, _ = sq.xi_of_k(h, k)
    spec = eigensolve_dense(build_square_bloch(h, N, k))
    omegas, v, u = sq.zigzag_roots(pt.xi_abs, N)
    edge = int(np.flatnonzero(np.isnan(v))[0])
    assert u[edge] == pytest.approx(0.5, rel=1e-12)
    for i, sign in ((edge, 1.0), (edge, -1.0), (N - 1, 1.0), (N - 1, -1.0)):
        omega = sign * omegas[i]
        state = sq.zigzag_root_states(xi, omega, v[i], u[i], N)[:, 0]
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        assert subspace_overlap(spec, omega, state) > 1 - 1e-8


def _scalar_full_state(xi, omega, N):
    """Reference: one full state from the scalar recurrence, or from the
    decaying envelopes below the band."""
    xi_abs, theta = abs(xi), cmath.phase(xi)
    x = (omega * omega - xi_abs * xi_abs - 1.0) / (2.0 * xi_abs)
    n = np.arange(1, N + 1)
    if x < -1.0 - 1e-12:
        pt = sq.zigzag_edge_branch(math.acosh(-x), N)
        alt = (-1.0) ** (n - 1)
        c_circ, c_bullet = alt * pt.psi_circ, alt * pt.psi_bullet
        t = 1.0 if omega >= 0.0 else -1.0
    else:
        un = u_all(N, min(1.0, max(-1.0, x)))
        c_circ = un[1:N + 1] + un[0:N] / xi_abs
        c_bullet = un[N + 1 - n] + un[N - n] / xi_abs
        t = xi_abs * c_circ[-1] / omega
    full = np.concatenate([np.exp(-1.0j * (n - 1) * theta) * c_circ,
                           np.exp(-1.0j * n * theta) * (t * c_bullet)])
    return full / np.linalg.norm(full)


@pytest.mark.parametrize("N", [1, 2, 6, 45])
def test_batched_full_states_equal_scalar_reference(N):
    for h, k in ((SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0), 0.7),
                 (SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0), 1.5),
                 (SquareHoppings(tu=0.3, td=0.2, tl=0.0, tr=1.1), 0.2)):
        xi, _ = sq.xi_of_k(h, k)
        omegas, v, u = sq.zigzag_roots(abs(xi), N)
        signed = np.concatenate([-omegas[::-1], omegas])
        v, u = (np.concatenate([c[::-1], c]) for c in (v, u))
        block = sq.zigzag_root_states(xi, signed, v, u, N)
        assert block.shape == (2 * N, 2 * N)
        for j, omega in enumerate(signed):
            # bulk states are formed at the angle, not from the table
            expected = _scalar_full_state(xi, omega, N)
            assert block[:, j].flags.c_contiguous
            np.testing.assert_allclose(block[:, j], expected, rtol=0,
                                       atol=1e-12)
            assert np.array_equal(
                sq.zigzag_root_states(xi, omega, v[j], u[j], N)[:, 0],
                block[:, j])


def test_sublattice_link_consistent_with_full_state():
    N = 5
    xi_abs, theta = 0.9, 0.3
    xi = xi_abs * cmath.exp(1.0j * theta)
    omega, v, u = (c[2] for c in sq.zigzag_roots(xi_abs, N))
    state = sq.zigzag_root_states(xi, omega, v, u, N)[:, 0]
    ratio = state[0] / state[2 * N - 1]  # psi_circ(1) over psi_bullet(N)
    # the link -e^{i N theta}/(omega U_N(x)) at the root's x
    x = (omega * omega - xi_abs * xi_abs - 1.0) / (2.0 * xi_abs)
    link = -cmath.exp(1.0j * N * theta) / (omega * u_eval(N, x))
    assert ratio == pytest.approx(link, rel=1e-9)


def test_sublattice_link_on_every_root():
    # psi_circ(1)/psi_bullet(N) = -e^{i N theta}/(omega U_N(x)) on each
    # signed root, the edge root (x = -cosh u) included
    N = 5
    xi_abs, theta = 0.6, -1.1
    xi = xi_abs * cmath.exp(1.0j * theta)
    omegas, v, u = sq.zigzag_roots(xi_abs, N)
    assert np.isnan(v).sum() == 1
    for sign in (1.0, -1.0):
        states = sq.zigzag_root_states(xi, sign * omegas, v, u, N)
        for j, omega in enumerate(sign * omegas):
            x = (omega * omega - xi_abs * xi_abs - 1.0) / (2.0 * xi_abs)
            link = -cmath.exp(1.0j * N * theta) / (omega * u_eval(N, x))
            assert states[0, j] / states[2 * N - 1, j] == pytest.approx(
                link, rel=1e-9), (sign, j)


# ----------------------------------------------------------------- regime --

@pytest.mark.parametrize("N", [5, 12, 40])
def test_oracle_state_follows_power_law_at_transition(N):
    # at the edge-bulk transition |xi| = N/(N+1) (td = 0) the paper's
    # damping turns into a power law: the oracle state of least |E| has
    # |circ| proportional to N - n + 1 and |bullet| to its mirror n
    h = SquareHoppings(tu=N / (N + 1.0), td=0.0, tl=0.0, tr=1.0)
    spec = eigensolve_dense(build_square_bloch(h, N, 0.3))
    state = np.abs(spec.vectors[:, np.argmin(np.abs(spec.energies))])
    circ, bullet = state[:N], state[N:]
    n = np.arange(1, N + 1)
    assert np.max(np.abs(circ / circ.max() - (N - n + 1.0) / N)) < 1e-12
    assert np.max(np.abs(bullet / bullet.max() - n / N)) < 1e-12


def test_regime_worked_examples():
    regime = sq.edge_regime(ISO, 5)
    assert regime.verdict is sq.RegimeVerdict.EDGE_BULK_TRANSITION
    assert regime.xi_cr == pytest.approx(5.0 / 6.0)
    assert regime.omega_cr == pytest.approx(1.0 / 6.0)
    assert regime.xi_min == pytest.approx(0.0)
    assert regime.xi_max == pytest.approx(2.0)
    never = sq.edge_regime(SquareHoppings(tu=2, td=0.1, tl=0, tr=1), 5)
    assert never.verdict is sq.RegimeVerdict.NEVER_EMERGE
    always = sq.edge_regime(SquareHoppings(tu=0.2, td=0.2, tl=0, tr=1), 5)
    assert always.verdict is sq.RegimeVerdict.ALWAYS_EDGE
    with pytest.raises(ValueError):
        sq.edge_regime(SquareHoppings(tu=1, td=1, tl=0, tr=0), 5)
    with pytest.raises(ValueError):
        sq.edge_regime(SquareHoppings(tu=1, td=1, tl=0.3, tr=1), 5)


def test_regime_agrees_with_oracle_scan(rng):
    # random hoppings: the per-momentum edge/no-edge call from the verdict
    # must match what the dense spectrum shows, away from the transition
    N = 5
    for _ in range(40):
        tu, td, tr = rng.uniform(0.05, 1.6, size=3)
        h = SquareHoppings(tu=tu, td=td, tl=0.0, tr=tr)
        regime = sq.edge_regime(h, N)
        for k in midpoint_grid(math.pi / 2, 17):
            xi_abs = abs(sq.xi_of_k(h, k)[0])
            if xi_abs < 1e-6 or abs(xi_abs - regime.xi_cr) < 1e-3:
                continue
            spec = eigensolve_dense(build_square_bloch(h, N, k))
            ratios = (((spec.energies / tr) ** 2 - xi_abs ** 2 - 1.0)
                      / (2.0 * xi_abs))
            assert bool(np.any(ratios < -1.0)) == (xi_abs < regime.xi_cr)


# ------------------------------------------------- extrema and band slope --

def test_ellipse_residual_axis_and_detachment_points():
    N = 5
    assert sq.extrema_ellipse_residual(1.0, 0.0, N) == pytest.approx(0.0)
    semi = math.sqrt(N / (N + 2.0))
    assert sq.extrema_ellipse_residual(0.0, semi, N) == pytest.approx(
        0.0, abs=1e-15)
    # the marginal branch point sits exactly on the locus
    assert sq.extrema_ellipse_residual(1.0 / 6.0, 5.0 / 6.0, N) == (
        pytest.approx(0.0, abs=1e-15))


# --------------------------------------------------- left-right isotropic --

def test_lr_examples_and_node_pattern():
    h = SquareHoppings(tu=0.6, td=0.4, tl=1.0, tr=1.0)
    plus, minus = sq.lr_isotropic_spectrum(h, 1, 0.0, 1)
    assert plus == pytest.approx(1.0)   # |tu + td| at N = 1, k = 0
    assert minus == pytest.approx(-1.0)
    # transverse index j = 2 of N = 3 has a node on the middle chain
    state = sq.lr_isotropic_state(h, 3, 0.5, 2)
    assert abs(state[1]) < 1e-15 and abs(state[4]) < 1e-15
    with pytest.raises(ValueError):
        sq.lr_isotropic_spectrum(h, 3, 0.0, 0)
    with pytest.raises(ValueError):
        sq.lr_isotropic_spectrum(h, 3, 0.0, 4)
    with pytest.raises(ValueError):
        sq.lr_isotropic_state(h, 3, 0.0, 1, sign=2)
    with pytest.raises(ValueError):
        sq.lr_isotropic_spectrum(
            SquareHoppings(tu=1, td=1, tl=0.5, tr=1), 3, 0.0, 1)


def test_xi_and_lr_spectrum_of_arrays_equal_scalar_calls_and_cmath():
    # xi_of_k and lr_isotropic_spectrum take arrays of momenta (and of
    # indices); each entry is bit for bit the scalar call, and that the
    # cmath / math closed form (Python's complex / float and abs)
    rng = np.random.default_rng(16)
    N = 6
    tu, td, tr = rng.uniform(0.1, 2.0, 3).tolist()
    for h in (SquareHoppings(tu=tu, td=td, tl=tr, tr=tr),
              SquareHoppings(tu=tu, td=tu, tl=tr, tr=tr)):
        for a in (0.5, 1.0, 3.0):
            ks = np.concatenate([rng.uniform(-4.0, 4.0, 30),
                                 [0.0, math.pi / (2 * a)]])
            xi, theta = sq.xi_of_k(h, ks, a)
            plus, minus = sq.lr_isotropic_spectrum(
                h, N, ks[:, None], np.arange(1, N + 1), a=a)
            for i, k in enumerate(ks.tolist()):
                x = (h.tu + h.td * cmath.exp(2.0j * k * a)) / h.tr
                assert sq.xi_of_k(h, k, a) == (x, cmath.phase(x))
                assert (xi[i], theta[i]) == (x, cmath.phase(x))
                for j in range(1, N + 1):
                    e = abs(2.0 * h.tr * math.cos(math.pi * j / (N + 1))
                            + h.tu * cmath.exp(-1.0j * k * a)
                            + h.td * cmath.exp(1.0j * k * a))
                    assert sq.lr_isotropic_spectrum(h, N, k, j, a) == (e, -e)
                    assert (plus[i, j - 1], minus[i, j - 1]) == (e, -e)
    with pytest.raises(ValueError, match="got 7"):
        sq.lr_isotropic_spectrum(h, N, ks, np.array([[1], [7]]))


def test_lr_matches_oracle(rng):
    tu, td, tr = rng.uniform(0.3, 1.4, size=3)
    h = SquareHoppings(tu=tu, td=td, tl=tr, tr=tr)
    N = 5
    for k in midpoint_grid(math.pi / 2, 32):
        pairs = [sq.lr_isotropic_spectrum(h, N, k, j)
                 for j in range(1, N + 1)]
        analytic = np.sort(np.ravel(pairs))
        spec = eigensolve_dense(build_square_bloch(h, N, k))
        assert np.max(np.abs(analytic - spec.energies)) < 1e-10
    k = 0.4
    spec = eigensolve_dense(build_square_bloch(h, N, k))
    for j in range(1, N + 1):
        for sign in (1, -1):
            energy = sq.lr_isotropic_spectrum(h, N, k, j)[0 if sign > 0
                                                          else 1]
            state = sq.lr_isotropic_state(h, N, k, j, sign=sign)
            assert subspace_overlap(spec, energy, state) > 1 - 1e-8


def _seed_lr_state(h, N, k, j, sign):
    """Reference: the per-state formula the batched states replace."""
    n = np.arange(1, N + 1)
    f = np.sin(math.pi * j * n / (N + 1))
    c = sq._lr_c(h, N, k, 1.0, j)
    if abs(c) == 0.0:
        a_circ = a_bullet = 1.0 / math.sqrt(2.0)
    else:
        a_bullet = 1.0 / math.sqrt(2.0)
        a_circ = sign * (c / abs(c)) / math.sqrt(2.0)
    gauge = np.exp(-1.0j * n * k)
    psi_circ = np.exp(0.5j * k) * gauge * a_circ * f
    psi_bullet = np.exp(-0.5j * k) * gauge * a_bullet * f
    full = np.concatenate([psi_circ, psi_bullet])
    return full / np.linalg.norm(full)


@pytest.mark.parametrize("N", [1, 3, 12, 60])
def test_root_states_of_many_momenta_equal_per_momentum_calls(N):
    # one call with one xi per root gives each momentum's columns of its
    # own call bit for bit, edge roots included
    h = SquareHoppings(tu=1.0, td=0.6, tr=1.0, tl=0.0)
    xi = sq.xi_of_k(h, midpoint_grid(math.pi / 2.0, 16))[0]
    (omega, v, u), failed = sq.zigzag_roots(np.abs(xi), N)
    assert not failed and np.isnan(v).any()
    omega, v, u = (np.concatenate([sign * c[:, ::-1], c], axis=1)
                   for c, sign in ((omega, -1.0), (v, 1.0), (u, 1.0)))
    many = sq.zigzag_root_states(np.repeat(xi, 2 * N), omega.ravel(),
                                 v.ravel(), u.ravel(), N)
    for m, x in enumerate(xi.tolist()):
        np.testing.assert_array_equal(
            many[:, m * 2 * N:(m + 1) * 2 * N],
            sq.zigzag_root_states(x, omega[m], v[m], u[m], N))


@pytest.mark.parametrize("N", [1, 2, 3, 8, 40])
def test_batched_lr_states_equal_single_states(N, rng):
    cases = [(SquareHoppings(tu=tu, td=td, tl=tr, tr=tr), k)
             for (tu, td, tr), k in zip(rng.uniform(0.1, 2.0, size=(4, 3)),
                                        rng.uniform(-1.6, 1.6, size=4))]
    # |c| ~ 1e-16 at k = 0, j = 2 of N = 2: a nearly cancelled amplitude
    cases.append((SquareHoppings(tu=0.5, td=0.5, tl=1.0, tr=1.0), 0.0))
    for h, k in cases:
        js = np.repeat(np.arange(1, N + 1), 2)
        signs = np.tile([1, -1], N)
        block = sq.lr_isotropic_state(h, N, k, js, sign=signs)
        assert block.shape == (2 * N, 2 * N)
        for col, (j, sign) in enumerate(zip(js.tolist(), signs.tolist())):
            single = sq.lr_isotropic_state(h, N, k, j, sign=sign)
            assert block[:, col].flags.c_contiguous
            assert np.array_equal(block[:, col], single)
            assert np.array_equal(single, _seed_lr_state(h, N, k, j, sign))
    # one state, and the order of the pairs, do not change the bits
    h, k = cases[0]
    single = sq.lr_isotropic_state(h, N, k, np.array([N]), sign=-1)
    assert np.array_equal(single[:, 0], _seed_lr_state(h, N, k, N, -1))
    # one momentum per pair: the states of many momenta in one call are
    # those of each momentum alone
    ks = [k for _, k in cases]
    for h, _ in cases:
        many = sq.lr_isotropic_state(h, N, np.repeat(ks, 2 * N),
                                     np.tile(js, len(ks)),
                                     sign=np.tile(signs, len(ks)))
        for m, k in enumerate(ks):
            np.testing.assert_array_equal(
                many[:, m * 2 * N:(m + 1) * 2 * N],
                sq.lr_isotropic_state(h, N, k, js, sign=signs))
    h, k = cases[0]
    with pytest.raises(ValueError):
        sq.lr_isotropic_state(h, N, k, np.array([1, N + 1]), sign=1)
    with pytest.raises(ValueError):
        sq.lr_isotropic_state(h, N, k, np.array([1, 1]),
                              sign=np.array([1, 0]))


# -------------------------------------------------------------- zero modes --

def test_zero_mode_momenta_small_ribbon():
    h = SquareHoppings(tu=0.5, td=0.5, tl=1.0, tr=1.0)
    momenta = sq.zero_mode_momenta(h, 2)
    assert (0.0, 1) in [(k, j) for k, j in momenta]
    for k, j in momenta:
        spec = eigensolve_dense(build_square_bloch(h, 2, k))
        assert np.min(np.abs(spec.energies)) < 1e-10
        state = sq.zero_mode_full_state(h, 2, k, j)
        assert subspace_overlap(spec, 0.0, state) > 1 - 1e-8


def test_zero_mode_momenta_empty_when_condition_never_holds():
    h = SquareHoppings(tu=3.0, td=0.1, tl=1.0, tr=1.0)
    assert sq.zero_mode_momenta(h, 5) == []


def test_zero_mode_momenta_balanced_family():
    h = SquareHoppings(tu=1.0, td=1.0, tl=1.0, tr=1.0)
    momenta = sq.zero_mode_momenta(h, 3)
    positive = [(k, j) for k, j in momenta if k > 0]
    assert len(positive) == 3  # one momentum per transverse index
    for k, j in positive:
        assert math.cos(k) == pytest.approx(math.cos(math.pi * j / 4),
                                            abs=1e-12)
        spec = eigensolve_dense(build_square_bloch(h, 3, k))
        assert np.min(np.abs(spec.energies)) < 1e-10


def test_zero_mode_profile_flat_when_isotropic():
    h = SquareHoppings(tu=1.0, td=1.0, tl=1.0, tr=1.0)
    k, j = sq.zero_mode_momenta(h, 3)[0][0], sq.zero_mode_momenta(h, 3)[0][1]
    zm = sq.zero_mode_state(h, 3, k, j)
    np.testing.assert_allclose(np.abs(zm.psi_bullet), np.abs(zm.psi_circ),
                               rtol=1e-12)


def test_zero_mode_envelope_and_null_vector():
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
    # the assembled vector annihilates the Bloch matrix
    full = sq.zero_mode_full_state(h, N, 0.0, j)
    H = build_square_bloch(h, N, 0.0)
    assert np.max(np.abs(H @ full)) < 1e-9


def test_zero_mode_solver_round_trip():
    assert sq.solve_zero_mode_sum(1.0, 1.0, 2, 1) == pytest.approx(1.0)
    total = sq.solve_zero_mode_sum(0.8, 1.1, 7, 3)
    h = SquareHoppings(tu=total / 2, td=total / 2, tl=1.1, tr=0.8)
    assert (0.0, 3) in sq.zero_mode_momenta(h, 7)


def test_zero_mode_error_paths():
    h = SquareHoppings(tu=0.5, td=0.5, tl=1.0, tr=1.0)
    with pytest.raises(ValueError):
        sq.zero_mode_state(h, 2, 0.3, 1)  # inadmissible momentum
    with pytest.raises(ValueError):
        sq.zero_mode_state(h, 2, 0.0, 3)  # index out of range
    with pytest.raises(ValueError):
        sq.zero_mode_momenta(SquareHoppings(tu=1, td=1, tl=0, tr=1), 2)
    with pytest.raises(ValueError):  # tr * tl underflows to 0
        sq.zero_mode_momenta(SquareHoppings(tu=1, td=1, tl=1e-170,
                                            tr=1e-170), 2)
    with pytest.raises(ValueError):
        sq.solve_zero_mode_sum(0.0, 1.0, 2, 1)
