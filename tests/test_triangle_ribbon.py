"""Triangular-ribbon closed forms against hand values and the dense oracle."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from conftest import edge_envelope, midpoint_grid

from chebribbon import triangle_ribbon as tri
from chebribbon.chebpoly import u_all, zigzag_ends
from chebribbon.errors import DegenerateParameterError
from chebribbon.hamiltonian import (TriangleHoppings, build_triangle_bloch,
                                    eigensolve_dense, subspace_overlap)

WEAK = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)


def _oracle(h, N, k, ends):
    return eigensolve_dense(build_triangle_bloch(h, N, k, ends=ends))


# -------------------------------------------------------------- reduction --

def test_zeta_and_tau_examples():
    h = TriangleHoppings(t1=1.0, t2=1.0, t3=0.5)
    zeta, theta = tri.zeta_of_k(h, 0.0)
    assert zeta == pytest.approx(2.0)
    assert theta == pytest.approx(0.0)
    zeta, theta = tri.zeta_of_k(h, math.pi / 2)
    assert zeta == pytest.approx(1.0 - 1.0j)
    assert theta == pytest.approx(-math.pi / 4)
    assert tri.tau_of_k(h, 0.0) == pytest.approx(1.0)
    assert tri.tau_of_k(h, math.pi / 3, a=1.0) == pytest.approx(0.5)
    # equal legs cancel at the zone boundary; in floats a ~1e-16 residue
    # survives, and the root finder still lands on the limiting spectrum
    # {tau, tau, 0} instead of blowing up
    assert abs(tri.zeta_of_k(h, math.pi)[0]) < 1e-15
    limit = np.sort(tri.roots(h, 3, math.pi, 1).energy)
    np.testing.assert_allclose(limit, [-1.0, -1.0, 0.0], atol=1e-12)
    # the degenerate guard fires on an exact zero, e.g. absent legs
    with pytest.raises(DegenerateParameterError):
        tri.roots(TriangleHoppings(t1=0.0, t2=0.0, t3=0.5), 3, 0.3, 1)


def test_reductions_of_an_array_equal_scalar_calls_and_cmath():
    # zeta_of_k, tau_of_k, reduced and linear_energies take an array of
    # momenta; each entry is bit for bit the scalar call, and that the
    # cmath / math closed form (abs and phase of a Python complex)
    rng = np.random.default_rng(16)
    N = 7
    cosines = np.cos(np.pi * np.arange(1, N + 1) / (N + 1))
    for h in (TriangleHoppings(*rng.uniform(0.1, 2.0, 3).tolist()),
              TriangleHoppings(t1=0.6, t2=0.6, t3=0.4)):
        for a in (0.5, 1.0, 3.0):
            ks = np.concatenate([rng.uniform(-4.0, 4.0, 40),
                                 [0.0, -math.pi / a]])
            zeta, theta = tri.zeta_of_k(h, ks, a)
            tau = tri.tau_of_k(h, ks, a)
            zeta_abs, tau_r, theta_r, failed = tri.reduced(h, ks, a)
            energies = tri.linear_energies(h, N, ks, a)
            assert failed == {} and energies.shape == (len(ks), N)
            for i, k in enumerate(ks.tolist()):
                z = h.t1 + h.t2 * cmath.exp(-1.0j * k * a)
                t = 2.0 * h.t3 * math.cos(k * a)
                assert tri.zeta_of_k(h, k, a) == (z, cmath.phase(z))
                assert (zeta[i], theta[i]) == (z, cmath.phase(z))
                assert tri.tau_of_k(h, k, a) == tau[i] == tau_r[i] == t
                assert zeta_abs[i] == abs(z) and theta_r[i] == theta[i]
                expected = t + 2.0 * abs(z) * cosines
                assert np.array_equal(tri.linear_energies(h, N, k, a),
                                      expected)
                assert np.array_equal(energies[i], expected)
    # absent legs: |zeta| = 0 at every momentum, which `reduced` reports
    failed = tri.reduced(TriangleHoppings(0.0, 0.0, 1.0), ks)[3]
    assert sorted(failed) == list(range(len(ks)))
    assert str(failed[0]) == f"|zeta| = 0 at k = {ks[0]}"


# ----------------------------------------------------------- linear edge ---

def test_linear_spectrum_small_cases():
    h = TriangleHoppings(t1=1.0, t2=1.0, t3=1.0)
    energies = tri.linear_energies(h, 1, 0.0)
    np.testing.assert_allclose(energies, [2.0])  # tau alone at N = 1
    np.testing.assert_allclose(np.abs(tri.linear_states(h, 1, 0.0)), [[1.0]])
    energies = tri.linear_energies(h, 2, 0.0)
    np.testing.assert_allclose(np.sort(energies), [0.0, 4.0], atol=1e-12)


def test_linear_spectrum_matches_oracle(rng):
    t1, t2 = rng.uniform(0.2, 1.5, size=2)
    t3 = rng.uniform(0.3, 1.2)
    h = TriangleHoppings(t1=t1, t2=t2, t3=t3)
    N = 5
    for k in midpoint_grid(math.pi, 64):
        energies = tri.linear_energies(h, N, k)
        states = tri.linear_states(h, N, k)
        spec = _oracle(h, N, k, 0)
        np.testing.assert_allclose(np.sort(energies), spec.energies,
                                   atol=1e-10)
        H = build_triangle_bloch(h, N, k)
        resid = np.abs(H @ states - states * energies).max()
        assert resid < 1e-10 * max(1.0, np.abs(energies).max())


# ------------------------------------------------------- secular residuals --

def test_zz1_width_one_pins_zero_energy():
    h = TriangleHoppings(t1=0.7, t2=0.4, t3=0.9)
    for k in (0.0, 0.8, 2.5):
        assert abs(tri.roots(h, 1, k, 1).energy[0]) < 1e-12
        spec = _oracle(h, 1, k, 1)
        assert abs(spec.energies[0]) < 1e-14


def test_zz2_width_two_energies_are_plus_minus_zeta():
    h = TriangleHoppings(t1=1.3, t2=0.4, t3=0.8)
    k = 0.7
    za = abs(h.t1 + h.t2 * cmath.exp(-1.0j * k))
    np.testing.assert_allclose(tri.roots(h, 2, k, 2).energy, [-za, za],
                               atol=1e-12)
    spec = _oracle(h, 2, k, 2)
    np.testing.assert_allclose(spec.energies, [-za, za], atol=1e-12)


def test_zz1_residual_vanishes_on_oracle_energies():
    # U_N(y) + r U_{N-1}(y), y = (E - tau)/(2|zeta|), over the sum of the
    # magnitudes of its terms, at the oracle's energies
    N, k = 5, 0.0
    spec = _oracle(WEAK, N, k, 1)
    za, tau = abs(tri.zeta_of_k(WEAK, k)[0]), tri.tau_of_k(WEAK, k)
    r = tau / za
    for E in spec.energies:
        un = u_all(N, (E - tau) / (2.0 * za))
        terms = (un[N + 1], r * un[N])
        assert abs(sum(terms)) / max(1.0, sum(map(abs, terms))) < 1e-8


# ------------------------------------------------------------ bulk states ---

def test_zz1_state_phase_and_edge_modulus():
    N, k = 5, math.pi
    roots = tri.roots(WEAK, N, k, 1)
    assert len(roots.energy) == N
    _, theta = tri.zeta_of_k(WEAK, k)
    psi = tri.root_states(roots, N, 1)
    bulk = np.flatnonzero(~roots.edge)
    assert cmath.phase(psi[0, bulk[0]]) == pytest.approx(theta, abs=1e-12)
    edge = np.flatnonzero(roots.edge)
    assert len(edge) == 1 and roots.sign[edge[0]] == 1
    assert roots.u[edge[0]] == pytest.approx(0.9, abs=0.1)
    profile = edge_envelope(roots.u[edge[0]], N, 1)
    np.testing.assert_allclose(np.abs(psi[:, edge[0]]),
                               profile / np.linalg.norm(profile), rtol=1e-8)


def _scalar_root(roots, i, N, coeffs):
    """Reference: the scaled secular sum of root i of a RootTable, one sine
    or sinh at a time, and, for a bulk root, its normalized state
    e^{i n theta} [sin(n phi) + r sin((n-1) phi)]."""
    r = roots.tau[i] / roots.zeta_abs[i]
    if roots.edge[i]:
        u, sign = roots.u[i], roots.sign[i]
        terms = [sign ** m * c(r) * math.sinh((N + 1 - m) * u)
                 / math.sinh((N + 1) * u) for m, c in enumerate(coeffs)]
        return sum(terms) / sum(map(abs, terms)), None
    phi, theta = roots.phi[i], roots.theta[i]
    resid = sum(c(r) * math.sin((N + 1 - m) * phi)
                for m, c in enumerate(coeffs))
    psi = np.array([cmath.exp(1.0j * n * theta)
                    * (math.sin(n * phi) + r * math.sin((n - 1) * phi))
                    for n in range(1, N + 1)])
    return resid / sum(abs(c(r)) for c in coeffs), psi / np.linalg.norm(psi)


@pytest.mark.parametrize("N", [2, 7, 40])
def test_batched_states_and_residuals_equal_scalar_reference(N):
    cases = ((1, (lambda r: 1.0, lambda r: r)),
             (2, (lambda r: 1.0, lambda r: 2.0 * r, lambda r: r * r)))
    for ends, coeffs in cases:
        for k in (0.3, 2.0, math.pi):
            roots = tri.roots(WEAK, N, k, ends)
            block = tri.root_states(roots, N, ends)
            residuals = tri.root_residuals(roots, N, ends)
            assert block.shape == (N, N)
            for i in range(N):
                resid, psi = _scalar_root(roots, i, N, coeffs)
                assert block[:, i].flags.c_contiguous
                assert abs(residuals[i] - resid) < 1e-12
                if psi is None:
                    psi = tri.edge_state(roots.u[i], N, roots.sign[i], ends,
                                         roots.family[i], roots.theta[i])
                    psi = psi / np.linalg.norm(psi)
                    assert np.array_equal(block[:, i], psi)
                else:
                    np.testing.assert_allclose(block[:, i], psi, rtol=0,
                                               atol=1e-12)


def _secular_sum_at_40_digits(roots, N, ends):
    """sum_m c_m sin((N+1-m) phi) over sum_m |c_m| (bulk) or sum_m c_m
    sign^m sinh((N+1-m)u)/sinh((N+1)u) over the sum of the magnitudes of
    its terms (edge) of each row of a RootTable, at 40 digits."""
    out = []
    with mpmath.workdps(40):
        for phi, u, sign, tau, za in zip(
                roots.phi.tolist(), roots.u.tolist(), roots.sign.tolist(),
                roots.tau.tolist(), roots.zeta_abs.tolist()):
            r = mpmath.mpf(tau) / za
            c = [1, r] if ends == 1 else [1, 2 * r, r * r]
            if sign == 0:
                terms = [c_m * mpmath.sin((N + 1 - m) * mpmath.mpf(phi))
                         for m, c_m in enumerate(c)]
                scale = sum(abs(c_m) for c_m in c)
            else:
                terms = [c_m * sign ** m * mpmath.sinh((N + 1 - m) * u)
                         / mpmath.sinh((N + 1) * mpmath.mpf(u))
                         for m, c_m in enumerate(c)]
                scale = sum(abs(t) for t in terms)
            out.append(float(sum(terms) / scale))
    return np.array(out)


@pytest.mark.parametrize("N", [3, 8, 41])
@pytest.mark.parametrize("ends", [1, 2])
def test_root_residuals_are_the_scaled_chebyshev_sum(N, ends):
    # the Chebyshev secular sum itself, not the phase equation the roots
    # solve: equal at the roots, and equal off them.  At t3 = 40 a scale
    # of the sum of its terms' magnitudes would read up to |r| times more,
    # and at r = -1 (k = pi) and 1 (k = 0) with t = (1, 0, 1/2) one of
    # |1 + r e^{-i phi}|^ends, which vanishes at a root on phi = 0 or pi
    for h, ks in ((WEAK, [0.3, 2.0, 3.0]),
                  (TriangleHoppings(1.0, 1.0, 1.0), [0.3, 2.0, 3.0]),
                  (TriangleHoppings(0.3, 0.2, 40.0), [0.3, 2.0, 3.0]),
                  (TriangleHoppings(1.0, 0.0, 0.5), [0.0, math.pi])):
        roots, failed = tri.roots(h, N, np.array(ks), ends)
        assert failed == {}
        # n phi rounds to eps (N + 1) pi, and an edge term's (N + 1)u to
        # eps (N + 1) u
        rounding = 64.0 * (N + 1) * np.finfo(float).eps
        got = tri.root_residuals(roots, N, ends)
        assert np.allclose(got, _secular_sum_at_40_digits(roots, N, ends),
                           rtol=0.0, atol=rounding)
        moved = roots._replace(phi=roots.phi * (1.0 - 1e-3),
                               u=roots.u * (1.0 + 1e-3))
        got = tri.root_residuals(moved, N, ends)
        expected = _secular_sum_at_40_digits(moved, N, ends)
        assert np.median(np.abs(expected)) > 1e-6
        assert np.allclose(got, expected, rtol=1e-12, atol=rounding)


def test_roots_match_oracle_across_widths(rng):
    for ends in (1, 2):
        for N in (2, 3, 5, 13):
            t1, t2 = rng.uniform(0.2, 1.5, size=2)
            t3 = rng.uniform(0.3, 1.2)
            h = TriangleHoppings(t1=t1, t2=t2, t3=t3)
            for idx, k in enumerate(midpoint_grid(math.pi, 64)):
                roots = tri.roots(h, N, k, ends)
                assert len(roots.energy) == N
                energies = roots.energy
                spec = _oracle(h, N, k, ends)
                dev = np.abs(energies - spec.energies)
                assert dev.max() < 1e-8 * max(1.0, np.abs(energies).max())
                if idx % 8:
                    continue
                psi = tri.root_states(roots, N, ends)
                assert np.all(subspace_overlap(spec, energies, psi)
                              > 1 - 1e-8)


def test_root_tables_carry_the_reduced_parameters():
    h = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    for ends in (1, 2):
        for k in (-2.9, -0.4, 0.0, 1.3):
            roots = tri.roots(h, 7, k, ends, a=1.5)
            zeta, theta = tri.zeta_of_k(h, k, 1.5)
            assert np.all(roots.tau == tri.tau_of_k(h, k, 1.5))
            assert np.all(roots.zeta_abs == abs(zeta))
            assert np.all(roots.theta == theta)


# ----------------------------------------------------------- edge branches --

def _points(table):
    """The points of an EdgeBranch table, each an EdgeBranch of scalars."""
    return [table._make(point) for point in zip(*table)]


def test_zz1_edge_solutions_worked_case():
    N = 5
    u_grid = np.logspace(-2, 0.4, 12)
    for sign in (1, -1):
        sols = tri.edge_solutions(WEAK, N, sign, 1, u_grid=u_grid)
        assert len(sols.u)
        for sol in _points(sols):
            ratio = math.sinh((N + 1) * sol.u) / math.sinh(N * sol.u)
            assert sol.tau / sol.zeta_abs == pytest.approx(-sign * ratio,
                                                           abs=1e-9)
            assert sol.energy == pytest.approx(
                sol.tau + sign * 2.0 * sol.zeta_abs * math.cosh(sol.u),
                rel=1e-12)
            gap = sol.energy - (sol.tau + sign * 2.0 * sol.zeta_abs)
            assert sign * gap > 0.0  # detached outward from the band
            H = build_triangle_bloch(WEAK, N, sol.k, ends=1)
            psi = tri.edge_state(sol.u, N, sign, 1, theta=sol.theta)
            resid = np.abs(H @ psi - sol.energy * psi).max()
            assert resid < 1e-8 * max(1.0, abs(sol.energy))
            spec = _oracle(WEAK, N, sol.k, 1)
            y = (spec.energies - sol.tau) / (2.0 * sol.zeta_abs)
            outside = np.abs(y) > 1.0 + 1e-6
            assert int(np.sum(outside & (y > 0))) == (1 if sign > 0 else 0)
            assert int(np.sum(outside & (y < 0))) == (0 if sign > 0 else 1)


@pytest.mark.parametrize("ends", [1, 2])
def test_root_states_of_many_momenta_equal_per_momentum_calls(ends):
    # one call over the RootTable of 16 momenta gives each momentum's
    # columns of its own table bit for bit, edge roots of both families
    # included; so does linear_states over an array of momenta
    ks = midpoint_grid(math.pi, 16)
    families = set()
    for N in (2, 3, 13, 40):
        roots, failed = tri.roots(WEAK, N, ks, ends)
        assert not failed
        families |= set(roots.family.tolist())
        many = tri.root_states(roots, N, ends)
        for m in range(len(ks)):
            rows = slice(m * N, (m + 1) * N)
            np.testing.assert_array_equal(
                many[:, rows],
                tri.root_states(tri.RootTable(*(c[rows] for c in roots)), N,
                                ends))
        linear = tri.linear_states(WEAK, N, ks)
        for m, k in enumerate(ks.tolist()):
            np.testing.assert_array_equal(linear[m],
                                          tri.linear_states(WEAK, N, k))
    assert families == ({"", "A"} if ends == 1 else {"", "A", "B"})


def _scalar_edge_points(h, N, sign, ends, family, u_grid, a=1.0):
    """Reference: the admissible points of a branch table resolved one u
    point at a time, in math's scalar functions, as (u, cos_ka, k, energy,
    zeta_abs, tau, theta) tuples."""
    fam = {f.name: f for f in zigzag_ends(ends, N)[1]}[family]
    threshold = (abs(h.t1 - h.t2) if sign > 0 else h.t1 + h.t2) / (2.0 * h.t3)
    if threshold >= fam.bound:
        return []
    t1, t2, t3 = h.t1, h.t2, h.t3
    s, p, d2 = t1 * t1 + t2 * t2, t1 * t2, (t1 - t2) ** 2
    out = []
    for u in np.asarray(u_grid, dtype=float):
        half = fam.half(u)
        if half <= threshold:
            continue
        ft = 4.0 * half * half * t3 * t3
        disc = math.sqrt(p * p + ft * s)
        if sign > 0:
            c = -s / (p + disc)
            one_plus_c = s * (ft - d2) / ((disc + s - p) * (p + disc))
        else:
            c = (p + disc) / ft
            one_plus_c = 1.0 + c
        if abs(c) > 1.0 or one_plus_c < 0.0:
            continue
        k = 2.0 * math.atan2(math.sqrt(1.0 - c), math.sqrt(one_plus_c)) / a
        zeta = h.t1 + h.t2 * cmath.exp(-1.0j * k * a)
        zeta_abs = math.sqrt(d2 + 2.0 * p * one_plus_c)
        tau = 2.0 * t3 * c
        energy = tau + sign * 2.0 * zeta_abs * math.cosh(u)
        out.append((float(u), c, k, energy, zeta_abs, tau,
                    cmath.phase(zeta)))
    return out


def test_edge_tables_equal_scalar_reference(rng):
    # every column of a table over the whole u grid equals the point by
    # point scalar resolution bit for bit, on random hoppings, sides,
    # families, widths and lattice constants
    grid = np.concatenate([tri.default_u_grid(),
                           10.0 ** rng.uniform(-6.0, 2.5, 200)])
    compared = 0
    for _ in range(60):
        h = TriangleHoppings(*(10.0 ** rng.uniform(-1.0, 1.0, 3)))
        ends = int(rng.integers(1, 3))
        N = int(rng.integers(2, 40))
        sign = int(rng.choice([1, -1]))
        family = str(rng.choice(["A", "B"])) if ends == 2 else "A"
        a = float(rng.choice([1.0, 0.5, 3.0]))
        u_grid = grid if rng.random() < 0.5 else None
        table = tri.edge_solutions(h, N, sign, ends, family, u_grid=u_grid,
                                   a=a)
        points = _scalar_edge_points(
            h, N, sign, ends, family,
            tri.default_u_grid() if u_grid is None else u_grid, a)
        expected = (np.array(points).T if points
                    else np.empty((len(table), 0)))
        for column, values in zip(table, expected):
            np.testing.assert_array_equal(column, values)
        compared += len(points)
    assert compared > 1000


def test_zz1_edge_solutions_empty_cases():
    assert not len(tri.edge_solutions(WEAK, 5, 1, 1, u_grid=[5.0]).u)
    strong = TriangleHoppings(t1=3.0, t2=0.1, t3=1.0)
    for sign in (1, -1):
        assert not len(tri.edge_solutions(strong, 5, sign, 1).u)


def test_zz2_edge_solutions_all_branches():
    N = 5
    u_grid = np.logspace(-2, 0.4, 12)
    for sign in (1, -1):
        for family in ("A", "B"):
            sols = tri.edge_solutions(WEAK, N, sign, 2, family,
                                      u_grid=u_grid)
            assert len(sols.u)
            for sol in _points(sols)[:4]:
                if family == "A":
                    ratio = (math.cosh((N + 1) * sol.u / 2.0)
                             / math.cosh((N - 1) * sol.u / 2.0))
                else:
                    ratio = (math.sinh((N + 1) * sol.u / 2.0)
                             / math.sinh((N - 1) * sol.u / 2.0))
                assert sol.tau / sol.zeta_abs == pytest.approx(
                    -sign * ratio, abs=1e-9)
                _, theta = tri.zeta_of_k(WEAK, sol.k)
                psi = tri.edge_state(sol.u, N, sign, 2, family, theta)
                H = build_triangle_bloch(WEAK, N, sol.k, ends=2)
                resid = np.abs(H @ psi - sol.energy * psi).max()
                assert resid < 1e-8 * max(1.0, abs(sol.energy))


def test_zz2_edge_solutions_respect_family_bounds():
    strong = TriangleHoppings(t1=1.5, t2=0.1, t3=1.0)
    for sign in (1, -1):
        assert not len(tri.edge_solutions(strong, 5, sign, 2, "B").u)
        assert len(tri.edge_solutions(strong, 5, sign, 2, "A").u)
        assert len(tri.edge_solutions(WEAK, 5, sign, 2, "B").u)


# -------------------------------------------------------------- envelopes ---

def test_zz1_edge_profile_shape():
    prof = edge_envelope(0.7, 6, 1)
    assert prof[0] == pytest.approx(1.0)
    assert np.all(np.diff(prof) < 0.0)
    n = 4
    assert prof[n - 1] == pytest.approx(
        math.sinh((6 - n + 1) * 0.7) / math.sinh(6 * 0.7), rel=1e-12)
    with pytest.raises(ValueError):
        tri.edge_state(0.0, 6, 1, 1)
    with pytest.raises(ValueError):
        tri.edge_state(np.array([0.7, -1.0]), 6, 1, 1)


def test_zz2_edge_profiles_symmetry():
    N = 9
    for u in (0.2, 0.8, 2.0):
        even = edge_envelope(u, N, 2, "A")
        odd = edge_envelope(u, N, 2, "B")
        assert even[0] == pytest.approx(1.0)
        assert even[-1] == pytest.approx(1.0)
        assert odd[0] == pytest.approx(1.0)
        assert odd[-1] == pytest.approx(-1.0)
        np.testing.assert_allclose(even, even[::-1], atol=1e-12)
        np.testing.assert_allclose(odd, -odd[::-1], atol=1e-12)
    assert edge_envelope(0.5, 9, 2, "B")[4] == 0.0  # central chain node


def test_zz2_gauge_conventions_are_mirror_images():
    # edge_state is in the Bloch-matrix gauge e^{+in theta}, which the
    # dense oracle's eigenvectors use; at -theta it is the printed e^{-in
    # theta} form
    u, N, sign, family, theta = 0.6, 7, -1, "B", 0.83
    n = np.arange(1, N + 1)
    np.testing.assert_allclose(
        tri.edge_state(u, N, sign, 2, family, theta),
        float(sign) ** (n - 1) * np.exp(1.0j * n * theta)
        * edge_envelope(u, N, 2, family), atol=1e-15)
    np.testing.assert_allclose(
        tri.edge_state(u, N, sign, 2, family, -theta),
        np.conj(tri.edge_state(u, N, sign, 2, family, theta)), atol=1e-15)


# -------------------------------------------------------------- existence ---

def test_existence_reports_worked_examples():
    report = tri.edge_existence(WEAK, 5, 1)
    assert report["plus"]["threshold"] == pytest.approx(0.4)
    assert report["minus"]["threshold"] == pytest.approx(0.5)
    assert report["plus"]["bound"] == pytest.approx(5.0 / 6.0)
    assert report["plus"]["exists"] and report["minus"]["exists"]

    strong = TriangleHoppings(t1=1.5, t2=0.1, t3=1.0)
    report = tri.edge_existence(strong, 5, 2)
    assert report["A"]["plus"]["threshold"] == pytest.approx(0.7)
    assert report["A"]["minus"]["threshold"] == pytest.approx(0.8)
    assert report["A"]["plus"]["exists"] and report["A"]["minus"]["exists"]
    assert report["B"]["plus"]["bound"] == pytest.approx(2.0 / 3.0)
    assert not report["B"]["plus"]["exists"]
    assert not report["B"]["minus"]["exists"]
    weak_report = tri.edge_existence(WEAK, 5, 2)
    assert all(weak_report[f][s]["exists"]
               for f in ("A", "B") for s in ("plus", "minus"))



@pytest.mark.parametrize("N", [5, 13, 100])
def test_oracle_state_follows_power_law_at_detachment(N):
    # at each edge family's threshold r = tau/|zeta| the edge state detaches
    # at the band edge y = -1 and its damping turns into a power law: the
    # oracle state there has |psi_n| proportional to N - n + 1 (one-sided),
    # flat (two-sided A) or |n - (N+1)/2| (two-sided B)
    k, n = 0.4, np.arange(1, N + 1)
    zeta_abs = abs(tri.zeta_of_k(TriangleHoppings(1.0, 0.5, 0.0), k)[0])
    for ends, r, profile in [
            (1, (N + 1) / N, N - n + 1.0),
            (2, 1.0, np.ones(N)),
            (2, (N + 1) / (N - 1),
             np.abs(n - (N + 1) / 2))]:
        h = TriangleHoppings(1.0, 0.5, r * zeta_abs / (2.0 * math.cos(k)))
        spec = _oracle(h, N, k, ends)
        y = (spec.energies - tri.tau_of_k(h, k)) / (2.0 * zeta_abs)
        at = np.argmin(np.abs(y + 1.0))
        assert abs(y[at] + 1.0) < 1e-12
        state = np.abs(spec.vectors[:, at])
        assert np.max(np.abs(state / state.max()
                             - profile / profile.max())) < 1e-12

# ------------------------------------------------------------ error paths ---

def test_error_paths():
    with pytest.raises(ValueError):
        tri.roots(WEAK, 1, 0.3, 2)
    for ends in (0, 3):
        with pytest.raises(ValueError, match="ends must be 1 or 2"):
            tri.roots(WEAK, 5, 0.3, ends)
    with pytest.raises(ValueError):
        tri.edge_solutions(WEAK, 5, 0, 1)
    with pytest.raises(ValueError):
        tri.edge_solutions(WEAK, 5, 1, 2, "C")
    with pytest.raises(ValueError):
        tri.edge_state(0.5, 1, 1, 2, "A")
    with pytest.raises(ValueError):
        tri.edge_solutions(TriangleHoppings(t1=1, t2=1, t3=0), 5, 1, 1)
