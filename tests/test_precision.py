"""Closed-form IPRs against 40-digit sums (mpmath), within 1e-13 relative.

A zigzag bulk row's transverse profile is sin(n phi) + r sin((n-1) phi),
n = 1..N, at the root's angle phi; an edge row's is its decaying envelope.
The references sum those profiles at 40 digits, at the same double phi, r
and u that the program holds, so they measure the arithmetic of the IPRs
and nothing else.  Widths N = 5, 200 and 1000; angles near 0, pi and pi/2,
where the Dirichlet kernels of the closed form have their poles; the band
edges phi in {0, pi} and the edge-bulk transition; deep and shallow edge
states.  The family A envelope of the two-sided ribbon against its
40-digit cosh quotient.  The square-lr and triangle-linear energies
against their 40-digit closed forms, rows near |c| = 0 included.  The
square-zigzag decays against their 40-digit roots, near the edge-bulk
transition too.  Last, the edge energies of the strong-anisotropy regime,
against the eigenvalues of the Bloch matrix at 60 and 450 digits.
"""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from conftest import edge_envelope

from chebribbon import square_ribbon as sq
from chebribbon import triangle_ribbon as tri
from chebribbon.chebpoly import u_profile_ipr, zigzag_ends
from chebribbon.classify import ipr
from chebribbon.cli import run
from chebribbon.hamiltonian import (SquareHoppings, TriangleHoppings,
                                    build_triangle_bloch)

WIDTHS = (5, 200, 1000)
TOL = 1e-13


def _sums_ipr(values):
    return float(mpmath.fsum(v ** 4 for v in values)
                 / mpmath.fsum(v * v for v in values) ** 2)


@functools.lru_cache(maxsize=None)
def _sines(phi, N):
    """sin(n phi), n = 0..N, at 40 digits: Im z^n with z = e^{i phi}."""
    with mpmath.workdps(40):
        z, power, out = mpmath.expj(mpmath.mpf(phi)), mpmath.mpc(1), []
        for _ in range(N + 1):
            out.append(power.imag)
            power *= z
        return out


def _profile_ipr(phi, r, N):
    """The 40-digit IPR of sin(n phi) + r sin((n-1) phi), n = 1..N, or of
    its limit (1 +- r) n -+ r (over sin phi) at phi = 0 and phi = pi."""
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        if phi in (0.0, math.pi):
            s = 1 if phi == 0.0 else -1
            return _sums_ipr([(1 + s * r) * n - s * r
                              for n in range(1, N + 1)])
        sines = _sines(phi, N)
        return _sums_ipr([sines[n] + r * sines[n - 1]
                          for n in range(1, N + 1)])


def _envelope_ipr(u, N, ends, family):
    """The 40-digit IPR of an edge envelope (the EdgeFamily envelope of
    one or two truncated end rows), from its sinh and cosh form."""
    with mpmath.workdps(40):
        u = mpmath.mpf(u)
        if ends == 1:
            values = [mpmath.sinh((N - n + 1) * u) for n in range(1, N + 1)]
        else:
            shape = mpmath.cosh if family == "A" else mpmath.sinh
            values = [shape((n - mpmath.mpf(N + 1) / 2) * u)
                      for n in range(1, N + 1)]
        return _sums_ipr(values)


def _assert_close(found, expected, context):
    found, expected = np.asarray(found), np.asarray(expected)
    err = np.abs(found - expected) / expected
    assert np.all(err <= TOL), (context, float(err.max()))


_NEAR_ZERO = (1e-9, 1e-6, 1e-4, 3e-3, 9.9e-3)
_NEAR_HALF = (1e-12, 1e-8, 1e-5, 5e-4, 9.9e-4)
_RATIOS = (0.0, 1e-3, 0.5, 1.0, 3.0, 237.0, 1e4)


@pytest.mark.parametrize("N", WIDTHS)
def test_bulk_iprs_near_the_poles_of_the_kernels(N):
    phis = [*_NEAR_ZERO, *(math.pi - d for d in _NEAR_ZERO),
            *(math.pi / 2 + s * d for d in _NEAR_HALF for s in (-1, 1))]
    cases = [(phi, s * r) for phi in phis for r in _RATIOS for s in (-1, 1)]
    phi, r = np.array(cases).T
    _assert_close(u_profile_ipr(phi, r, N),
                  [_profile_ipr(p, q, N) for p, q in cases], N)


@pytest.mark.parametrize("N", WIDTHS)
def test_bulk_iprs_at_the_band_edges_and_the_transition(N):
    # the boundary roots phi in {0, pi} have power-law profiles, and near
    # |r| = 1 or an edge threshold (N+1)/N, (N+1)/(N-1) with N phi << 1 the
    # profile is nearly that power law
    thresholds = (1.0, (N + 1) / N, (N + 1) / (N - 1))
    ratios = [s * t * (1.0 + d) for t in thresholds for s in (-1, 1)
              for d in (0.0, -1e-12, 1e-9, -1e-6, 1e-2)]
    phis = [0.0, math.pi, *(c / N for c in (1e-8, 1e-4, 1e-2)),
            *(math.pi - c / N for c in (1e-8, 1e-2))]
    cases = [(p, r) for p in phis for r in ratios + [0.0, 1e4, -1e4]]
    phi, r = np.array(cases).T
    _assert_close(u_profile_ipr(phi, r, N),
                  [_profile_ipr(p, q, N) for p, q in cases], N)


@pytest.mark.parametrize("N", WIDTHS)
def test_edge_envelope_iprs(N):
    for u in (1e-150, 1e-50, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 10.0):
        _assert_close(ipr(edge_envelope(u, N, 1)),
                      _envelope_ipr(u, N, 1, "A"), (u, 1))
        _assert_close(ipr(sq.zigzag_edge_branch(u, N).psi_circ),
                      _envelope_ipr(u, N, 1, "A"), (u, "square"))
        for family in ("A", "B"):
            _assert_close(ipr(edge_envelope(u, N, 2, family)),
                          _envelope_ipr(u, N, 2, family), (u, family))


def _band_iprs(capsys, argv, column=5):
    """The ipr column (or another) of a `bands` command, one row of it per
    momentum."""
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    ks = sorted({float(line.split(",")[0]) for line in lines})
    return {k: np.array([float(line.split(",")[column]) for line in lines
                         if float(line.split(",")[0]) == k]) for k in ks}


@pytest.mark.parametrize("N", WIDTHS)
def test_linear_iprs_are_exact(capsys, N):
    # sin(pi j n/(N+1)) has IPR 3/(2(N+1)), and 2/(N+1) at 2j = N+1; the
    # square-lr states carry it on both blocks, which halves it
    for model, hop, half in (
            ("triangle-linear", ["--t1", "1.2", "--t2", "0.7"], 1.0),
            ("square-lr", ["--tu", "0.9", "--td", "0.4", "--tr", "0.7"],
             0.5)):
        for part in _band_iprs(capsys, ["bands", "--model", model, "--N",
                                        str(N), *hop, "--k-points",
                                        "3"]).values():
            middle = np.isclose(part, half * 2.0 / (N + 1), rtol=1e-9)
            assert middle.sum() == (N % 2) * (2 if half < 1.0 else 1)
            _assert_close(part, np.where(middle, half * 2.0, half * 1.5)
                          / (N + 1), model)


# the worst |E - E_40| of the square-lr and triangle-linear energies over
# the sum of the magnitudes of their terms, in eps: 1.54 eps over the cases
# of the test below (triangle-linear, t1 = t2, N = 1000), also when each
# momentum was solved alone
_LINEAR_ENERGY_BOUND = 1.6


def _linear_levels(model, hop, N, k):
    """The 40-digit energies of `model`'s rows at momentum k (a = 1),
    ascending, and the sum of the magnitudes of their terms: +-|c| with c
    = 2 tr cos(pi j/(N+1)) + tu e^{-ik} + td e^{ik} on square-lr, tau +
    2|zeta| cos(pi j/(N+1)) with tau = 2 t3 cos k, zeta = t1 + t2 e^{-ik}
    on triangle-linear."""
    with mpmath.workdps(40):
        x = mpmath.mpf(k)
        t = {name: mpmath.mpf(value) for name, value in hop.items()}
        cosines = [mpmath.cos(mpmath.pi * j / (N + 1))
                   for j in range(1, N + 1)]
        if model == "square-lr":
            c = [abs(2 * t["tr"] * cj + t["tu"] * mpmath.expj(-x)
                     + t["td"] * mpmath.expj(x)) for cj in cosines]
            return sorted(c + [-v for v in c]), 2 * t["tr"] + t["tu"] + t["td"]
        zeta = abs(t["t1"] + t["t2"] * mpmath.expj(-x))
        return (sorted(2 * t["t3"] * mpmath.cos(x) + 2 * zeta * cj
                       for cj in cosines),
                2 * t["t3"] + 2 * (t["t1"] + t["t2"]))


@pytest.mark.parametrize("N", WIDTHS)
def test_linear_band_energies_against_40_digits(capsys, N):
    # every square-lr and triangle-linear energy within
    # _LINEAR_ENERGY_BOUND eps of the scale of its terms; with tu = td = 2
    # tr cos(pi/(N+1)), c vanishes to rounding at j = N and k = +-pi/3, a
    # row of the three-point grid, where no relative bound holds
    eps = np.finfo(float).eps
    zero = 2.0 * 0.7 * math.cos(math.pi / (N + 1))
    for model, hop in (
            ("square-lr", {"tu": 0.9, "td": 0.4, "tr": 0.7}),
            ("square-lr", {"tu": zero, "td": zero, "tr": 0.7}),
            ("triangle-linear", {"t1": 1.2, "t2": 0.7, "t3": 0.9}),
            ("triangle-linear", {"t1": 0.8, "t2": 0.8, "t3": 0.3})):
        flags = [f for name, value in hop.items()
                 for f in (f"--{name}", repr(value))]
        if model == "square-lr":
            flags += ["--tl", repr(hop["tr"])]
        energies = _band_iprs(capsys, ["bands", "--model", model, "--N",
                                       str(N), *flags, "--k-points", "3"], 2)
        nearest = math.inf
        for k, found in energies.items():
            expected, scale = _linear_levels(model, hop, N, k)
            with mpmath.workdps(40):
                err = max(abs(mpmath.mpf(f) - e)
                          for f, e in zip(found.tolist(), expected))
                nearest = min(nearest, min(abs(e) for e in expected))
                assert err <= _LINEAR_ENERGY_BOUND * eps * scale, (
                    model, hop, k, float(err / scale) / eps)
        if hop["tu" if model == "square-lr" else "t1"] == zero:
            assert nearest < 1e-15


@pytest.mark.parametrize("N", WIDTHS)
def test_zigzag_band_iprs(capsys, N):
    # rows nearest the band edges, nearest phi = pi/2, and the edge rows of
    # every zigzag model, against sums at the roots' own angles and decays
    triangle = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    square = SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0)
    for model, ends in (("triangle-zigzag1", 1), ("triangle-zigzag2", 2),
                        ("square-zigzag", 1)):
        hop = (["--tu", "1", "--td", "0.6", "--tr", "1"]
               if model == "square-zigzag" else
               ["--t1", "0.9", "--t2", "0.1", "--t3", "1"])
        parts = _band_iprs(capsys, ["bands", "--model", model, "--N", str(N),
                                    *hop, "--k-points", "3"])
        for k, part in parts.items():
            if model == "square-zigzag":
                xi = abs(sq.xi_of_k(square, k)[0])
                omega, phi, u = sq.zigzag_roots(xi, N)
                # rows: -omega and omega ascending, as bands orders them
                order = np.argsort(np.concatenate([-omega, omega]),
                                   kind="stable")
                phi, u = np.tile(phi, 2)[order], np.tile(u, 2)[order]
                r = np.full(2 * N, 1.0 / xi)
                # the mirrored bullet block halves the circ block's IPR
                found = 2.0 * part
                family = np.full(2 * N, "A")
            else:
                roots = tri.roots(triangle, N, k, ends)
                phi, u, family = roots.phi, roots.u, roots.family
                r = roots.tau / roots.zeta_abs
                found = part
            bulk = np.flatnonzero(~np.isnan(phi))
            edge = np.flatnonzero(np.isnan(phi))
            near = bulk[np.argsort(np.minimum(phi[bulk], np.pi - phi[bulk]))]
            half = bulk[np.argsort(np.abs(phi[bulk] - np.pi / 2))]
            picked = np.unique(np.concatenate([near[:6], half[:3]]))
            _assert_close(found[picked], [_profile_ipr(phi[i], r[i], N)
                                          for i in picked], (model, k))
            _assert_close(found[edge], [
                _envelope_ipr(u[i], N, ends, family[i]) for i in edge],
                (model, k, "edge"))


# the worst |u - u*| of the square-zigzag decays in units of kappa (see the
# test below): 1.38 over its cases, against 75 for u = acosh(-x) of the x
# formed back from the energy, (omega^2 - |xi|^2 - 1)/(2|xi|)
_DECAY_BOUND = 4.0


@pytest.mark.parametrize("N", (2, 5, 13, 40, 200, 1000))
def test_square_zigzag_decays_against_40_digits(capsys, N):
    # the u column of every edge row against the 40-digit root u* of
    # ratio(u) = sinh((N+1)u)/sinh(Nu) = rho, rho = 1/|xi| with xi = 1 +
    # td e^{2ik} at the printed k.  Near the edge-bulk transition ratio'
    # falls to 0 and the decay is ill-conditioned, so the bound is in units
    # of kappa = eps rho/|ratio'(u*)| + eps u*, how far one rounding of rho
    # moves the root, where a relative bound would pass or fail any code
    eps = np.finfo(float).eps
    checked = 0
    for td, k_points in itertools.product(("0.05", "0.3", "0.6", "0.9"),
                                          ("16", "17")):
        assert run(["bands", "--model", "square-zigzag", "--N", str(N),
                    "--tu", "1", "--td", td, "--tr", "1", "--k-points",
                    k_points]) == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]]
        # the two edge rows of a momentum, +-omega, share their decay
        for k, u in {(r[0], r[4]) for r in rows if r[4]}:
            with mpmath.workdps(40):
                rho = 1 / abs(1 + mpmath.mpf(float(td))
                              * mpmath.expj(2 * mpmath.mpf(float(k))))

                def ratio(x):
                    return mpmath.sinh((N + 1) * x) / mpmath.sinh(N * x)

                # ratio rises from (N+1)/N at 0, and ratio(u) >= e^u
                root = mpmath.findroot(lambda x: ratio(x) - rho,
                                       (mpmath.mpf(10) ** -30,
                                        mpmath.log(rho)), solver="anderson")
                slope = ((N + 1) * mpmath.cosh((N + 1) * root)
                         * mpmath.sinh(N * root)
                         - N * mpmath.sinh((N + 1) * root)
                         * mpmath.cosh(N * root)) / mpmath.sinh(N * root) ** 2
                kappa = eps * (rho / abs(slope) + root)
                err = abs(mpmath.mpf(float(u)) - root) / kappa
            assert err <= _DECAY_BOUND, (td, k_points, k, float(err))
            checked += 1
    assert checked


@pytest.mark.parametrize("N", (1, 2, 3, 5, 200))
def test_edge_levels_do_not_cancel(N):
    # EdgeFamily.level(u) = 2 cosh u - ratio(u) within 1e-14 relative, also
    # at large u, where the two terms agree to every digit of a double, and
    # on the flat levels 0 (one-sided N = 1, family B at N = 3) as +0.0
    mp = mpmath
    for ends in (1, 2) if N > 1 else (1,):
        for fam in zigzag_ends(ends, N)[1]:
            for u in (1e-150, 1e-3, 0.5, 5.0, 40.0, 400.0):
                with mpmath.workdps(400):
                    x = mp.mpf(u)
                    if ends == 1:
                        ratio = mp.sinh((N + 1) * x) / mp.sinh(N * x)
                    elif fam.name == "A":
                        ratio = (mp.cosh((N + 1) * x / 2)
                                 / mp.cosh((N - 1) * x / 2))
                    else:
                        ratio = (mp.sinh((N + 1) * x / 2)
                                 / mp.sinh((N - 1) * x / 2))
                    expected = float(2 * mp.cosh(x) - ratio)
                found = fam.level(u)
                assert abs(found - expected) <= 1e-14 * abs(expected), (
                    ends, fam.name, u)
                if expected == 0.0:
                    assert math.copysign(1.0, found) == 1.0


@pytest.mark.parametrize("N", (1, 2, 3, 5, 30, 200, 1000))
def test_sinh_branch_ratios_keep_full_precision(N):
    # half(u) = f(au)/f(bu) of every family within 4 eps relative of the
    # 40-digit quotient: f = sinh on the one-sided family (a = N, b = N + 1)
    # and two-sided B (a, b = (N -+ 1)/2), f = cosh on two-sided A; half is
    # the printed xi of `edges --model square-zigzag`.  A log-domain
    # quotient loses eps |log f(bu)| (2.6e3 eps at N = 1000, u = 5.5; 4.1e3
    # eps on family A at u = 9.4)
    eps = np.finfo(float).eps
    families = [(N, N + 1, zigzag_ends(1, N)[1][0], mpmath.sinh)]
    if N > 1:
        even, odd = zigzag_ends(2, N)[1]
        families += [((N - 1) / 2, (N + 1) / 2, odd, mpmath.sinh),
                     ((N - 1) / 2, (N + 1) / 2, even, mpmath.cosh)]
    for a, b, fam, f in families:
        for u in (1e-150, 1e-50, 1e-12, 1e-6, 1e-3, 0.037, 0.5, 1.0, 4.58,
                  5.1, 5.541020330009481, 7.443803013251681, 9.4, 40.0,
                  400.0):
            with mpmath.workdps(40):
                x = mpmath.mpf(u)
                half = f(a * x) / f(b * x)
            err = abs((mpmath.mpf(float(fam.half(u))) - half) / half)
            assert err <= 4 * eps, (fam.name, u, float(err) / eps)


@pytest.mark.parametrize("N", (3, 40, 200, 1000))
def test_family_a_envelope_keeps_full_precision(N):
    # the two-sided even envelope cosh(m u)/cosh((N - 1)u/2), m = n - (N +
    # 1)/2, within (|x|/2 + 2) eps relative of the 40-digit quotient, x =
    # (|m| - (N - 1)/2) u: what is left is the rounding of x itself.  A
    # log-domain difference is off by 22.9 eps at N = 40, u = 2 and 1,520
    # eps at N = 1000, u = 4.58.  Values below the float range are skipped
    eps = np.finfo(float).eps
    m = np.arange(1, N + 1) - (N + 1) / 2.0
    envelope = zigzag_ends(2, N)[1][0].envelope
    for u in (1e-3, 0.37, 2.0, 4.58, 9.4, 10.0):
        found = envelope(u)
        bound = (np.abs((np.abs(m) - (N - 1) / 2.0) * u) / 2.0 + 2.0) * eps
        with mpmath.workdps(40):
            x = mpmath.mpf(u)
            for n, (mn, value) in enumerate(zip(m.tolist(), found.tolist())):
                expected = (mpmath.cosh(mn * x)
                            / mpmath.cosh(mpmath.mpf(N - 1) / 2 * x))
                if expected < np.finfo(float).tiny:
                    continue
                err = abs((mpmath.mpf(value) - expected) / expected)
                assert err <= bound[n], (u, n + 1, float(err) / eps)


@pytest.mark.parametrize("model, ends", [
    ("triangle-zigzag1", 1),
    ("triangle-zigzag2", 2)])
@pytest.mark.parametrize("t3, k_points, digits", [
    ("1e12", "8", 60), ("1e200", "3", 450)])
def test_edge_energies_when_tau_dwarfs_zeta(capsys, model, ends, t3,
                                            k_points, digits):
    # an edge energy of about |zeta|^2/tau, far below tau: formed as
    # tau +- 2|zeta| cosh u it would cancel (0.026 for -2.1e-12 at t3 =
    # 1e12); every energy within 1e-12 relative of the Bloch matrix's, whose
    # smallest eigenvalue at t3 = 1e200 needs some 400 digits to resolve
    assert run(["bands", "--model", model, "--N", "5", "--t3", t3,
                "--k-points", k_points]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    for start in range(0, len(lines), 5):
        rows = [line.split(",") for line in lines[start:start + 5]]
        bloch = build_triangle_bloch(TriangleHoppings(1.0, 1.0, float(t3)),
                                     5, float(rows[0][0]), ends=ends)
        with mpmath.workdps(digits):
            expected = sorted(float(e) for e in mpmath.eighe(
                mpmath.matrix(bloch.tolist()), eigvals_only=True))
        np.testing.assert_allclose([float(r[2]) for r in rows], expected,
                                   rtol=1e-12, atol=0)
