import numpy as np
import pytest
from scipy.optimize import brentq

from chebribbon import _roots
from chebribbon import square_ribbon as sq
from chebribbon import triangle_ribbon as tri
from chebribbon._roots import brent_lockstep, secular_nodes
from chebribbon.hamiltonian import TriangleHoppings

TOL = {"xtol": 1e-15, "rtol": 8.9e-16}


def _sine_form(coeffs, N):
    """sin(phi) times the secular sum c_m U_{N-m}(cos phi), vectorized."""
    degs = [N - m for m in range(len(coeffs))]

    def g(phi):
        phi = np.asarray(phi, dtype=float)
        out = np.zeros_like(phi)
        for c, d in zip(coeffs, degs):
            out += c * np.sin((d + 1) * phi)
        return out

    return g, degs


def _evaluations(solve, g, a, b):
    """Every abscissa at which `solve` evaluates g on one bracket."""
    seen = []

    def logged(x):
        seen.extend(np.atleast_1d(x).tolist())
        return g(x)

    solve(logged, a, b)
    return seen


@pytest.mark.parametrize("N", [2, 3, 5, 13, 50, 200, 1000])
def test_brent_lockstep_matches_brentq_bit_for_bit(N):
    rng = np.random.default_rng(N)
    forms = []
    for _ in range(2):
        r = rng.uniform(-3.0, 3.0)
        forms += [(1.0, r), (1.0, 2.0 * r, r * r),
                  (rng.uniform(0.05, 2.0), 1.0)]
    checked = 0
    for coeffs in forms:
        g, degs = _sine_form(coeffs, N)
        nodes = secular_nodes(N, degs)
        vals = g(nodes)
        cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        a, b = nodes[cells], nodes[cells + 1]
        expected = [brentq(g, lo, hi, **TOL) for lo, hi in zip(a, b)]
        assert np.array_equal(brent_lockstep(g, a, b, **TOL), expected)
        checked += len(cells)
        # the same step rule: the same abscissae, one bracket at a time
        for lo, hi in list(zip(a, b))[:5]:
            assert _evaluations(
                lambda f, x0, x1: brent_lockstep(f, np.array([x0]),
                                                 np.array([x1]), **TOL),
                g, lo, hi) == _evaluations(
                lambda f, x0, x1: brentq(f, x0, x1, **TOL), g, lo, hi)
    assert checked >= N


def test_brent_lockstep_root_on_a_grid_node():
    # brentq returns an end point whose value is exactly zero untouched
    nodes = secular_nodes(13, (13, 12))
    root = nodes[40]
    f = lambda x: np.asarray(x) - root  # noqa: E731
    a = np.array([nodes[39], nodes[40], nodes[10], nodes[33]])
    b = np.array([nodes[40], nodes[41], nodes[60], nodes[90]])
    expected = [brentq(f, lo, hi, **TOL) for lo, hi in zip(a, b)]
    got = brent_lockstep(f, a, b, **TOL)
    assert np.array_equal(got, expected)
    assert got[0] == got[1] == root


def test_brent_lockstep_fails_where_brentq_fails():
    f = lambda x: np.asarray(x) ** 3 - 0.2  # noqa: E731
    with pytest.raises(ValueError):
        brentq(f, 0.7, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        brent_lockstep(f, np.array([0.0, 0.7]), np.array([1.0, 1.0]))
    nan_f = lambda x: np.where(np.asarray(x) > 0.5, np.nan, -1.0)  # noqa: E731
    with pytest.raises(ValueError):
        brentq(nan_f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brent_lockstep(nan_f, np.array([0.0]), np.array([1.0]))
    with pytest.raises(RuntimeError):
        brentq(f, 0.0, 1.0, maxiter=2)
    with pytest.raises(RuntimeError, match="converge"):
        brent_lockstep(f, np.array([0.0]), np.array([1.0]), maxiter=2)
    assert brent_lockstep(f, np.array([]), np.array([])).size == 0


@pytest.mark.parametrize("N", [3, 5, 13, 50])
def test_angular_scan_paths_agree(monkeypatch, N):
    h = TriangleHoppings(t1=0.9, t2=0.1, t3=1.0)
    ks = np.linspace(-3.0, 3.0, 7)

    def spectra():
        return ([tri.zz1_roots(h, N, k).energy.tolist() for k in ks],
                [tri.zz2_roots(h, N, k).energy.tolist() for k in ks],
                [sq.zigzag_spectrum(xi, N).tolist()
                 for xi in (0.2, 0.6, 0.97, 1.4)])

    monkeypatch.setattr(_roots, "LOCKSTEP_MIN_BRACKETS", 10 ** 9)
    scalar = spectra()
    monkeypatch.setattr(_roots, "LOCKSTEP_MIN_BRACKETS", 1)
    assert spectra() == scalar


def _uncached_nodes(N, degrees):
    parts = [np.linspace(0.0, np.pi, 8 * (N + 1) + 1)]
    for d in degrees:
        if d >= 1:
            parts.append(np.pi * np.arange(1, d + 1) / (d + 1))
    return np.unique(np.concatenate(parts))


@pytest.mark.parametrize("N, degrees", [(1, (1, 0)), (2, [2, 1, 0]),
                                        (13, (13, 12)), (200, (200, 199, 198))])
def test_secular_nodes_shared_and_read_only(N, degrees):
    nodes = secular_nodes(N, degrees)
    assert np.array_equal(nodes, _uncached_nodes(N, degrees))
    assert secular_nodes(N, tuple(degrees)) is nodes
    assert not nodes.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 1.0
