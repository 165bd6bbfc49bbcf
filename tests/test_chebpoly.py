"""Chebyshev evaluator: recurrence vs closed forms, log domain, determinants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebribbon import chebpoly as cp
from chebribbon.errors import SingularArgumentError


def _laplace_det(matrix):
    """Recursive cofactor expansion along the first row (skips zeros)."""
    n = matrix.shape[0]
    if n == 1:
        return float(matrix[0, 0])
    total = 0.0
    for col in range(n):
        entry = matrix[0, col]
        if entry == 0.0:
            continue
        minor = np.delete(np.delete(matrix, 0, axis=0), col, axis=1)
        total += (-1.0) ** col * float(entry) * _laplace_det(minor)
    return total


def _corner_matrix(n, w, w_tilde, xi_abs):
    """Tridiagonal: diagonal w/xi (first entry w_tilde/xi), unit couplings."""
    matrix = np.zeros((n, n))
    np.fill_diagonal(matrix, w / xi_abs)
    matrix[0, 0] = w_tilde / xi_abs
    for i in range(n - 1):
        matrix[i, i + 1] = 1.0
        matrix[i + 1, i] = 1.0
    return matrix


# ------------------------------------------------------------- recurrence --

def test_low_degrees_by_hand():
    assert cp.u_eval(-1, 0.3) == 0.0
    assert cp.u_eval(0, 0.3) == 1.0
    assert cp.u_eval(1, 0.7) == pytest.approx(1.4)      # 2x
    assert cp.u_eval(2, 0.5) == pytest.approx(0.0)      # 4x^2 - 1
    assert cp.u_eval(3, 0.5) == pytest.approx(-1.0)     # 8x^3 - 4x
    assert cp.u_eval(4, 1.0) == pytest.approx(5.0)      # n + 1 at x = 1


def test_u_all_prefix_matches_single_evaluations():
    x = 0.37
    table = cp.u_all(6, x)
    expected = [cp.u_eval(m, x) for m in range(-1, 7)]
    np.testing.assert_allclose(table, expected, rtol=1e-14)
    # an array argument runs the recurrence once for all columns, each
    # equal bit for bit to the scalar table
    xs = np.concatenate([[x, -1.0, 1.0, 0.0],
                         np.random.default_rng(3).uniform(-1.3, 1.3, 40)])
    for n_max in (-1, 0, 1, 6, 300):
        block = cp.u_all(n_max, xs)
        assert block.shape == (n_max + 2, xs.size)
        for j, xj in enumerate(xs):
            assert np.array_equal(block[:, j], cp.u_all(n_max, float(xj)))


def test_u_pair_degree_minus_one():
    a, b, log_scale = cp.u_pair(-1, 0.9)
    assert a == -1.0 and b == 0.0 and log_scale == 0.0


def test_array_arguments_broadcast():
    x = np.linspace(-0.9, 0.9, 7)
    vals = cp.u_eval(3, x)
    assert vals.shape == x.shape
    np.testing.assert_allclose(vals, 8 * x**3 - 4 * x, atol=1e-13)


# ------------------------------------------------------------ closed forms --

def test_trig_closed_form_examples():
    assert cp.u_trig(1, math.pi / 3) == pytest.approx(1.0)    # 2 cos(pi/3)
    assert cp.u_trig(2, math.pi / 2) == pytest.approx(-1.0)   # sin(3pi/2)


def test_trig_matches_recurrence_on_band():
    for n in (1, 3, 10, 37, 101, 200):
        for v in np.linspace(0.1, math.pi - 0.1, 9):
            closed = cp.u_trig(n, v)
            rec = cp.u_eval(n, math.cos(v))
            assert abs(closed - rec) < 1e-10 * max(1.0, abs(closed))


def test_hyp_closed_form_examples():
    assert math.exp(cp.u_hyp_log(0, 0.9)) == pytest.approx(1.0)
    assert math.exp(cp.u_hyp_log(1, 0.4)) == pytest.approx(
        2.0 * math.cosh(0.4))


def test_hyp_matches_recurrence_off_band():
    for n in (1, 5, 20, 80, 200):
        for u in (0.01, 0.1, 0.5, 1.0, 2.0):
            if (n + 1) * u > 600.0:
                continue  # compared in the log domain below
            closed = math.exp(cp.u_hyp_log(n, u))
            rec = cp.u_eval(n, math.cosh(u))
            assert abs(closed - rec) < 1e-10 * abs(closed)


def test_log_domain_agrees_past_float_overflow():
    for n, u in ((200, 2.0), (4000, 0.5), (10000, 3.0)):
        log_closed = cp.u_hyp_log(n, u)
        log_rec, sign = cp.u_log(n, math.cosh(u))
        assert sign == 1.0
        assert abs(log_closed - log_rec) < 1e-12 * abs(log_closed)
    # the plain evaluator saturates instead of wrapping around
    assert np.isposinf(cp.u_eval(10000, 10.0))


def test_ratio_of_consecutive_degrees():
    # U_{n-1}/U_n from the shared-scale pair
    x = 1.3
    a, b, _ = cp.u_pair(7, x)
    assert a / b == pytest.approx(cp.u_eval(6, x) / cp.u_eval(7, x),
                                  rel=1e-13)
    # deep in the growing regime the ratio approaches e^{-u}
    u = 0.7
    a, b, _ = cp.u_pair(600, math.cosh(u))
    assert a / b == pytest.approx(math.exp(-u), rel=1e-8)


def test_reflection_parity():
    x = np.linspace(0.1, 2.3, 5)
    for n in (2, 5, 9):
        np.testing.assert_allclose(cp.u_eval(n, -x),
                                   (-1.0) ** n * cp.u_eval(n, x),
                                   rtol=1e-14)


# ------------------------------------------------------------------- zeros --

def test_zero_locations():
    np.testing.assert_allclose(cp.u_zeros(1), [0.0], atol=1e-16)
    np.testing.assert_allclose(cp.u_zeros(2), [0.5, -0.5], atol=1e-15)
    for n in (3, 17, 50):
        zeros = cp.u_zeros(n)
        assert zeros.size == n
        assert np.all(np.diff(zeros) < 0)  # descending
        assert np.max(np.abs(cp.u_eval(n, zeros))) < 5e-11


# ----------------------------------------------------------- log helpers ---

def test_logsinh_logcosh_against_math():
    for y in (1e-3, 0.5, 5.0, 100.0):
        assert cp.logsinh(y) == pytest.approx(math.log(math.sinh(y)),
                                              rel=1e-12)
        assert cp.logcosh(y) == pytest.approx(math.log(math.cosh(y)),
                                              rel=1e-12)
    # far tail avoids overflow; sinh and cosh both collapse to e^y / 2
    assert cp.logsinh(1000.0) == pytest.approx(1000.0 - math.log(2.0),
                                               rel=1e-14)
    assert cp.logcosh(1000.0) == pytest.approx(1000.0 - math.log(2.0),
                                               rel=1e-14)
    assert cp.logcosh(-3.0) == pytest.approx(math.log(math.cosh(3.0)))
    assert cp.logcosh(0.0) == 0.0


def _bits(value):
    return np.float64(value).view(np.int64)


def test_logsinh_logcosh_float_path_equals_array_path():
    # a float skips the array wrapping; every value must keep its bits
    rng = np.random.default_rng(7)
    ys = np.concatenate([
        rng.uniform(0.0, 700.0, 8000),
        np.exp(rng.uniform(math.log(5e-324), math.log(700.0), 3000)),
        [350.0, np.nextafter(350.0, 0.0), np.nextafter(350.0, 1e3), 700.0,
         5e-324, 1e-300, 1.0, np.inf]])
    ys = ys[ys > 0.0]
    for fn in (cp.logsinh, cp.logcosh):
        negative = (-ys[:200]).tolist() if fn is cp.logcosh else []
        for y in ys.tolist() + negative:
            got = fn(y)
            assert type(got) is float
            assert _bits(got) == _bits(fn(np.array([y]))[0])
            assert _bits(fn(np.float64(y))) == _bits(got)
        assert math.isnan(fn(math.nan))
        assert math.isnan(fn(np.array([math.nan]))[0])
    for y in (0.0, -0.0, -1.0, -np.inf):
        with pytest.raises(ValueError, match="logsinh needs y > 0"):
            cp.logsinh(y)
        with pytest.raises(ValueError, match="logsinh needs y > 0"):
            cp.logsinh(np.array([y]))


# ------------------------------------------------------------ determinant --

def test_det_corner_small_sizes_by_hand():
    # 1x1: just the perturbed entry
    assert cp.det_perturbed_corner(1, 1.3, 2.1, 0.8) == pytest.approx(
        2.1 / 0.8)
    # 2x2: product of diagonals minus the unit off-diagonal pair
    assert cp.det_perturbed_corner(2, 1.3, 2.1, 0.8) == pytest.approx(
        (2.1 / 0.8) * (1.3 / 0.8) - 1.0)


def test_det_corner_matches_cofactor_expansion():
    for n in (1, 2, 3, 5, 8):
        reference = _laplace_det(_corner_matrix(n, 1.3, 2.3, 0.8))
        closed = cp.det_perturbed_corner(n, 1.3, 2.3, 0.8)
        assert abs(closed - reference) < 1e-12 * max(1.0, abs(reference))


def test_det_corner_unperturbed_reduces_to_polynomial():
    w, xi_abs = 0.9, 0.7
    for n in range(1, 13):
        closed = cp.det_perturbed_corner(n, w, w, xi_abs)
        poly = cp.u_eval(n, w / (2.0 * xi_abs))
        assert closed == pytest.approx(poly, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------- properties --

@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=60),
       x=st.floats(min_value=-3.0, max_value=3.0))
def test_three_term_recurrence_identity(n, x):
    lhs = cp.u_eval(n + 1, x)
    rhs = 2.0 * x * cp.u_eval(n, x) - cp.u_eval(n - 1, x)
    scale = max(1.0, abs(lhs), abs(2.0 * x * cp.u_eval(n, x)))
    assert abs(lhs - rhs) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=60),
       x=st.floats(min_value=0.0, max_value=3.0))
def test_reflection_property(n, x):
    left = cp.u_eval(n, -x)
    right = (-1.0) ** n * cp.u_eval(n, x)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


# -------------------------------------------------------------- envelopes --

def _one_decay_envelope(ends, N, even, u):
    """Reference: the envelope of one decay, a Python float, in the scalar
    forms with math.expm1 denominators."""
    n = np.arange(1, N + 1)
    if ends == 1:
        return (np.exp(-(n - 1) * u) * np.expm1(-2.0 * (N - n + 1) * u)
                / math.expm1(-2.0 * N * u))
    m, half = n - (N + 1) / 2.0, (N - 1) / 2.0
    if even:
        return cp._cosh_quotient(np.abs(m), half, u)
    return -np.sign(m) * (np.exp((np.abs(m) - half) * u)
                          * np.expm1(-2.0 * np.abs(m) * u)
                          / math.expm1(-2.0 * half * u))


@pytest.mark.parametrize("ends, N", [
    (1, 1), (1, 2), (1, 3), (1, 13), (1, 200),
    (2, 2), (2, 3), (2, 13), (2, 200)])  # no two-sided ribbon of width 1
def test_envelope_rows_equal_one_decay_envelopes(rng, ends, N):
    # an array of decays gives one row per decay, each that of its decay
    # alone bit for bit, from 1e-300 to 700, densest where np.expm1 and
    # math.expm1 round apart
    u = np.concatenate([[1e-300, 5e-324 * 2 ** 60, 1.0, 700.0],
                        10.0 ** rng.uniform(-300.0, math.log10(700.0), 200),
                        rng.uniform(1e-3, 5.0, 200)])
    for fam in cp.zigzag_ends(ends, N)[1]:
        rows = fam.envelope(u)
        assert rows.shape == (len(u), N)
        np.testing.assert_array_equal(
            rows, np.stack([fam.envelope(x) for x in u.tolist()]))
        np.testing.assert_array_equal(rows, np.stack([
            _one_decay_envelope(ends, N, fam.even, x) for x in u.tolist()]))
        assert fam.envelope(u[:0]).shape == (0, N)


# ------------------------------------------------------------ error paths --

def test_error_paths():
    with pytest.raises(SingularArgumentError):
        cp.u_trig(5, math.pi)
    with pytest.raises(SingularArgumentError):
        cp.u_trig(3, 0.0)
    with pytest.raises(ValueError):
        cp.u_hyp_log(3, 0.0)
    with pytest.raises(ValueError):
        cp.u_hyp_log(3, -1.0)
    with pytest.raises(ValueError):
        cp.u_pair(-2, 0.5)
    with pytest.raises(ValueError):
        cp.u_all(-2, 0.5)
    with pytest.raises(ValueError):
        cp.u_zeros(0)
    with pytest.raises(ValueError):
        cp.logsinh(0.0)
    with pytest.raises(ValueError):
        cp.logsinh(-1.0)
    with pytest.raises(ValueError):
        cp.det_perturbed_corner(0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cp.det_perturbed_corner(3, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        cp.det_perturbed_corner(3, 1.0, 1.0, -0.5)
