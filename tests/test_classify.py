"""State classification: closed-form rules, profile fits, and cross-checks."""

import math

import numpy as np
import pytest

from conftest import edge_envelope, midpoint_grid

from chebribbon import square_ribbon as sq
from chebribbon import triangle_ribbon as tri
from chebribbon.classify import (StateClass, StateLabel,
                                 classify_analytic_square,
                                 classify_analytic_triangle, classify_numeric,
                                 ipr, model_edge_sides)
from chebribbon.hamiltonian import (ModelKind, SquareHoppings,
                                    TriangleHoppings, build_square_bloch,
                                    build_triangle_bloch, eigensolve_dense)


# ---------------------------------------------------------------- helpers --

def test_ipr_reference_values():
    assert ipr(np.full(10, 0.3)) == pytest.approx(0.1)
    one_hot = np.zeros(7)
    one_hot[3] = 2.0
    assert ipr(one_hot) == pytest.approx(1.0)
    assert ipr(np.array([1.0, 1.0j])) == pytest.approx(0.5)  # scale-free
    with pytest.raises(ValueError):
        ipr(np.zeros(5))


def test_state_class_invariant():
    StateClass(StateLabel.BULK, 0.2)
    StateClass(StateLabel.EDGE_LEFT, 0.5, u_estimate=1.0)
    with pytest.raises(ValueError):
        StateClass(StateLabel.BULK, 0.2, u_estimate=1.0)
    with pytest.raises(ValueError):
        StateClass(StateLabel.EDGE_LEFT, 0.5)


def test_model_edge_sides_mapping():
    assert model_edge_sides(ModelKind.SQUARE_ZIGZAG) is StateLabel.EDGE_BOTH
    assert model_edge_sides(ModelKind.TRIANGLE_ZIGZAG1) is StateLabel.EDGE_LEFT
    assert model_edge_sides(ModelKind.TRIANGLE_ZIGZAG2) is StateLabel.EDGE_BOTH
    assert model_edge_sides(ModelKind.SQUARE_LR) is None
    assert model_edge_sides(ModelKind.SQUARE_GENERAL) is None
    assert model_edge_sides(ModelKind.TRIANGLE_LINEAR) is None


# ---------------------------------------------------------- analytic rules --

def test_analytic_square_rules():
    # reduced variable (omega^2 - xi^2 - 1)/(2 xi) against the band window
    assert classify_analytic_square(1.0 / 6.0, 5.0 / 6.0,
                                    5) is StateLabel.TRANSITION
    assert classify_analytic_square(1.0, 1.0, 5) is StateLabel.BULK
    assert classify_analytic_square(math.sqrt(0.54), 0.2,
                                    5) is StateLabel.EDGE_BOTH
    assert classify_analytic_square(-1.0, 1.0, 5) is StateLabel.BULK
    with pytest.raises(ValueError):
        classify_analytic_square(3.0, 0.5, 5)  # above the band window
    with pytest.raises(ValueError):
        classify_analytic_square(0.5, 0.0, 5)


def test_analytic_triangle_rules():
    assert classify_analytic_triangle(0.5, 0.5, 1.0, 5) is StateLabel.BULK
    assert classify_analytic_triangle(3.0, 0.5, 1.0,
                                      5) is StateLabel.EDGE_BOTH
    assert classify_analytic_triangle(
        3.0, 0.5, 1.0, 5, sides=StateLabel.EDGE_LEFT) is StateLabel.EDGE_LEFT
    assert classify_analytic_triangle(2.5, 0.5, 1.0,
                                      5) is StateLabel.TRANSITION
    assert classify_analytic_triangle(-1.5, 0.5, 1.0,
                                      5) is StateLabel.TRANSITION
    with pytest.raises(ValueError):
        classify_analytic_triangle(0.5, 0.5, 0.0, 5)
    with pytest.raises(ValueError):
        classify_analytic_triangle(0.5, 0.5, 1.0, 5, sides=StateLabel.BULK)


def _reference_square(omega, xi_abs):
    # the per-energy rule that the array labels replace
    ratio = (omega * omega - xi_abs * xi_abs - 1.0) / (2.0 * xi_abs)
    if abs(ratio + 1.0) < 1e-9:
        return StateLabel.TRANSITION
    if ratio < -1.0:
        return StateLabel.EDGE_BOTH
    return StateLabel.BULK


def _reference_triangle(E, tau, zeta_abs, sides):
    ratio = (E - tau) / (2.0 * zeta_abs)
    if min(abs(ratio - 1.0), abs(ratio + 1.0)) < 1e-9:
        return StateLabel.TRANSITION
    if abs(ratio) < 1.0:
        return StateLabel.BULK
    return sides


# reduced energies at and around the band edges and the transition
# tolerance, inside the band, beyond it, and NaN
_RATIOS = [-3.0, -1.0 - 2e-9, -1.0 - 1e-9, -1.0 - 9e-10, -1.0, -1.0 + 9e-10,
           -1.0 + 1.1e-9, -0.5, 0.0, 0.7, 1.0 - 2e-9, 1.0 - 9e-10, 1.0,
           1.0 + 9e-10, 1.0 + 1.1e-9, 2.0, float("nan")]


def test_array_labels_equal_per_entry_rules(rng):
    xi = rng.uniform(0.05, 3.0, size=len(_RATIOS))
    ratio = np.array(_RATIOS)
    square = ratio <= 1.0 + 1e-9
    omega = np.sqrt(np.abs(2.0 * xi * ratio + xi * xi + 1.0))
    omega = np.concatenate([omega[square], rng.uniform(0.0, 1.0, 50)])
    xi = np.concatenate([xi[square], rng.uniform(1.0, 2.0, 50)])
    labels = classify_analytic_square(omega, xi, 5)
    assert labels.tolist() == [_reference_square(o, x).value
                               for o, x in zip(omega.tolist(), xi.tolist())]
    assert len(set(labels.tolist())) == 3
    for o, x in zip(omega.tolist(), xi.tolist()):
        assert classify_analytic_square(o, x, 5) is _reference_square(o, x)
    with pytest.raises(ValueError):
        classify_analytic_square(np.append(omega, 3.0), np.append(xi, 0.5),
                                 5)
    with pytest.raises(ValueError):
        classify_analytic_square(omega, np.where(xi > 1.5, 0.0, xi), 5)

    tau = rng.uniform(-2.0, 2.0, size=len(_RATIOS) + 40)
    za = rng.uniform(0.05, 3.0, size=len(tau))
    energy = tau + 2.0 * za * np.concatenate([ratio,
                                              rng.uniform(-2, 2, 40)])
    for sides in (StateLabel.EDGE_LEFT, StateLabel.EDGE_BOTH):
        labels = classify_analytic_triangle(energy, tau, za, 5, sides=sides)
        expected = [_reference_triangle(e, t, z, sides)
                    for e, t, z in zip(energy.tolist(), tau.tolist(),
                                       za.tolist())]
        assert labels.tolist() == [label.value for label in expected]
        assert len(set(expected)) == 3
        # one momentum's energies against a scalar tau and |zeta|
        assert classify_analytic_triangle(
            energy, tau[0], za[0], 5, sides=sides).tolist() == [
            _reference_triangle(e, tau[0], za[0], sides).value
            for e in energy.tolist()]
    with pytest.raises(ValueError):
        classify_analytic_triangle(energy, tau, np.where(za > 1.0, 0.0, za),
                                   5)
    with pytest.raises(ValueError):
        classify_analytic_triangle(energy, tau, za, 5, sides=StateLabel.BULK)


# ------------------------------------------------------------ profile fits --

def test_numeric_left_localized_profile():
    n = np.arange(1, 31)
    psi = np.sinh((31 - n) * 1.0) / math.sinh(30.0)
    result = classify_numeric(psi)
    assert result.label is StateLabel.EDGE_LEFT
    assert result.u_estimate == pytest.approx(1.0, rel=0.02)
    flipped = classify_numeric(psi[::-1])
    assert flipped.label is StateLabel.EDGE_RIGHT
    assert flipped.u_estimate == pytest.approx(1.0, rel=0.02)


def test_numeric_standing_wave_is_bulk():
    n = np.arange(1, 31)
    result = classify_numeric(np.sin(np.pi * n / 31))
    assert result.label is StateLabel.BULK
    assert result.u_estimate is None
    assert result.ipr < 0.1


def test_numeric_two_sided_profile():
    psi = edge_envelope(0.8, 30, 2, "A")
    result = classify_numeric(psi)
    assert result.label is StateLabel.EDGE_BOTH
    assert result.u_estimate == pytest.approx(0.8, rel=0.02)


def test_numeric_recovers_decay_rate():
    for u in (0.1, 0.5, 1.0, 2.0, 3.0):
        psi = edge_envelope(u, 30, 1)
        result = classify_numeric(psi, threshold_ipr=0.0)
        assert result.label.is_edge
        assert result.u_estimate == pytest.approx(u, rel=0.02)


def test_numeric_window_validation():
    with pytest.raises(ValueError):
        classify_numeric(np.ones(3))   # shorter than two default windows
    with pytest.raises(ValueError):
        classify_numeric(np.ones(10), fit_window=6)


# ----------------------------------------- analytic vs numeric agreement ---

def _agreement(total, matched):
    return matched / total if total else 1.0


def test_agreement_square_zigzag():
    h = SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0)
    N = 13
    total = matched = 0
    for k in midpoint_grid(math.pi / 2, 33):
        xi_abs = abs(sq.xi_of_k(h, k)[0])
        omegas = sq.zigzag_roots(xi_abs, N)[0]
        signed = np.concatenate([-omegas[::-1], omegas])
        spec = eigensolve_dense(build_square_bloch(h, N, k))
        for omega, vec in zip(signed, spec.vectors.T):
            ratio = (omega * omega - xi_abs * xi_abs - 1.0) / (2.0 * xi_abs)
            if abs(ratio + 1.0) < 0.1:
                continue
            analytic = classify_analytic_square(omega, xi_abs, N).is_edge
            numeric = classify_numeric(vec).label.is_edge
            total += 1
            matched += int(analytic == numeric)
    assert _agreement(total, matched) >= 0.99


def test_agreement_triangle_one_sided():
    h = TriangleHoppings(t1=0.4, t2=0.1, t3=1.0)
    N = 13
    total = matched = 0
    for k in midpoint_grid(math.pi, 33):
        zeta, _ = tri.zeta_of_k(h, k)
        tau = tri.tau_of_k(h, k)
        spec = eigensolve_dense(build_triangle_bloch(h, N, k, ends=1))
        for energy, vec in zip(spec.energies, spec.vectors.T):
            y = (energy - tau) / (2.0 * abs(zeta))
            if min(abs(y - 1.0), abs(y + 1.0)) < 0.1:
                continue
            analytic = classify_analytic_triangle(
                energy, tau, abs(zeta), N, sides=StateLabel.EDGE_LEFT).is_edge
            numeric = classify_numeric(vec).label.is_edge
            total += 1
            matched += int(analytic == numeric)
    assert _agreement(total, matched) >= 0.99


def test_agreement_triangle_two_sided():
    h = TriangleHoppings(t1=0.3, t2=0.2, t3=1.0)
    N = 13
    total = matched = 0
    for k in midpoint_grid(math.pi, 33):
        zeta, _ = tri.zeta_of_k(h, k)
        tau = tri.tau_of_k(h, k)
        spec = eigensolve_dense(build_triangle_bloch(h, N, k, ends=2))
        for energy, vec in zip(spec.energies, spec.vectors.T):
            y = (energy - tau) / (2.0 * abs(zeta))
            if min(abs(y - 1.0), abs(y + 1.0)) < 0.1:
                continue
            analytic = classify_analytic_triangle(energy, tau, abs(zeta),
                                                  N).is_edge
            numeric = classify_numeric(vec).label.is_edge
            total += 1
            matched += int(analytic == numeric)
    # the two-sided fits occasionally reject a genuinely localized doublet
    # partner, so the bar sits slightly below the one-sided cases
    assert _agreement(total, matched) >= 0.98


# ------------------------------------------------- batched classification --
#
# classify_numeric and ipr take one state per column.  The references below
# are the per-state formulas they replace, kept verbatim: every label, IPR
# and decay estimate of a batch must equal theirs exactly.

def _reference_ipr(psi):
    p2 = np.abs(np.asarray(psi)) ** 2
    total = p2.sum()
    if total == 0.0:
        raise ValueError("cannot classify a zero vector")
    return float((p2 * p2).sum() / (total * total))


def _reference_linfit(y):
    x = np.arange(y.size, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return float(slope), 1.0
    return float(slope), 1.0 - float(np.sum(resid * resid)) / ss_tot


def _reference_classify(psi, threshold_ipr=None, fit_window=None):
    amp = np.abs(np.asarray(psi, dtype=complex))
    dim = amp.size
    if fit_window is None:
        fit_window = max(2, min(8, dim // 3))
    if dim < 2 * fit_window:
        raise ValueError(
            f"profile of {dim} sites is too short for two windows of {fit_window}")
    if threshold_ipr is None:
        threshold_ipr = 3.0 / dim
    participation = _reference_ipr(amp)
    floor = amp.max() * 1e-15
    logamp = np.log(np.maximum(amp, floor))
    slope_l, r2_l = _reference_linfit(logamp[:fit_window])
    slope_r, r2_r = _reference_linfit(logamp[::-1][:fit_window])
    localized = participation > threshold_ipr
    left = localized and slope_l < -1e-2 and r2_l > 0.99
    right = localized and slope_r < -1e-2 and r2_r > 0.99
    if left and right:
        label, u_est = StateLabel.EDGE_BOTH, (abs(slope_l) + abs(slope_r)) / 2
    elif left:
        label, u_est = StateLabel.EDGE_LEFT, abs(slope_l)
    elif right:
        label, u_est = StateLabel.EDGE_RIGHT, abs(slope_r)
    else:
        label, u_est = StateLabel.BULK, None
    return StateClass(label=label, ipr=participation, u_estimate=u_est)


def _assert_batch_matches_columns(states, **kwargs):
    """The label, u and ipr columns of classify_numeric of the matrix, and
    ipr of it, equal the per-column calls and the per-state references
    exactly; the labels of the batch."""
    columns = list(states.T)
    label, u, part = classify_numeric(states, **kwargs)
    assert label.shape == u.shape == part.shape == (len(columns),)
    for j, col in enumerate(columns):
        ref = _reference_classify(col, **kwargs)
        one = classify_numeric(col, **kwargs)
        assert one == ref
        assert type(one.ipr) is float
        assert label[j] == ref.label.value
        assert part[j] == ref.ipr
        if ref.u_estimate is None:
            assert np.isnan(u[j])
        else:
            assert type(one.u_estimate) is float
            assert u[j] == ref.u_estimate
    parts = ipr(states)
    assert parts.shape == (len(columns),)
    assert parts.tolist() == [ipr(c) for c in columns] \
        == [_reference_ipr(c) for c in columns]
    return [StateLabel(v) for v in label.tolist()]


def _oracle_spectrum(kind, N, k, rng):
    lo, hi = 0.1, 2.0
    if kind.is_square:
        tu, td, tr, tl = rng.uniform(lo, hi, 4)
        tl = {ModelKind.SQUARE_ZIGZAG: 0.0, ModelKind.SQUARE_LR: tr}.get(kind,
                                                                         tl)
        return eigensolve_dense(build_square_bloch(
            SquareHoppings(tu=tu, td=td, tr=tr, tl=tl), N, k))
    return eigensolve_dense(build_triangle_bloch(
        TriangleHoppings(*rng.uniform(lo, hi, 3)), N, k, ends=kind.ends))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_batched_oracle_classes_equal_per_state_classes(kind, rng):
    labels = set()
    for N in (2, 3, 4, 5, 7, 9, 13, 20, 29, 40):
        for k in rng.uniform(-math.pi, math.pi, 3):
            vectors = _oracle_spectrum(kind, N, k, rng).vectors
            try:
                _reference_classify(vectors[:, 0])
            except ValueError as exc:  # too short for two windows
                with pytest.raises(ValueError, match=str(exc)):
                    classify_numeric(vectors)
                continue
            labels |= set(_assert_batch_matches_columns(vectors))
    assert StateLabel.BULK in labels
    if kind in (ModelKind.SQUARE_ZIGZAG, ModelKind.TRIANGLE_ZIGZAG1,
                ModelKind.TRIANGLE_ZIGZAG2):
        assert any(label.is_edge for label in labels)


def _window(slope, r2, size):
    """Log-amplitudes over a fit window: a line of the given slope plus a
    quadratic bump, orthogonal to it, sized for the given R^2."""
    x = np.arange(size, dtype=float)
    bump = (x - x.mean()) ** 2
    bump -= bump.mean()
    if r2 >= 1.0:
        return slope * x
    ss_line = slope * slope * np.sum((x - x.mean()) ** 2)
    scale = math.sqrt(ss_line * (1.0 - r2) / (r2 * np.sum(bump * bump)))
    return slope * x + scale * bump


def test_batched_hand_built_profiles_equal_per_state_classes():
    dim, w = 24, 8
    grid = []
    for slope in (-1e-2 - 1e-12, -1e-2, -1e-2 + 1e-12,
                  -1e-2 + 1e-6 - 1e-12, -1e-2 + 1e-6 + 1e-12, -0.5, 0.3):
        for r2 in (0.99 - 1e-12, 0.99, 0.99 + 1e-12, 1.0):
            for right in ("flat", "decay", "same"):
                logamp = np.full(dim, -3.0)
                logamp[:w] = _window(slope, r2, w)
                if right == "decay":
                    logamp[-w:] = _window(-0.8, 1.0, w)[::-1]
                elif right == "same":
                    logamp[-w:] = logamp[:w][::-1]
                else:
                    logamp[-w:] = -1.0  # flat window: ss_tot == 0
                grid.append(np.exp(logamp))
    # slopes within ulps of the threshold, where the closed-form slope and
    # the polyfit slope often fall on opposite sides of it
    near = []
    for slope in np.random.default_rng(5).uniform(-1e-2 - 3e-16,
                                                  -1e-2 + 3e-16, 200):
        logamp = np.full(dim, -1.0)
        logamp[:w] = _window(slope, 0.999, w) - 2.0
        near.append(np.exp(logamp))
    flat = np.ones(dim)
    wave = np.sin(np.pi * np.arange(1, dim + 1) / (dim + 1))
    states = np.array(grid + near + [flat, wave]).T
    _assert_batch_matches_columns(states)
    labels = _assert_batch_matches_columns(states, threshold_ipr=0.0)
    assert {StateLabel.BULK, StateLabel.EDGE_LEFT, StateLabel.EDGE_RIGHT,
            StateLabel.EDGE_BOTH} <= set(labels[:len(grid)])
    assert {StateLabel.BULK, StateLabel.EDGE_LEFT} == set(
        labels[len(grid):len(grid) + len(near)])
    # both sides of each threshold are reached
    fits = [_reference_linfit(np.log(p[:w])) for p in grid]
    assert any(s < -1e-2 for s, _ in fits) and any(
        -1e-2 <= s < 0.0 for s, _ in fits)
    assert any(0.98 < r2 <= 0.99 for _, r2 in fits) and any(
        0.99 < r2 < 0.991 for _, r2 in fits)
    _assert_batch_matches_columns(states, fit_window=3)
    _assert_batch_matches_columns(states.astype(complex) * 1j)


def test_batched_classification_shapes_and_errors():
    profile = np.exp(-0.7 * np.arange(12.0))
    one = classify_numeric(profile)
    assert isinstance(one, StateClass) and one.label.is_edge
    label, u, part = classify_numeric(profile[:, None])
    assert (label.tolist(), u.tolist(), part.tolist()) == (
        [one.label.value], [one.u_estimate], [one.ipr])
    assert [c.shape for c in classify_numeric(np.ones((12, 0)))] == [(0,)] * 3
    assert isinstance(ipr(profile), float)
    message = "profile of 3 sites is too short for two windows of 2"
    for short in (np.ones(3), np.ones((3, 4))):
        with pytest.raises(ValueError, match=message):
            classify_numeric(short)
    pair = np.stack([profile, np.zeros(12)], axis=1)
    for call in (ipr, classify_numeric):
        with pytest.raises(ValueError, match="zero vector"):
            call(pair)
