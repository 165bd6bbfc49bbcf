"""Bulk/edge/transition classification of ribbon eigenstates.

Two independent routes: the analytic classifiers place an energy relative
to the bulk band in the reduced secular variable, while classify_numeric
inspects an arbitrary amplitude profile (typically an oracle eigenvector)
for exponential boundary tails.  Cross-checking the two routes is what
validates the closed-form phase boundaries without circularity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ModelKind

__all__ = [
    "StateLabel",
    "StateClass",
    "ipr",
    "classify_analytic_square",
    "classify_analytic_triangle",
    "classify_numeric",
    "model_edge_sides",
]

_TRANSITION_TOL = 1e-9
_SLOPE_MIN = 1e-2
_R2_MIN = 0.99


class StateLabel(enum.Enum):
    BULK = "bulk"
    EDGE_LEFT = "edge-left"
    EDGE_RIGHT = "edge-right"
    EDGE_BOTH = "edge-both"
    TRANSITION = "transition"

    @property
    def is_edge(self):
        return self in (StateLabel.EDGE_LEFT, StateLabel.EDGE_RIGHT,
                        StateLabel.EDGE_BOTH)


@dataclass(frozen=True)
class StateClass:
    """Classification verdict: label, inverse participation ratio, and the
    fitted decay constant (present exactly when the label is an edge)."""

    label: StateLabel
    ipr: float
    u_estimate: float | None = None

    def __post_init__(self):
        if self.label.is_edge != (self.u_estimate is not None):
            raise ValueError("u_estimate must accompany edge labels only")


def ipr(psi):
    """Inverse participation ratio sum|psi|^4 / (sum|psi|^2)^2 in [1/dim, 1].

    A vector gives a float; a matrix gives an array with one IPR per column.
    Each column equals the IPR of that column on its own bit for bit: the
    sums run over C-contiguous rows, which numpy adds in the order of a 1-D
    sum.
    """
    amp = np.abs(np.asarray(psi))
    if amp.ndim == 1:
        return float(_row_iprs(amp[None, :])[0])
    return _row_iprs(np.ascontiguousarray(amp.T))


def _row_iprs(amp):
    """IPR of each row of the C-contiguous magnitudes `amp`."""
    p2 = amp ** 2
    total = p2.sum(axis=1)
    if np.any(total == 0.0):
        raise ValueError("cannot classify a zero vector")
    return (p2 * p2).sum(axis=1) / (total * total)


# dtype of an array of label values, wide enough for the longest one
_LABEL_DTYPE = f"U{max(len(label.value) for label in StateLabel)}"


def _labels(args, labeller):
    """labeller's label values over the arrays of `args`, or the StateLabel
    of the one entry when every argument is a scalar."""
    if all(np.ndim(v) == 0 for v in args):
        return StateLabel(labeller(*(np.array([v], dtype=float)
                                     for v in args))[0])
    return labeller(*(np.asarray(v, dtype=float) for v in args))


def classify_analytic_square(omega, xi_abs):
    """Place a zigzag-ribbon energy (reduced units omega = E/t_r) relative
    to the bulk band: ratio = (omega^2 - xi^2 - 1)/(2 xi).

    Bulk for ratio in (-1, 1), edge below -1, transition within 1e-9 of -1.
    The stacked eigenvector of an edge state localizes at both ends of the
    two-sublattice layout, hence EDGE_BOTH.

    Scalars give a StateLabel; arrays (broadcast together) give an array of
    label values, one per entry.
    """
    return _labels((omega, xi_abs), _square_labels)


def _square_labels(omega, xi_abs):
    if np.any(xi_abs <= 0.0):
        raise ValueError("xi_abs must be positive")
    ratio = (omega * omega - xi_abs * xi_abs - 1.0) / (2.0 * xi_abs)
    above = ratio > 1.0 + _TRANSITION_TOL
    if np.any(above):
        raise ValueError(
            f"reduced energy lies above the band (ratio = "
            f"{ratio[above][0].item()!r}); no such state exists on this "
            "spectrum")
    out = np.full(ratio.shape, StateLabel.BULK.value, dtype=_LABEL_DTYPE)
    out[ratio < -1.0] = StateLabel.EDGE_BOTH.value
    out[np.abs(ratio + 1.0) < _TRANSITION_TOL] = StateLabel.TRANSITION.value
    return out


def classify_analytic_triangle(E, tau, zeta_abs, sides=StateLabel.EDGE_BOTH):
    """Place a triangular-ribbon energy relative to the bulk band in the
    reduced variable y = (E - tau)/(2|zeta|).

    Bulk for |y| < 1, transition within 1e-9 of either band edge, and an
    edge state otherwise (y = +-cosh u).  Which boundary hosts the edge
    state is a property of the truncation, not of the energy, so the edge
    variant to report is passed in as `sides` (one-sided zigzag localizes
    at the first chain: EDGE_LEFT; two-sided: EDGE_BOTH).

    Scalars give a StateLabel; arrays (broadcast together) give an array of
    label values, one per entry.
    """
    def labeller(E, tau, zeta_abs):
        if np.any(zeta_abs <= 0.0):
            raise ValueError("zeta_abs must be positive")
        if not sides.is_edge:
            raise ValueError("sides must be an edge variant")
        ratio = (E - tau) / (2.0 * zeta_abs)
        out = np.full(ratio.shape, sides.value, dtype=_LABEL_DTYPE)
        out[np.abs(ratio) < 1.0] = StateLabel.BULK.value
        out[(np.abs(ratio - 1.0) < _TRANSITION_TOL)
            | (np.abs(ratio + 1.0) < _TRANSITION_TOL)] = \
            StateLabel.TRANSITION.value
        return out

    return _labels((E, tau, zeta_abs), labeller)


# A side's slope is first taken from the closed-form least-squares line,
# for all states at once; only a side whose fast slope lies below
# -_SLOPE_MIN + _REFIT_MARGIN is refit, by the np.linalg.lstsq call
# np.polyfit makes (its scaled Vandermonde matrix, its rcond; one side per
# call, as a 2-D right-hand side changes the last bits of some slopes), and
# that refit alone decides the label and the decay estimate.  The two
# slopes differ by ulps of the log-amplitudes (about 1e-14 for normalized
# states), so a side the fast slope rules out can never pass the exact
# test.  With this margin about 0.3% of oracle sides are refit.
_REFIT_MARGIN = 1e-6


def _edge_slopes(windows):
    """The polyfit slope of each row of `windows` that decays inward
    (slope < -1e-2) with R^2 > 0.99, NaN on the others; R^2 of all rows at
    once, over C-contiguous rows, summed as one row is."""
    x = np.arange(windows.shape[1], dtype=float)
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = len(x) * np.finfo(float).eps  # polyfit's
    coef = np.array([np.linalg.lstsq(lhs, y, rcond)[0] for y in windows])
    slope, intercept = (coef.reshape(-1, 2) / scale).T
    resid = windows - (slope[:, None] * x + intercept[:, None])
    ss_tot = ((windows - windows.mean(axis=1)[:, None]) ** 2).sum(axis=1)
    ss_res = (resid * resid).sum(axis=1)
    r2 = 1.0 - ss_res / np.where(ss_tot == 0.0, np.inf, ss_tot)  # 1 if flat
    return np.where((slope < -_SLOPE_MIN) & (r2 > _R2_MIN), slope, np.nan)


def classify_numeric(psi, threshold_ipr=None, fit_window=None):
    """Classify an amplitude profile by its boundary behavior.

    Fits log|psi_n| over the fit_window sites nearest each boundary as a
    function of distance from that boundary.  A side is edge-localized when
    the fit decays inward (slope < -1e-2) with R^2 > 0.99 and the profile's
    inverse participation ratio exceeds threshold_ipr.  u_estimate is the
    mean slope magnitude over the qualifying sides.

    A (dim, m) matrix gives three columns with one entry per state: its
    label values of StateLabel, its decay estimate (NaN off edge states)
    and its IPR, each entry that of the state on its own.  A vector gives
    one StateClass, the one-column case.
    """
    states = np.asarray(psi, dtype=complex)
    single = states.ndim == 1
    if single:
        states = states[:, None]
    dim = states.shape[0]
    if fit_window is None:
        fit_window = max(2, min(8, dim // 3))
    if dim < 2 * fit_window:
        raise ValueError(
            f"profile of {dim} sites is too short for two windows of {fit_window}")
    if threshold_ipr is None:
        threshold_ipr = 3.0 / dim
    amp = np.ascontiguousarray(np.abs(states).T)  # one row per state
    participation = _row_iprs(amp)
    floor = amp.max(axis=1) * 1e-15
    logamp = np.log(np.maximum(amp, floor[:, None]))
    # the left windows of all states, then the right ones, each read inward
    windows = np.concatenate([logamp[:, :fit_window],
                              logamp[:, ::-1][:, :fit_window]])
    x = np.arange(fit_window, dtype=float)
    x -= x.mean()
    x /= x @ x
    # NaN is refit, as is a fast slope below the margin
    refit = (np.tile(participation > threshold_ipr, 2)
             & ~(windows @ x >= -_SLOPE_MIN + _REFIT_MARGIN))
    decay = np.full(len(windows), np.nan)
    decay[refit] = -_edge_slopes(windows[refit])
    decay_l, decay_r = np.split(decay, 2)
    left, right = ~np.isnan(decay_l), ~np.isnan(decay_r)
    label = np.array([side.value for side in (
        StateLabel.BULK, StateLabel.EDGE_LEFT, StateLabel.EDGE_RIGHT,
        StateLabel.EDGE_BOTH)])[left + 2 * right]
    u = np.where(left & right, (decay_l + decay_r) / 2,
                 np.where(left, decay_l, decay_r))
    if single:
        return StateClass(label=StateLabel(label[0]),
                          ipr=float(participation[0]),
                          u_estimate=None if np.isnan(u[0]) else float(u[0]))
    return label, u, participation


def model_edge_sides(kind):
    """Edge variant hosted by each truncation, or None when the model has
    no localized branch at all."""
    return {
        ModelKind.SQUARE_ZIGZAG: StateLabel.EDGE_BOTH,
        ModelKind.TRIANGLE_ZIGZAG1: StateLabel.EDGE_LEFT,
        ModelKind.TRIANGLE_ZIGZAG2: StateLabel.EDGE_BOTH,
    }.get(kind)
