"""Bloch Hamiltonians for square and triangular ribbons, plus the dense
eigensolver used as the independent oracle.

Square ribbons carry two sublattices per chain; the 2N x 2N Bloch matrix is
block off-diagonal [[0, T], [T,dag]] in the basis (circ sites 1..N, bullet
sites 1..N).  Triangular ribbons reduce to an N x N tridiagonal matrix whose
corner diagonal entries are removed by zigzag truncation.

The oracle path is numpy.linalg.eigh with a deterministic eigenvector phase
convention (largest-magnitude component rotated real positive, ties to the
lowest index) and hard residual/orthonormality checks, so analytic formulas
are always compared against verified eigenpairs.  The builders take an
array of momenta as well as one, and the oracle a stack of matrices as well
as one, so that a scan is solved in a few array calls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError


class ModelKind(enum.Enum):
    SQUARE_GENERAL = "square-general"
    SQUARE_ZIGZAG = "square-zigzag"
    SQUARE_LR = "square-lr"
    TRIANGLE_LINEAR = "triangle-linear"
    TRIANGLE_ZIGZAG1 = "triangle-zigzag1"
    TRIANGLE_ZIGZAG2 = "triangle-zigzag2"

    @property
    def is_square(self):
        return self in (ModelKind.SQUARE_GENERAL, ModelKind.SQUARE_ZIGZAG,
                        ModelKind.SQUARE_LR)


class TriangleEdge(enum.Enum):
    LINEAR = "linear"
    ZIGZAG1 = "zigzag1"
    ZIGZAG2 = "zigzag2"


def _require_finite(name, value):
    # NaN slips through every ordered comparison, and inf through most
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SquareHoppings:
    """Hopping amplitudes up/down/left/right; magnitudes, all >= 0."""

    tu: float
    td: float
    tl: float
    tr: float

    def __post_init__(self):
        for name in ("tu", "td", "tl", "tr"):
            _require_finite(name, getattr(self, name))
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if max(self.tu, self.td, self.tr) <= 0.0:
            raise ValueError("at least one of tu, td, tr must be positive")


@dataclass(frozen=True)
class TriangleHoppings:
    """The three bond amplitudes of the triangular ribbon, all >= 0."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        for name in ("t1", "t2", "t3"):
            _require_finite(name, getattr(self, name))
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def require_positive(self):
        """Edge-state criteria need strictly positive amplitudes."""
        if min(self.t1, self.t2, self.t3) <= 0.0:
            raise ValueError("edge-state analysis needs t1, t2, t3 > 0")
        return self


@dataclass(frozen=True)
class RibbonModel:
    """Model kind + ribbon width N (+ lattice constant a along the ribbon)."""

    kind: ModelKind
    N: int
    a: float = 1.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("width N must be >= 1")
        _require_finite("lattice constant", self.a)
        if self.a <= 0.0:
            raise ValueError("lattice constant must be positive")
        if not math.isfinite(2.0 * self.bz_halfwidth):
            raise ValueError(f"lattice constant {self.a!r} is too small: "
                             "the Brillouin zone overflows the float range")

    @property
    def bz_halfwidth(self):
        # period 2a along the ribbon for square models, a for triangular ones
        if self.kind.is_square:
            return math.pi / (2.0 * self.a)
        return math.pi / self.a

    @property
    def dim(self):
        return 2 * self.N if self.kind.is_square else self.N

    def validate_hoppings(self, h):
        if self.kind.is_square:
            if not isinstance(h, SquareHoppings):
                raise TypeError("square model needs SquareHoppings")
            if self.kind is ModelKind.SQUARE_ZIGZAG and h.tl != 0.0:
                raise ValueError("zigzag square model requires tl = 0")
            if (self.kind in (ModelKind.SQUARE_ZIGZAG, ModelKind.SQUARE_LR)
                    and h.tr <= 0.0):
                raise ValueError(f"{self.kind.value} model requires tr > 0")
            if self.kind is ModelKind.SQUARE_LR and not math.isclose(
                    h.tl, h.tr, rel_tol=1e-12, abs_tol=0.0):
                raise ValueError("left-right isotropic model requires tl = tr")
        else:
            if not isinstance(h, TriangleHoppings):
                raise TypeError("triangle model needs TriangleHoppings")
        return h


@dataclass(eq=False)
class BlochMatrix:
    dim: int
    entries: np.ndarray
    k: float


@dataclass(eq=False)
class Spectrum:
    """Ascending eigenvalues with matched, phase-fixed eigenvector columns."""

    energies: np.ndarray
    vectors: np.ndarray
    k: float


def build_beta(N):
    """N x N matrix with ones on the first superdiagonal."""
    if N < 1:
        raise ValueError("width N must be >= 1")
    return np.eye(N, k=1)


def _stacked(x):
    """x with two trailing axes of length 1, to scale a stack of
    matrices entry by entry."""
    return np.asarray(x)[..., None, None]


def build_square_bloch(h, N, k, a=1.0):
    """2N x 2N block Bloch matrix [[0, T], [T.dag, 0]], basis (circ, bullet).

    T = (tu + td e^{2ika}) I + tr beta.dag + tl e^{2ika} beta; the missing
    hops at the two boundary chains are encoded by beta's shape.  An array
    of momenta gives a stack of matrices, one per momentum, each entry that
    of the momentum's own build bit for bit.
    """
    beta = build_beta(N)
    phase = np.exp(2.0j * np.asarray(k, dtype=float) * a)
    T = (_stacked(h.tu + h.td * phase) * np.eye(N) + h.tr * beta.T
         + _stacked(h.tl * phase) * beta)
    H = np.zeros(phase.shape + (2 * N, 2 * N), dtype=complex)
    H[..., :N, N:] = T
    H[..., N:, :N] = T.conj().swapaxes(-1, -2)
    return BlochMatrix(dim=2 * N, entries=H, k=k)


def build_triangle_bloch(h, N, k, edge=TriangleEdge.LINEAR, a=1.0):
    """N x N tridiagonal Bloch matrix: diagonal 2 t3 cos(ka) (zeroed on
    zigzag-truncated rows), zeta* = conj(t1 + t2 e^{-ika}) above the diagonal
    and zeta below.  An array of momenta gives a stack of matrices, as for
    build_square_bloch."""
    beta = build_beta(N)
    ks = np.asarray(k, dtype=float)
    zeta = h.t1 + h.t2 * np.exp(-1.0j * ks * a)
    diag = np.zeros(ks.shape + (N,))
    diag[...] = (2.0 * h.t3 * np.cos(ks * a))[..., None]
    if edge in (TriangleEdge.ZIGZAG1, TriangleEdge.ZIGZAG2):
        diag[..., 0] = 0.0
    if edge is TriangleEdge.ZIGZAG2:
        diag[..., N - 1] = 0.0  # N=1 collapses to the single truncated row
    H = np.zeros(ks.shape + (N, N), dtype=complex)
    H[..., range(N), range(N)] = diag
    H = H + _stacked(np.conj(zeta)) * beta + _stacked(zeta) * beta.T
    return BlochMatrix(dim=N, entries=H, k=k)


def eigensolve_dense(H):
    """Full spectrum of a Hermitian BlochMatrix (or plain matrix) with
    deterministic eigenvector phases and verified residuals.

    A stack of matrices (a BlochMatrix of an array of momenta, or an array
    of shape (m, dim, dim)) gives a list of m Spectrum, each equal to that
    of its matrix on its own: the checks, the one eigh call and the phase
    rule run over the whole stack, matrix by matrix."""
    if isinstance(H, BlochMatrix):
        mat, k = H.entries, H.k
    else:
        mat, k = np.asarray(H), 0.0
    mat = np.asarray(mat, dtype=complex)
    single = mat.ndim == 2
    stack = mat.reshape((-1,) + mat.shape[-2:])
    # max(1, max|H|) of each matrix; fmax keeps 1 where that is NaN
    scale = np.fmax(1.0, np.abs(stack).max(axis=(1, 2)))
    asym = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    bad = np.flatnonzero(asym > 1e-13 * scale)
    if bad.size:
        i = bad[0]
        raise HermiticityError(f"matrix asymmetry {asym[i]:.3e} exceeds "
                               f"{1e-13 * scale[i]:.3e}")
    energies, vectors = np.linalg.eigh(stack)
    # rotate each column so its largest-|.| component (first on ties) is
    # real positive
    lead = np.take_along_axis(
        vectors, np.argmax(np.abs(vectors), axis=1)[:, None, :], axis=1)
    safe = np.where(np.abs(lead) == 0.0, 1.0, lead)
    vectors = vectors * (np.abs(safe) / safe)
    residual = np.abs(stack @ vectors - vectors * energies[:, None, :]).max(
        axis=1)
    tol = 1e-10 * np.maximum(1.0, np.maximum(np.abs(energies),
                                             scale[:, None]))
    if np.any(residual > tol):
        raise RuntimeError(f"eigensolver residual {residual.max():.3e} "
                           "out of tolerance")
    ks = [k] if single else np.broadcast_to(k, len(stack)).tolist()
    spectra = [Spectrum(energies=e, vectors=v, k=kk)
               for e, v, kk in zip(energies, vectors, ks)]
    return spectra[0] if single else spectra


def state_overlap(v1, v2):
    """|<v1|v2>| with both vectors normalized."""
    v1 = np.asarray(v1, dtype=complex).ravel()
    v2 = np.asarray(v2, dtype=complex).ravel()
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("overlap of a zero vector is undefined")
    return float(abs(np.vdot(v1, v2)) / (n1 * n2))


OVERLAP_WINDOW = 1e-7


def subspace_overlap(spectrum, energy, vector):
    """Norm of the projection of `vector` onto the eigenspace spanned by all
    eigenvalues within OVERLAP_WINDOW of `energy` (0.0 if none): a
    degeneracy-safe overlap.  A (dim, m) matrix of vectors with their m
    energies gives one per column.  The eigenvalues ascend, so |<v_j, s>|^2
    is summed over a contiguous run: O(dim^2 w) for a widest window w."""
    sel = (np.abs(spectrum.energies - np.reshape(energy, (-1, 1)))
           <= OVERLAP_WINDOW)
    first, count = sel.argmax(axis=1), sel.sum(axis=1)
    vectors = np.asarray(vector, dtype=complex)
    states = np.conjugate(vectors.reshape(len(vectors), -1).T, order="C")
    norm = np.sqrt((states.real ** 2 + states.imag ** 2).sum(axis=1))
    if np.any(norm == 0.0):
        raise ValueError("overlap of a zero vector is undefined")
    total, last = np.zeros(len(states)), len(spectrum.energies) - 1
    for j in range(count.max(initial=0)):  # two dim^2 arrays at most
        dots = spectrum.vectors.T[np.minimum(first + j, last)]
        dots *= states
        dots = dots.sum(axis=1)
        total += np.where(j < count, dots.real ** 2 + dots.imag ** 2, 0.0)
    out = np.where(count > 0, np.sqrt(total) / norm, 0.0)
    return float(out[0]) if vectors.ndim == 1 else out
