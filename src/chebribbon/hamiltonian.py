"""Bloch Hamiltonians for square and triangular ribbons, plus the dense
eigensolver used as the independent oracle.

Square ribbons carry two sublattices per chain; the 2N x 2N Bloch matrix is
block off-diagonal [[0, T], [T,dag]] in the basis (circ sites 1..N, bullet
sites 1..N).  Triangular ribbons reduce to an N x N tridiagonal matrix whose
corner diagonal entries are removed by zigzag truncation.

The oracle path solves a chiral matrix (both diagonal blocks exactly zero,
as every square Bloch matrix is) through the SVD T = U S V.dag: energies
+-s, states [u; +-v]/sqrt 2, and at an exactly zero s the two
sublattice-polarized zero modes [u; 0] and [0; v].  Any other matrix goes
to numpy.linalg.eigh.  Both routes share a deterministic eigenvector phase
convention (the first component within a relative 1e-10 of the largest
magnitude rotated real positive, so that components tied up to rounding
pick the lowest index) and a hard residual check on the full matrix, so
analytic formulas are always compared against verified eigenpairs.  The
builders take an array of momenta as well as one, and the oracle a stack
of matrices as well as one, so that a scan is solved in a few array calls.
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

    @property
    def ends(self):
        """The zigzag-truncated end rows of a triangular model's Bloch
        matrix, 0 (linear edges), 1 or 2; None on a square model."""
        return {ModelKind.TRIANGLE_LINEAR: 0, ModelKind.TRIANGLE_ZIGZAG1: 1,
                ModelKind.TRIANGLE_ZIGZAG2: 2}.get(self)


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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with matched, phase-fixed eigenvector columns:
    energies (..., dim) and vectors (..., dim, dim), with the leading axes
    of the matrices solved."""

    energies: np.ndarray
    vectors: np.ndarray


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
    return H


def build_triangle_bloch(h, N, k, ends=0, a=1.0):
    """N x N tridiagonal Bloch matrix: diagonal 2 t3 cos(ka), zeroed on the
    first row (ends = 1) or on both end rows (ends = 2) by zigzag
    truncation, zeta* = conj(t1 + t2 e^{-ika}) above the diagonal and zeta
    below.  An array of momenta gives a stack of matrices, as for
    build_square_bloch."""
    if ends not in (0, 1, 2):
        raise ValueError(f"ends must be 0, 1 or 2, got {ends!r}")
    beta = build_beta(N)
    ks = np.asarray(k, dtype=float)
    zeta = h.t1 + h.t2 * np.exp(-1.0j * ks * a)
    diag = np.zeros(ks.shape + (N,))
    diag[...] = (2.0 * h.t3 * np.cos(ks * a))[..., None]
    if ends:
        diag[..., 0] = 0.0
    if ends == 2:
        diag[..., N - 1] = 0.0  # N=1 collapses to the single truncated row
    H = np.zeros(ks.shape + (N, N), dtype=complex)
    H[..., range(N), range(N)] = diag
    H = H + _stacked(np.conj(zeta)) * beta + _stacked(zeta) * beta.T
    return H


def _chiral_block(stack):
    """The T blocks of a stack of matrices [[0, T], [T.dag, 0]] whose two
    diagonal blocks are exactly zero, or None for any other stack."""
    dim = stack.shape[-1]
    N = dim // 2
    if dim % 2 or np.any(stack[:, :N, :N]) or np.any(stack[:, N:, N:]):
        return None
    return stack[:, :N, N:]


def _chiral_eigh(T):
    """Ascending energies and eigenvector columns of each [[0, T], [T.dag,
    0]] from one SVD T = U S V.dag: energies -s then +s, states
    [u; -v]/sqrt 2 then [u; v]/sqrt 2.  An exactly zero singular value
    gives the sublattice-polarized pair [u; 0] (lower) and [0; v] (upper)
    instead, as the paper's zero modes are; + 0.0 clears the sign of its
    energies."""
    u, s, vh = np.linalg.svd(T)
    v = vh.conj().swapaxes(-1, -2)
    zero = (s == 0.0)[:, None, :]
    half = math.sqrt(0.5)
    N = s.shape[-1]
    vectors = np.empty((len(T), 2 * N, 2 * N), dtype=complex)
    vectors[:, :N, :N] = np.where(zero, u, half * u)
    vectors[:, N:, :N] = np.where(zero, 0.0, -half * v)
    vectors[:, :N, N:] = np.where(zero, 0.0, half * u)[..., ::-1]
    vectors[:, N:, N:] = np.where(zero, v, half * v)[..., ::-1]
    energies = np.concatenate([-s, s[:, ::-1]], axis=-1) + 0.0
    return energies, vectors


def eigensolve_dense(H):
    """Spectrum of a Hermitian matrix, or of a stack of them (shape (...,
    dim, dim)), with deterministic eigenvector phases and verified
    residuals.

    A matrix whose two diagonal blocks are exactly zero (every square
    Bloch matrix) is solved through the SVD of its off-diagonal block T,
    any other by eigh; the residual is checked on the full matrix either
    way, blockwise on the chiral route.  The checks, the one eigh or svd
    call and the phase rule run over the whole stack, matrix by matrix, so
    each matrix's energies and vectors equal those of its own solve."""
    mat = np.asarray(H, dtype=complex)
    stack = mat.reshape((-1,) + mat.shape[-2:])
    if not np.isfinite(stack).all():
        # LAPACK fails on it; finite hoppings give one only by overflow
        raise OverflowError("a matrix entry is not finite")
    # max(1, max|H|) of each matrix; fmax keeps 1 where that is NaN
    scale = np.fmax(1.0, np.abs(stack).max(axis=(1, 2)))
    asym = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    bad = np.flatnonzero(asym > 1e-13 * scale)
    if bad.size:
        i = bad[0]
        raise HermiticityError(f"matrix asymmetry {asym[i]:.3e} exceeds "
                               f"{1e-13 * scale[i]:.3e}")
    T = _chiral_block(stack)
    if T is None:
        energies, vectors = np.linalg.eigh(stack)
    else:
        energies, vectors = _chiral_eigh(T)
    # rotate each column so that its first component within 1e-10 (the
    # residual tolerance) of its largest modulus is real positive: a
    # mirror-symmetric state's largest components tie only to rounding
    size = np.abs(vectors)
    first = np.argmax(size >= (1.0 - 1e-10) * size.max(axis=1, keepdims=True),
                      axis=1)
    lead = np.take_along_axis(vectors, first[:, None, :], axis=1)
    safe = np.where(np.abs(lead) == 0.0, 1.0, lead)
    vectors = vectors * (np.abs(safe) / safe)
    if T is None:
        residual = np.abs(stack @ vectors - vectors * energies[:, None, :]
                          ).max(axis=1)
    else:
        # H [x; y] = [T y; T.dag x], without forming a 2N x 2N product
        N = T.shape[-1]
        upper, lower = vectors[:, :N], vectors[:, N:]
        residual = np.maximum(
            np.abs(T @ lower - upper * energies[:, None, :]).max(axis=1),
            np.abs(T.conj().swapaxes(1, 2) @ upper
                   - lower * energies[:, None, :]).max(axis=1))
    tol = 1e-10 * np.maximum(1.0, np.maximum(np.abs(energies),
                                             scale[:, None]))
    if np.any(residual > tol):
        raise RuntimeError(f"eigensolver residual {residual.max():.3e} "
                           "out of tolerance")
    return Spectrum(energies=energies.reshape(mat.shape[:-1]),
                    vectors=vectors.reshape(mat.shape))


OVERLAP_WINDOW = 1e-7


def subspace_overlap(spectrum, energy, vector):
    """Norm of the projection of `vector` onto the eigenspace spanned by all
    eigenvalues within OVERLAP_WINDOW of `energy` (0.0 if none): a
    degeneracy-safe overlap.  A (dim, m) matrix of vectors with their m
    energies gives one per column.  A stack of spectra, as eigensolve_dense
    gives it, takes a row of energies and a matrix of vectors per matrix of
    the stack and gives a row each, as alone.  The eigenvalues ascend, so
    |<v_j, s>|^2 is summed over a contiguous run: O(dim^2 w) for a widest
    window w."""
    lead, dim = spectrum.energies.shape[:-1], spectrum.energies.shape[-1]
    levels = spectrum.energies.reshape(-1, dim)
    sel = np.abs(levels[:, None] - np.reshape(
        energy, (len(levels), -1, 1))) <= OVERLAP_WINDOW
    first, count = sel.argmax(axis=2), sel.sum(axis=2)
    vectors = np.asarray(vector, dtype=complex)
    states = np.conjugate(
        vectors.reshape(levels.shape + (-1,)).swapaxes(1, 2), order="C")
    norm = np.sqrt((states.real ** 2 + states.imag ** 2).sum(axis=2))
    if np.any(norm == 0.0):
        raise ValueError("overlap of a zero vector is undefined")
    basis = spectrum.vectors.reshape(-1, dim, dim).swapaxes(1, 2)  # rows
    at = np.arange(len(levels))[:, None]
    total = np.zeros(count.shape)
    for j in range(count.max(initial=0)):  # two dim^2 arrays at most
        dots = basis[at, np.minimum(first + j, dim - 1)]
        dots *= states
        dots = dots.sum(axis=2)
        total += np.where(j < count, dots.real ** 2 + dots.imag ** 2, 0.0)
    out = np.where(count > 0, np.sqrt(total) / norm, 0.0).reshape(
        lead + vectors.shape[len(lead) + 1:])
    return float(out) if out.ndim == 0 else out
