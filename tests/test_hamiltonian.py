"""Bloch-matrix builders and the dense oracle they feed."""

import math

import numpy as np
import pytest

from chebribbon.errors import HermiticityError
from chebribbon.hamiltonian import (OVERLAP_WINDOW, ModelKind, RibbonModel,
                                    Spectrum, SquareHoppings, TriangleEdge,
                                    TriangleHoppings, build_beta,
                                    build_square_bloch, build_triangle_bloch,
                                    eigensolve_dense, state_overlap,
                                    subspace_overlap)
from chebribbon.square_ribbon import xi_of_k, zigzag_spectrum


# ------------------------------------------------------------------- beta --

def test_build_beta_examples():
    np.testing.assert_array_equal(build_beta(1), [[0.0]])
    np.testing.assert_array_equal(
        build_beta(3), [[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_beta_plus_transpose_has_cosine_spectrum():
    for N in (3, 5, 11):
        beta = build_beta(N)
        eigs = np.linalg.eigvalsh(beta + beta.T)
        j = np.arange(1, N + 1)
        expected = np.sort(2.0 * np.cos(np.pi * j / (N + 1)))
        np.testing.assert_allclose(eigs, expected, atol=1e-12)


# ---------------------------------------------------------- square builder --

def test_square_bloch_dimer_limit():
    # single chain pair coupled only by tu: a k-independent dimer
    h = SquareHoppings(tu=1.0, td=0.0, tl=0.0, tr=1.0)
    bloch = build_square_bloch(h, 1, 0.4)
    np.testing.assert_allclose(bloch.entries, [[0, 1], [1, 0]], atol=1e-15)
    spec = eigensolve_dense(bloch)
    np.testing.assert_allclose(spec.energies, [-1.0, 1.0], atol=1e-14)


def test_square_bloch_is_exactly_hermitian(rng):
    tu, td, tl, tr = rng.uniform(0.1, 1.5, size=4)
    h = SquareHoppings(tu=tu, td=td, tl=tl, tr=tr)
    H = build_square_bloch(h, 6, 0.73).entries
    assert np.array_equal(H, H.conj().T)
    # chiral sublattice structure: no intra-sublattice matrix elements
    assert np.all(H[:6, :6] == 0.0)
    assert np.all(H[6:, 6:] == 0.0)


def test_square_bloch_matches_reduced_secular_roots():
    h = SquareHoppings(tu=1.0, td=1.0, tl=0.0, tr=1.0)
    spec = eigensolve_dense(build_square_bloch(h, 2, 0.0))
    omegas = zigzag_spectrum(2.0, 2)  # |xi| = (tu + td)/tr at k = 0
    expected = np.sort(np.concatenate([-omegas, omegas]))
    np.testing.assert_allclose(spec.energies, expected, atol=1e-10)


def test_squared_hamiltonian_block_identity():
    # H^2 is block diagonal with T T^dag = tr^2 (|xi|^2 I + xi beta
    # + conj(xi) beta^T + beta^T beta) when tl = 0
    h = SquareHoppings(tu=0.7, td=0.4, tl=0.0, tr=1.1)
    N, k = 5, 0.37
    H = build_square_bloch(h, N, k).entries
    H2 = H @ H
    xi, _ = xi_of_k(h, k)
    beta = build_beta(N)
    expected = (h.tr ** 2) * (abs(xi) ** 2 * np.eye(N) + xi * beta
                              + np.conj(xi) * beta.T + beta.T @ beta)
    np.testing.assert_allclose(H2[:N, :N], expected, atol=1e-12)
    np.testing.assert_allclose(H2[:N, N:], 0.0, atol=1e-15)
    eigs = np.linalg.eigvalsh(H)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H2)),
                               np.sort(eigs ** 2), atol=1e-9)


def test_lr_gauge_transformation():
    # a diagonal gauge turns the tl = tr ribbon into a real tridiagonal
    # transverse problem with a scalar k-dependent shift
    h = SquareHoppings(tu=0.8, td=0.3, tl=0.9, tr=0.9)
    N, k = 4, 0.61
    H = build_square_bloch(h, N, k).entries
    n = np.arange(1, N + 1)
    G = np.diag(np.exp(-1.0j * n * k))
    U = np.zeros((2 * N, 2 * N), dtype=complex)
    U[:N, :N] = np.exp(0.5j * k) * G
    U[N:, N:] = np.exp(-0.5j * k) * G
    transformed = U.conj().T @ H @ U
    beta = build_beta(N)
    expected_block = ((h.tu * np.exp(-1.0j * k) + h.td * np.exp(1.0j * k))
                      * np.eye(N) + h.tr * (beta + beta.T))
    np.testing.assert_allclose(transformed[:N, N:], expected_block,
                               atol=1e-13)
    np.testing.assert_allclose(np.linalg.eigvalsh(transformed),
                               np.linalg.eigvalsh(H), atol=1e-12)


# -------------------------------------------------------- triangle builder --

def test_triangle_bloch_examples():
    h = TriangleHoppings(t1=1.0, t2=1.0, t3=1.0)
    lin1 = build_triangle_bloch(h, 1, 0.0, edge=TriangleEdge.LINEAR)
    np.testing.assert_allclose(lin1.entries, [[2.0]])
    zz1 = build_triangle_bloch(h, 1, 0.0, edge=TriangleEdge.ZIGZAG1)
    np.testing.assert_allclose(zz1.entries, [[0.0]])
    lin2 = eigensolve_dense(build_triangle_bloch(h, 2, 0.0))
    np.testing.assert_allclose(lin2.energies, [0.0, 4.0], atol=1e-14)


def test_triangle_bloch_truncation_zeroes_diagonal():
    h = TriangleHoppings(t1=0.9, t2=0.4, t3=0.8)
    k = 0.3
    tau = 2.0 * 0.8 * math.cos(k)
    d1 = np.diag(build_triangle_bloch(h, 3, k, edge=TriangleEdge.ZIGZAG1)
                 .entries).real
    np.testing.assert_allclose(d1, [0.0, tau, tau], atol=1e-15)
    d2 = np.diag(build_triangle_bloch(h, 3, k, edge=TriangleEdge.ZIGZAG2)
                 .entries).real
    np.testing.assert_allclose(d2, [0.0, tau, 0.0], atol=1e-15)
    zeta = h.t1 + h.t2 * np.exp(-1.0j * k)
    H = build_triangle_bloch(h, 3, k).entries
    assert H[0, 1] == np.conj(zeta) and H[1, 0] == zeta


# ----------------------------------------------------------- dense oracle --

def test_eigensolve_orthonormal_and_phase_fixed():
    h = SquareHoppings(tu=1.0, td=0.6, tl=0.0, tr=1.0)
    spec = eigensolve_dense(build_square_bloch(h, 5, 0.3))
    V = spec.vectors
    np.testing.assert_allclose(V.conj().T @ V, np.eye(10), atol=1e-12)
    # each column's leading component is rotated to the real positive axis
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(10)]
    assert np.all(lead.real > 0.0)
    np.testing.assert_allclose(lead.imag, 0.0, atol=1e-12)
    # chiral pairing and k -> -k parity of the spectrum
    np.testing.assert_allclose(spec.energies, -spec.energies[::-1],
                               atol=1e-10)
    other = eigensolve_dense(build_square_bloch(h, 5, -0.3))
    np.testing.assert_allclose(spec.energies, other.energies, atol=1e-10)


def test_eigensolve_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        eigensolve_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensolve_rejects_a_non_hermitian_member_of_a_stack():
    stack = np.array([np.eye(3), np.diag([1.0, 2.0, 3.0]), np.eye(3)])
    assert len(eigensolve_dense(stack)) == 3
    stack[1, 0, 2] = 1e-3
    with pytest.raises(HermiticityError, match="asymmetry 1.000e-03"):
        eigensolve_dense(stack)


# --------------------------------------------------------- stacked momenta --

def _random_builds(rng, N):
    """k -> BlochMatrix of random hoppings at width N and a random lattice
    constant, for the square ribbon and each triangular edge."""
    a = float(rng.uniform(0.3, 3.0))
    sq = SquareHoppings(*rng.uniform(0.1, 2.0, size=4))
    tri = TriangleHoppings(*rng.uniform(0.1, 2.0, size=3))
    return [lambda k: build_square_bloch(sq, N, k, a=a)] + [
        lambda k, edge=edge: build_triangle_bloch(tri, N, k, edge=edge, a=a)
        for edge in TriangleEdge]


@pytest.mark.parametrize("N", [1, 2, 5, 24, 59, 118])
def test_stacked_builds_equal_each_momentum_built_alone(rng, N):
    # a build at an array of momenta is the stack of the builds at each,
    # bit for bit (signed zeros included), and H(-k) == conj(H(k))
    ks = rng.uniform(-4.0, 4.0, size=5)
    for build in _random_builds(rng, N):
        stack = build(ks)
        assert stack.entries.shape == (5, stack.dim, stack.dim)
        assert stack.k is ks
        for k, entries in zip(ks.tolist(), stack.entries):
            alone = build(k)
            assert alone.k == k
            assert alone.entries.tobytes() == entries.tobytes()
            assert np.array_equal(build(-k).entries, alone.entries.conj())


@pytest.mark.parametrize("dim", [2, 4, 10, 48, 118])
def test_stacked_solve_equals_each_matrix_solved_alone(rng, dim):
    # one eigensolve_dense of a stack gives each matrix's own Spectrum bit
    # for bit; H(-k) = conj(H(k)) gives the same energies and |psi|, which
    # is what lets a scan solve one momentum of each +-k pair
    ks = rng.uniform(-4.0, 4.0, size=4)
    builds = (_random_builds(rng, dim // 2)[:1]
              + _random_builds(rng, dim)[1:])
    for build in builds:
        spectra = eigensolve_dense(build(ks))
        assert len(spectra) == len(ks)
        for k, spec in zip(ks.tolist(), spectra):
            alone = eigensolve_dense(build(k))
            assert spec.k == alone.k == k
            assert spec.energies.tobytes() == alone.energies.tobytes()
            assert spec.vectors.tobytes() == alone.vectors.tobytes()
            mirror = eigensolve_dense(build(-k))
            assert mirror.energies.tobytes() == alone.energies.tobytes()
            assert (np.abs(mirror.vectors).tobytes()
                    == np.abs(alone.vectors).tobytes())
    # a plain stack, of one matrix too, gives a list
    plain = eigensolve_dense(build(ks[:1]).entries)
    assert len(plain) == 1 and plain[0].k == 0.0
    assert plain[0].vectors.tobytes() == spectra[0].vectors.tobytes()


def test_overlap_helpers():
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 2.0])
    assert state_overlap(v1, v1) == pytest.approx(1.0)
    assert state_overlap(v1, v2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        state_overlap(v1, np.zeros(2))
    spec = eigensolve_dense(np.diag([1.0, 1.0, 2.0]))
    mixed = np.array([0.6, 0.8, 0.0])
    assert subspace_overlap(spec, 1.0, mixed) == pytest.approx(1.0)
    assert subspace_overlap(spec, 2.0, [0.0, 0.0, 1.0]) == pytest.approx(1.0)
    assert subspace_overlap(spec, 2.0, [1.0, 0.0, 0.0]) == pytest.approx(0.0)
    assert subspace_overlap(spec, 99.0, mixed) == 0.0  # empty window
    with pytest.raises(ValueError):
        subspace_overlap(spec, 1.0, np.zeros(3))


def _reference_overlap(spectrum, energy, vector):
    """subspace_overlap of one vector as it was written before it took a
    matrix: the norm of the product of the window's basis with it."""
    vector = np.asarray(vector, dtype=complex).ravel()
    sel = np.abs(spectrum.energies - energy) <= OVERLAP_WINDOW
    if not np.any(sel):
        return 0.0
    return float(np.linalg.norm(spectrum.vectors[:, sel].conj().T @ vector)
                 / np.linalg.norm(vector))


def test_subspace_overlap_of_a_matrix_equals_per_column_calls(rng):
    # eigenvalues exactly at -W and +W from 0.0 (in its window), one ulp
    # past +W (outside it), and a degenerate pair at 1
    w = OVERLAP_WINDOW
    energies = np.array([-1.0, -w, 0.0, w, np.nextafter(w, 1.0), 0.5, 1.0,
                         1.0])
    dim = len(energies)
    basis = np.linalg.qr(rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))[0]
    spec = Spectrum(energies=energies, vectors=basis, k=0.0)
    # windows of 3 (-W, 0, +W about 0; 0, +W and the next float about +W),
    # 2 (the degenerate pair), 1 and none (0.25 and 2.0)
    queries = np.array([0.0, w, 1.0, -1.0, 0.25, 2.0, 1.0, 0.5 + w])
    vectors = rng.normal(size=(dim, len(queries))) \
        + 1j * rng.normal(size=(dim, len(queries)))
    vectors[:, 6] = 0.6 * basis[:, 6] - 0.8j * basis[:, 7]
    found = subspace_overlap(spec, queries, vectors)
    assert found.shape == (len(queries),)
    for j, e in enumerate(queries.tolist()):
        one = subspace_overlap(spec, e, vectors[:, j])
        assert type(one) is float
        for expected in (one, _reference_overlap(spec, e, vectors[:, j])):
            assert abs(found[j] - expected) <= 4 * np.spacing(expected)
    assert found[4] == found[5] == 0.0  # empty windows
    assert abs(found[6] - 1.0) <= 4 * np.spacing(1.0)
    windows = np.abs(energies - queries[:, None]) <= w
    assert windows.sum(axis=1)[:7].tolist() == [3, 3, 2, 1, 0, 0, 2]
    vectors[:, 3] = 0.0
    with pytest.raises(ValueError, match="zero vector"):
        subspace_overlap(spec, queries, vectors)


# -------------------------------------------------------------- validation --

def test_model_metadata_and_validation():
    square = RibbonModel(kind=ModelKind.SQUARE_ZIGZAG, N=5)
    assert square.dim == 10
    assert square.bz_halfwidth == pytest.approx(math.pi / 2)
    triangle = RibbonModel(kind=ModelKind.TRIANGLE_LINEAR, N=5)
    assert triangle.dim == 5
    assert triangle.bz_halfwidth == pytest.approx(math.pi)
    wide = RibbonModel(kind=ModelKind.SQUARE_ZIGZAG, N=5, a=2.0)
    assert wide.bz_halfwidth == pytest.approx(math.pi / 4)

    with pytest.raises(ValueError):
        RibbonModel(kind=ModelKind.SQUARE_ZIGZAG, N=0)
    with pytest.raises(ValueError):
        square.validate_hoppings(SquareHoppings(tu=1, td=1, tl=0.2, tr=1))
    lr = RibbonModel(kind=ModelKind.SQUARE_LR, N=5)
    with pytest.raises(ValueError):
        lr.validate_hoppings(SquareHoppings(tu=1, td=1, tl=0.5, tr=1))
    lr.validate_hoppings(SquareHoppings(tu=1, td=1, tl=1, tr=1))


def test_hopping_constructors_reject_bad_amplitudes():
    with pytest.raises(ValueError):
        SquareHoppings(tu=-0.1, td=1.0, tl=0.0, tr=1.0)
    with pytest.raises(ValueError):
        SquareHoppings(tu=0.0, td=0.0, tl=1.0, tr=0.0)  # tu, td, tr all zero
    with pytest.raises(ValueError):
        TriangleHoppings(t1=-1.0, t2=1.0, t3=1.0)
    with pytest.raises(ValueError):
        TriangleHoppings(t1=0.0, t2=1.0, t3=1.0).require_positive()
