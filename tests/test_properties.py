"""Property tests of `bands` and `validate`: any model, hoppings and width
either exits 2 with one line, or `bands` gives finite rows that match the
dense oracle, with the closed-form rows of k and -k equal, and `validate`
passes.  A stratum draws the paper's strong-anisotropy regime: t3 up to
1e4 |zeta| on the triangular ribbons, |xi| down to 1e-4 on square-zigzag.
Another draws the edge-bulk transition: |r| within 1e-12 to 1e-2 relative
of an end of the band where the bulk phase equation is not monotone.  Last,
the paper's critical conditions: each `edges` existence verdict and regime
against the Bloch spectrum on a fine momentum grid."""

import cmath
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebribbon.classify import ipr
from chebribbon.cli import run
from chebribbon.hamiltonian import (ModelKind, RibbonModel, SquareHoppings,
                                    TriangleEdge, TriangleHoppings,
                                    build_square_bloch, build_triangle_bloch)

_EDGE = {"triangle-linear": TriangleEdge.LINEAR,
         "triangle-zigzag1": TriangleEdge.ZIGZAG1,
         "triangle-zigzag2": TriangleEdge.ZIGZAG2}

_hopping = st.one_of(st.just(0.0), st.floats(0.05, 5.0))
# relative offsets of the second hopping of a near-equal pair
_offset = st.sampled_from([0.0, 2.0 ** -52, -1e-12, 1e-9, -1e-6])


@st.composite
def _pair(draw):
    first = draw(_hopping)
    if draw(st.booleans()):
        return first, first * (1.0 + draw(_offset))
    return first, draw(_hopping)


def _strong(first, second):
    """A third hopping 1 to 1e4 times the larger of the first two: t3 on
    the triangular ribbons, tr on the square ones (|xi| <= (tu + td)/tr)."""
    scale = max(first, second, 0.05)
    return st.floats(0.0, 4.0).map(lambda e: scale * 10.0 ** e)


@st.composite
def _commands(draw, command="bands", widths=st.integers(1, 40),
              k_points=st.integers(1, 16)):
    model = draw(st.sampled_from([kind.value for kind in ModelKind]))
    first, second = draw(_pair())
    third = draw(st.one_of(_hopping, _strong(first, second)))
    if model.startswith("square"):
        tl = {"square-zigzag": 0.0, "square-lr": third}.get(model)
        flags = {"tu": first, "td": second, "tr": third,
                 "tl": draw(_hopping) if tl is None else tl}
    else:
        flags = {"t1": first, "t2": second, "t3": third}
    N = draw(widths)
    k_points = draw(k_points)
    argv = [command, "--model", model, "--N", str(N), "--k-points",
            str(k_points)]
    for name, value in flags.items():
        argv += [f"--{name}", repr(value)]
    return argv, model, flags, N, k_points


def _oracle(model, flags, N, k):
    """Energies and eigenvectors of the Bloch matrix at k."""
    if model.startswith("square"):
        bloch = build_square_bloch(SquareHoppings(**flags), N, k)
    else:
        bloch = build_triangle_bloch(TriangleHoppings(**flags), N, k,
                                     edge=_EDGE[model])
    return np.linalg.eigh(bloch.entries)


def _run(argv):
    """run(argv)'s exit code and output, having checked that an exit code 2
    comes with one line of error and no output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""
    return code, out


def _check_bands(argv, model, flags, N, k_points):
    """`bands` exits 0 with rows that match the oracle: energies within
    1e-9 max(1, |E|) plus the oracle's own error, 4 N eps |H| (below 4e-13
    unless a hopping is huge: at tr = 1e200 the oracle places an edge
    energy of 0 at 1e149), and IPRs within 1e-9 on rows whose energy lies
    at least 1e-6 max(1, |E|) from every other at that k, and a million
    times the oracle's error (an eigenvector of a closer pair is not
    determined to 1e-9)."""
    code, out = _run(argv)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    dim = 2 * N if model.startswith("square") else N
    assert len(rows) == k_points * dim
    for start in range(0, len(rows), dim):
        group = rows[start:start + dim]
        k = float(group[0][0])
        energies = np.array([float(r[2]) for r in group])
        for r in group:
            assert float(r[0]) == k
            cells = [r[0], r[2], r[5]] + ([r[4]] if r[4] else [])
            assert all(math.isfinite(float(c)) for c in cells)
        expected, vectors = _oracle(model, flags, N, k)
        scale = np.maximum(1.0, np.abs(expected))
        oracle_error = 4.0 * dim * np.finfo(float).eps * np.abs(expected).max()
        assert np.all(np.abs(energies - expected)
                      <= 1e-9 * scale + oracle_error)
        if group[0][6] == "analytic":
            gap = np.abs(expected[:, None] - expected[None, :])
            np.fill_diagonal(gap, np.inf)
            alone = gap.min(axis=1) >= 1e-6 * scale + 1e6 * oracle_error
            part = np.array([float(r[5]) for r in group])
            assert np.all(np.abs(part - ipr(vectors))[alone] <= 1e-9)
    # the grid is antisymmetric, and the closed form gives -k the energies,
    # classes, decays and IPRs of k bit for bit
    groups = [rows[start:start + dim] for start in range(0, len(rows), dim)]
    for group, mirror in zip(groups, groups[::-1]):
        assert float(group[0][0]) == -float(mirror[0][0])
        assert [r[6] for r in group] == [r[6] for r in mirror]
        if group[0][6] == "analytic":
            assert [r[2:6] for r in group] == [r[2:6] for r in mirror]


@settings(max_examples=150, deadline=None)
@given(_commands())
def test_bands_exits_2_or_matches_the_oracle(command):
    if _run(command[0])[0] != 2:
        _check_bands(*command)


# the paper's strong-anisotropy regime, where the closed form once formed
# states at an angle read back from each energy and refused them
_REPRODUCERS = [
    *(["bands", "--model", model, "--N", N, "--t3", t3, "--k-points", "128"]
      for model in ("triangle-zigzag1", "triangle-zigzag2")
      for N, t3 in (("40", "100"), ("12", "300"), ("5", "3000"))),
    ["bands", "--model", "square-zigzag", "--tr", "1e200"],
    # and an edge energy of about |zeta|^2/t3 that tau +- 2|zeta| cosh u
    # would cancel
    *(["bands", "--model", model, "--N", "5", "--t3", "1e12", "--k-points",
       "8"] for model in ("triangle-zigzag1", "triangle-zigzag2")),
    # and edge decays near u = 690, past where sinh overflows
    *(["bands", "--model", model, "--t3", "1e300", "--k-points", "3"]
      for model in ("triangle-zigzag1", "triangle-zigzag2")),
    ["bands", "--model", "square-zigzag", "--tr", "1e300"],
]


@pytest.mark.parametrize("argv", _REPRODUCERS, ids=" ".join)
def test_strong_anisotropy_matches_the_oracle(argv):
    flags = ({"tu": 1.0, "td": 1.0, "tr": 1.0, "tl": 0.0}
             if argv[2] == "square-zigzag" else
             {"t1": 1.0, "t2": 1.0, "t3": 1.0})
    for name, value in zip(argv[1::2], argv[2::2]):
        if name.lstrip("-") in flags:
            flags[name.lstrip("-")] = float(value)
    N = int(argv[argv.index("--N") + 1]) if "--N" in argv else 5
    k_points = int(argv[argv.index("--k-points") + 1]) \
        if "--k-points" in argv else 128
    _check_bands(argv, argv[2], flags, N, k_points)


def test_strong_anisotropy_validate_reports_closed_form_agreement():
    # a JSON report whose energies and overlaps pass; the label agreement
    # compares with the numeric classifier, which reads a state confined to
    # one site as bulk
    code, out = _run(["validate", "--model", "triangle-zigzag1", "--N",
                      "40", "--t3", "1000", "--k-points", "8"])
    assert code in (0, 1)
    payload = json.loads(out)
    assert {v["metric"] for v in payload["violations"]} <= {"agreement"}


@settings(max_examples=60, deadline=None)
@given(_commands("validate", st.integers(1, 6), st.integers(1, 8)))
def test_validate_exits_2_or_passes(command):
    # N < 4 included, where the numeric classifier has no two fit windows
    argv, model, flags, N, k_points = command
    code, out = _run(argv)
    if code == 2:
        return
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass" and payload["violations"] == []
    report, = payload["reports"].values()
    assert (report["agreement"] is None) == (
        N < (2 if model.startswith("square") else 4)
        and model not in ("square-lr", "square-general"))


@st.composite
def _transition_commands(draw):
    """`bands` on a zigzag model whose |r| at one momentum of the grid is
    an end of the transition band times 1 +- delta, delta from 1e-12 to
    1e-2: r = tau/|zeta| on the triangular ribbons, whose band runs from 1
    to (N+1)/N (one-sided) or (N+1)/(N-1) (two-sided), and r = 1/|xi| on
    square-zigzag, whose band runs from 1 to (N+1)/N."""
    model = draw(st.sampled_from(["triangle-zigzag1", "triangle-zigzag2",
                                  "square-zigzag"]))
    N = draw(st.integers(2, 40))
    k_points = draw(st.integers(1, 16))
    half = RibbonModel(ModelKind(model), N).bz_halfwidth
    k = (draw(st.integers(0, k_points - 1)) + 0.5 - k_points / 2) \
        * (2.0 * half / k_points)
    top = (N + 1) / (N - 1) if model == "triangle-zigzag2" else (N + 1) / N
    r = draw(st.sampled_from([1.0, top])) * (1.0 + draw(
        st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-12.0, -2.0)))
    first, second = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))
    if model == "square-zigzag":
        # |xi| = |tu + td e^{2ik}|/tr = 1/r
        flags = {"tu": first, "td": second, "tr": r * abs(
            first + second * cmath.exp(2.0j * k)), "tl": 0.0}
    else:
        # |tau| = 2 t3 |cos k| = r |t1 + t2 e^{-ik}|
        assume(abs(math.cos(k)) > 1e-3)
        flags = {"t1": first, "t2": second, "t3": r * abs(
            first + second * cmath.exp(-1.0j * k)) / (2.0 * abs(math.cos(k)))}
    argv = ["bands", "--model", model, "--N", str(N), "--k-points",
            str(k_points)]
    for name, value in flags.items():
        if name != "tl":
            argv += [f"--{name}", repr(value)]
    return argv, model, flags, N, k_points


@settings(max_examples=200, deadline=None)
@given(_transition_commands())
def test_transition_band_energies_match_the_oracle(command):
    # every energy within 1e-9 max(1, |E|) of the Bloch matrix's
    argv, model, flags, N, k_points = command
    code, out = _run(argv)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    dim = 2 * N if model.startswith("square") else N
    assert len(rows) == k_points * dim
    for start in range(0, len(rows), dim):
        group = rows[start:start + dim]
        expected = _oracle(model, flags, N, float(group[0][0]))[0]
        energies = np.array([float(r[2]) for r in group])
        assert np.all(np.abs(energies - expected)
                      <= 1e-9 * np.maximum(1.0, np.abs(expected)))


# the paper's critical conditions: `edges` predicts from the hoppings alone
# on which side of the bulk band edge states exist (triangular zigzag
# ribbons) and whether they exist at no, some or every momentum
# (square-zigzag); the Bloch spectrum on a fine grid of the half zone
# (H(-k) = H(k)*) decides the same.  Draws whose threshold lies within 2%
# of its bound are skipped: there the edge state hugs the band edge over
# a sliver of momenta that a finite grid cannot resolve.

def _edges(argv):
    code, out = _run(argv)
    assert code == 0, argv
    return json.loads(out)


def _stacked_eigvalsh(bloch, ks, chunk=128):
    """eigvalsh of the Bloch matrix at each momentum of ks, one row each,
    a chunk of stacked matrices at a time."""
    return np.concatenate([np.linalg.eigvalsh(bloch(ks[i:i + chunk]).entries)
                           for i in range(0, len(ks), chunk)])


def _draws(rng, count):
    """count derandomized (first, second, third) hoppings: the first two
    in [0.1, 2], the third log-uniform in [0.01, 100]."""
    for first, second, power in zip(rng.uniform(0.1, 2.0, count),
                                    rng.uniform(0.1, 2.0, count),
                                    rng.uniform(-2.0, 2.0, count)):
        yield float(first), float(second), float(10.0 ** power)


@pytest.mark.parametrize("model", ["triangle-zigzag1", "triangle-zigzag2"])
def test_edge_existence_matches_the_bloch_spectrum(model):
    # a side's edge states lie beyond [tau - 2|zeta|, tau + 2|zeta|]: above
    # it on the plus side, below it on the minus side; as many at some
    # momentum as the families `edges` says exist on that side
    rng = np.random.default_rng(7)
    ks = np.linspace(0.0, math.pi, 513)
    seen = set()
    for N in (3, 4, 6, 12, 40):
        for t1, t2, t3 in _draws(rng, 6):
            report = _edges(["edges", "--model", model, "--N", str(N),
                             "--t1", repr(t1), "--t2", repr(t2),
                             "--t3", repr(t3)])["existence"]
            families = [report] if "plus" in report else list(
                report.values())
            if any(abs(fam[side]["threshold"] / fam[side]["bound"] - 1.0)
                   < 0.02 for fam in families for side in ("plus", "minus")):
                continue
            h = TriangleHoppings(t1, t2, t3)
            energies = _stacked_eigvalsh(
                lambda k: build_triangle_bloch(h, N, k, edge=_EDGE[model]),
                ks)
            tau = 2.0 * t3 * np.cos(ks)[:, None]
            reach = 2.0 * np.abs(t1 + t2 * np.exp(-1j * ks))[:, None]
            tol = 1e-11 * np.maximum(1.0, np.abs(energies).max())
            beyond = {"plus": energies > tau + reach + tol,
                      "minus": energies < tau - reach - tol}
            for side, outside in beyond.items():
                count = sum(fam[side]["exists"] for fam in families)
                assert outside.sum(axis=1).max() == count, (
                    model, N, t1, t2, t3, side)
                seen.add((side, count))
    # edge states present and absent on both sides
    assert {(side, count) for side in ("plus", "minus")
            for count in (0, 1)} <= seen


def test_edge_regime_matches_the_bloch_spectrum():
    # square-zigzag edge states lie below the bulk band of the reduced
    # energy, |E/tr| < |1 - |xi||: at no momentum (never-emerge), at every
    # momentum (always-edge), or at some (edge-bulk-transition)
    rng = np.random.default_rng(8)
    ks = np.linspace(0.0, math.pi / 2, 129)
    seen = set()
    for N in (3, 4, 6, 12, 40):
        for tu, td, tr in _draws(rng, 5):
            report = _edges(["edges", "--model", "square-zigzag", "--N",
                             str(N), "--tu", repr(tu), "--td", repr(td),
                             "--tr", repr(tr)])
            critical = report["critical"]["xi"]
            if any(abs(xi / critical - 1.0) < 0.02
                   for xi in report["xi_range"]):
                continue
            h = SquareHoppings(tu=tu, td=td, tr=tr, tl=0.0)
            omega = np.abs(_stacked_eigvalsh(
                lambda k: build_square_bloch(h, N, k), ks)) / tr
            gap = np.abs(1.0 - np.abs(tu + td * np.exp(2j * ks)) / tr)
            edge = (omega < gap[:, None] - 1e-9).any(axis=1)
            expected = ("always-edge" if edge.all() else
                        "edge-bulk-transition" if edge.any() else
                        "never-emerge")
            assert report["verdict"] == expected, (N, tu, td, tr)
            seen.add(expected)
    assert len(seen) == 3
