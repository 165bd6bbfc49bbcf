"""Property tests of `bands` and `validate`: any model, hoppings and width
either exits 2 with one line, or `bands` gives finite rows that match the
dense oracle, with the closed-form rows of k and -k equal, and `validate`
passes."""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chebribbon.cli import run
from chebribbon.hamiltonian import (ModelKind, SquareHoppings, TriangleEdge,
                                    TriangleHoppings, build_square_bloch,
                                    build_triangle_bloch)

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


@st.composite
def _commands(draw, command="bands", widths=st.integers(1, 40),
              k_points=st.integers(1, 16)):
    model = draw(st.sampled_from([kind.value for kind in ModelKind]))
    first, second = draw(_pair())
    third = draw(_hopping)
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
    if model.startswith("square"):
        bloch = build_square_bloch(SquareHoppings(**flags), N, k)
    else:
        bloch = build_triangle_bloch(TriangleHoppings(**flags), N, k,
                                     edge=_EDGE[model])
    return np.linalg.eigvalsh(bloch.entries)


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


@settings(max_examples=150, deadline=None)
@given(_commands())
def test_bands_exits_2_or_matches_the_oracle(command):
    argv, model, flags, N, k_points = command
    code, out = _run(argv)
    if code == 2:
        return
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
        expected = _oracle(model, flags, N, k)
        assert np.all(np.abs(energies - expected)
                      <= 1e-9 * np.maximum(1.0, np.abs(expected)))
    # the grid is antisymmetric, and the closed form gives -k the energies,
    # classes, decays and IPRs of k bit for bit
    groups = [rows[start:start + dim] for start in range(0, len(rows), dim)]
    for group, mirror in zip(groups, groups[::-1]):
        assert float(group[0][0]) == -float(mirror[0][0])
        assert [r[6] for r in group] == [r[6] for r in mirror]
        if group[0][6] == "analytic":
            assert [r[2:6] for r in group] == [r[2:6] for r in mirror]


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
