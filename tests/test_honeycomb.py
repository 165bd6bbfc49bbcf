"""Graphene ribbons built from site coordinates alone against the square
ribbon's closed forms.

For special hoppings the square ribbon is a honeycomb ribbon: the zigzag
ribbon of N chains is `square-zigzag` with tl = 0, its two chain bonds
tu, td and its rung tr, and the armchair ribbon of N dimer lines is the
square ribbon with td = 0, its bond along the ribbon tu and its two tilted
bonds tl, tr (`square-lr` when they are equal).  A Bloch phase q per
honeycomb period is the square ribbon's momentum k = q/2.  The builder here
knows nothing of those models: it joins every two sites closer than a
cutoff, with an amplitude set by the bond's direction.
"""

import math

import numpy as np
import pytest

from chebribbon.cli import run

WIDTHS = (1, 2, 6, 40, 200)
SQRT3 = math.sqrt(3.0)


def _honeycomb_hops(sites, period, amplitude, cutoff=1.01):
    """{m: the hopping matrix from cell m} of the ribbon with one cell of
    `sites` (an (n, 2) array of coordinates) repeated along the period
    vector: the entry (i, j) of matrix m joins site i to site j of cell m
    when they lie within `cutoff`, with the amplitude that the dict
    `amplitude` gives the bond's direction (whole degrees modulo 180)."""
    hops = {}
    for m in (-1, 0, 1):
        bond = sites[:, None, :] - sites[None, :, :] - m * np.asarray(period)
        length = np.hypot(bond[..., 0], bond[..., 1])
        close = (length > 0.0) & (length < cutoff)
        angle = np.rint(np.degrees(np.arctan2(bond[..., 1], bond[..., 0])))
        hops[m] = np.zeros(length.shape)
        hops[m][close] = [amplitude[int(a) % 180]
                          for a in angle[close].tolist()]
    return hops


def _honeycomb_bloch(hops, q):
    """The Bloch matrix at phase q: sum over m of hops[m] e^{i q m}."""
    return sum(t * np.exp(1.0j * q * m) for m, t in hops.items())


def _zigzag_ribbon(N):
    """Unit bonds, period sqrt 3 along x: chain n holds a site at height
    1.5 n and one half a bond higher, each chain shifted half a period
    from the last, so that a vertical rung joins each chain to the next."""
    half = SQRT3 / 2.0
    sites = []
    for n in range(N):
        x = (n % 2) * half
        sites += [(x, 1.5 * n), ((x + half) % SQRT3, 1.5 * n + 0.5)]
    return np.array(sites), (SQRT3, 0.0)


def _armchair_ribbon(N):
    """Unit bonds, period 3 along x: dimer line j at height j sqrt(3)/2
    holds a bond along x, at x = 0, 1 or 1.5, 2.5 on alternate lines."""
    sites = []
    for j in range(N):
        sites += [(x, j * SQRT3 / 2.0)
                  for x in ((0.0, 1.0) if j % 2 == 0 else (1.5, 2.5))]
    return np.array(sites), (3.0, 0.0)


def _bands(capsys, model, N, hoppings, k_points):
    """{k: its rows [energy, class, source]} of each momentum `bands`
    prints."""
    flags = [f"--{name}={value!r}" for name, value in hoppings.items()]
    assert run(["bands", "--model", model, "--N", str(N), *flags,
                "--k-points", str(k_points)]) == 0
    rows = [line.split(",")
            for line in capsys.readouterr().out.splitlines()[1:]]
    out = {}
    for row in rows:
        out.setdefault(float(row[0]), []).append(
            [float(row[2]), row[3], row[6]])
    return out


# bond direction (degrees) -> amplitude, and the square ribbon it is
CASES = {
    "zigzag-isotropic": (_zigzag_ribbon, {30: 1.0, 150: 1.0, 90: 1.0},
                         "square-zigzag",
                         {"tu": 1.0, "td": 1.0, "tr": 1.0, "tl": 0.0}),
    "zigzag-anisotropic": (_zigzag_ribbon, {30: 0.7, 150: 1.3, 90: 0.4},
                           "square-zigzag",
                           {"tu": 0.7, "td": 1.3, "tr": 0.4, "tl": 0.0}),
    "armchair-isotropic": (_armchair_ribbon, {0: 1.0, 60: 1.0, 120: 1.0},
                           "square-lr",
                           {"tu": 1.0, "td": 0.0, "tl": 1.0, "tr": 1.0}),
    "armchair-anisotropic": (_armchair_ribbon, {0: 0.8, 60: 1.6, 120: 0.5},
                             "square-general",
                             {"tu": 0.8, "td": 0.0, "tl": 1.6, "tr": 0.5}),
}


@pytest.mark.parametrize("N", WIDTHS)
@pytest.mark.parametrize("case", list(CASES))
def test_honeycomb_ribbon_is_the_square_ribbon_at_half_the_phase(
        capsys, case, N):
    ribbon, amplitude, model, hoppings = CASES[case]
    sites, period = ribbon(N)
    assert len(sites) == 2 * N
    hops = _honeycomb_hops(sites, period, amplitude)
    bands = _bands(capsys, model, N, hoppings, 16)
    assert len(bands) == 16
    for k, rows in bands.items():
        energies = np.array([row[0] for row in rows])
        expected = np.linalg.eigvalsh(_honeycomb_bloch(hops, 2.0 * k))
        assert np.all(np.abs(energies - expected)
                      <= 1e-12 * np.maximum(1.0, np.abs(expected))), k


@pytest.mark.parametrize("N", WIDTHS)
def test_zigzag_edge_rows_where_the_chain_coupling_is_weak(capsys, N):
    # graphene's zigzag edge band: an edge pair at a momentum exactly where
    # the chain coupling 2|cos k| is below N/(N+1), each row analytic
    bands = _bands(capsys, "square-zigzag", N,
                   {"tu": 1.0, "td": 1.0, "tr": 1.0}, 64)
    with_edges = 0
    for k, rows in bands.items():
        edge = [label for _, label, _ in rows if label.startswith("edge")]
        expected = 2.0 * abs(math.cos(k)) < N / (N + 1.0)
        assert edge == (["edge-both"] * 2 if expected else []), k
        assert {source for _, _, source in rows} == {"analytic"}
        with_edges += expected
    assert 0 < with_edges < len(bands)
