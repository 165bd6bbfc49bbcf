"""Seeded workload generators: each returns the argv lists of one pass.

The program sees only these argv lists.  The same seed gives an identical
list; the seed varies hoppings, momenta, band picks and command order, while
the (subcommand, model, N, k-points) cells of a pass are fixed, so the work
in a pass barely depends on the seed.  No command
passes ``--jobs``: the benchmark measures one process with one thread.
"""

from __future__ import annotations

import math
import random

MODELS = ("square-zigzag", "square-lr", "square-general", "triangle-linear",
          "triangle-zigzag1", "triangle-zigzag2")
EDGE_MODELS = ("square-zigzag", "triangle-zigzag1", "triangle-zigzag2")
HOP_RANGE = (0.1, 2.0)


def _num(x):
    return f"{x:.4f}"


def _jitter(rng, centre, rel):
    return centre * (1.0 + rng.uniform(-rel, rel))


def _random_hoppings(rng, model):
    """Positive hoppings drawn uniformly from HOP_RANGE, with the model's
    constraints (square-zigzag tl = 0, square-lr tl = tr)."""
    return _stratified_hoppings(rng, model, 1)[0]


def _stratified(rng, count):
    """``count`` uniform draws from HOP_RANGE, one in each of ``count``
    equal strata, in random order (a Latin hypercube column)."""
    lo, hi = HOP_RANGE
    width = (hi - lo) / count
    values = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(values)
    return values


def _stratified_hoppings(rng, model, count):
    """Hopping flags for ``count`` commands on ``model``: each hopping is
    stratified over the commands, so every seed covers the whole range
    evenly and the mix of regimes, and with it the work, barely varies."""
    if model.startswith("triangle"):
        t1, t2, t3 = (_stratified(rng, count) for _ in range(3))
        return [["--t1", _num(a), "--t2", _num(b), "--t3", _num(c)]
                for a, b, c in zip(t1, t2, t3)]
    tu, td, tr, tl = (_stratified(rng, count) for _ in range(4))
    out = []
    for u, d, r, left in zip(tu, td, tr, tl):
        left = {"square-zigzag": 0.0, "square-lr": r}.get(model, left)
        out.append(["--tu", _num(u), "--td", _num(d), "--tr", _num(r),
                    "--tl", _num(left)])
    return out


def _zero_mode_hoppings(rng, N, isotropic=False):
    """Square hoppings that host exact zero modes at k = 0, and their j:
    tu = td with tu + td = 2 sqrt(tr tl) cos(pi j/(N+1)), j <= N/2."""
    j = rng.randint(1, max(1, N // 2))
    tr = rng.uniform(*HOP_RANGE)
    tl = tr if isotropic else rng.uniform(*HOP_RANGE)
    half = math.sqrt(tr * tl) * math.cos(math.pi * j / (N + 1))
    return ["--tu", repr(half), "--td", repr(half), "--tr", repr(tr),
            "--tl", repr(tl)], j


def wide_scan(rng):
    """Large-N band scans in the edge-branch regimes: triangle zigzag with
    t1=0.9, t2=0.1, t3=1 and square zigzag with tu=1, td=0.6 (edge<->bulk
    transition), each jittered by at most 2%."""
    def tri():
        return ["--t1", _num(_jitter(rng, 0.9, 0.02)),
                "--t2", _num(_jitter(rng, 0.1, 0.02)),
                "--t3", _num(_jitter(rng, 1.0, 0.02))]
    cmds = [
        ["bands", "--model", "triangle-zigzag1", "--N", "200", *tri(),
         "--k-points", "8"],
        ["bands", "--model", "triangle-zigzag2", "--N", "200", *tri(),
         "--k-points", "8"],
        ["bands", "--model", "square-zigzag", "--N", "200", "--tu", "1",
         "--td", _num(_jitter(rng, 0.6, 0.02)), "--tr", "1",
         "--k-points", "8"],
        ["bands", "--model", "triangle-zigzag1", "--N", "1000", *tri(),
         "--k-points", "2"],
    ]
    rng.shuffle(cmds)
    return cmds


def narrow_mix(rng):
    """104 short commands over all six models at N = 2..12: 78 ``bands`` at
    128 k-points (every model at every N, plus N = 6 and 10 again), then
    6 ``edges``, 8 single-model ``validate`` at 32 k-points (triangular
    models at N >= 4 only, see KNOWN_DEFECTS), 4 ``zeromodes`` and 8
    ``wavefunction``, shuffled."""
    cmds = []
    widths = list(range(2, 13)) + [6, 10]
    for model in MODELS:
        hops = _stratified_hoppings(rng, model, len(widths))
        for N, hop in zip(widths, hops):
            cmds.append(["bands", "--model", model, "--N", str(N), *hop,
                         "--k-points", "128"])
    for model in EDGE_MODELS:
        for N in (4, 10):
            hop = _random_hoppings(rng, model)
            cmds.append(["edges", "--model", model, "--N", str(N), *hop])
    for model, N in (("square-zigzag", 2), ("square-zigzag", 9),
                     ("square-lr", 8), ("square-general", 6),
                     ("triangle-linear", 4), ("triangle-zigzag1", 6),
                     ("triangle-zigzag1", 11), ("triangle-zigzag2", 5)):
        if model == "square-general":
            hop, _ = _zero_mode_hoppings(rng, N)
        else:
            hop = _random_hoppings(rng, model)
        cmds.append(["validate", "--model", model, "--N", str(N), *hop,
                     "--k-points", "32"])
    for model, N in (("square-general", 5), ("square-general", 9),
                     ("square-lr", 7), ("square-lr", 12)):
        hop, j = _zero_mode_hoppings(rng, N, isotropic=model == "square-lr")
        cmds.append(["zeromodes", "--model", model, "--N", str(N), *hop,
                     "--j", str(j)])
    for model, N in zip(MODELS, (4, 7, 10, 5, 8, 11)):
        cmds.append(["wavefunction", "--model", model, "--N", str(N),
                     *_random_hoppings(rng, model),
                     "--band", str(rng.randint(1, 2 * N if model.startswith(
                         "square") else N)),
                     "--k", _num(rng.uniform(-math.pi / 2, math.pi / 2))])
    for N in (6, 12):
        cmds.append(["wavefunction", "--model", "square-zigzag", "--N",
                     str(N), *_random_hoppings(rng, "square-zigzag"),
                     "--u", _num(rng.uniform(0.05, 3.0))])
    rng.shuffle(cmds)
    return cmds


GENERATORS = {"wide-scan": wide_scan, "narrow-mix": narrow_mix}

# Commands that fail on the current program whatever the hoppings, so the
# workloads, whose operations must all succeed, leave them out.  Every run
# of the workload still executes them once, untimed and not counted in
# ``attempted``, and lists whether each still fails; a fixed one moves back
# into the workload.  Here: ``validate`` on triangular models at N < 4 ends
# in a ValueError from ``classify_numeric``.
KNOWN_DEFECTS = {"narrow-mix": [
    ["validate", "--model", "triangle-linear", "--N", "3", "--t1", "1.2",
     "--t2", "0.7", "--t3", "0.9", "--k-points", "32"],
    ["validate", "--model", "triangle-zigzag2", "--N", "2", "--t1", "0.9",
     "--t2", "0.1", "--t3", "1.0", "--k-points", "32"],
]}


def generate(workload, seed):
    """The argv lists of one pass of ``workload`` for ``seed``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
