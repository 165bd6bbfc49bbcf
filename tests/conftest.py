"""Shared fixtures, the momentum-grid helper, and the acceptance summary.

The hooks below collect the outcome of every test in test_acceptance.py and
print one PASS/FAIL line per criterion after the run, so the gate can be
read off the terminal without scrolling through the full report.
"""

import re

import numpy as np
import pytest
from hypothesis import settings

# the same examples on every run, and no replay of earlier failures from a
# local example database, so that a run depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_ACCEPTANCE_ID = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_descriptions = {}
_outcomes = {}


@pytest.fixture
def rng():
    """Deterministic generator so failures reproduce bit-for-bit."""
    return np.random.default_rng(20260816)


def edge_envelope(u, N, ends, family="A"):
    """The envelope, n = 1..N, of the edge family "A" or "B" of the zigzag
    ribbon with `ends` truncated end rows, at the decay u (a row per decay
    of an array u)."""
    from chebribbon.chebpoly import zigzag_ends
    return {f.name: f for f in zigzag_ends(ends, N)[1]}[family].envelope(u)


def midpoint_grid(halfwidth, points):
    """Half-open midpoint momentum grid covering [-halfwidth, halfwidth)."""
    step = 2.0 * halfwidth / points
    return -halfwidth + step * (np.arange(points) + 0.5)


def pytest_collection_modifyitems(items):
    for item in items:
        if _ACCEPTANCE_ID.search(item.nodeid):
            doc = (item.function.__doc__ or "").strip().splitlines()
            _descriptions[item.nodeid] = doc[0] if doc else item.name


def pytest_runtest_logreport(report):
    match = _ACCEPTANCE_ID.search(report.nodeid)
    if match is None:
        return
    if report.when == "call" or (report.when == "setup"
                                 and report.outcome != "passed"):
        _outcomes[int(match.group(1))] = (
            report.outcome, _descriptions.get(report.nodeid, ""))


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        outcome, description = _outcomes[num]
        word = {"passed": "PASS", "failed": "FAIL"}.get(outcome,
                                                        outcome.upper())
        terminalreporter.write_line(
            f"criterion {num:02d}: {word} - {description}")
