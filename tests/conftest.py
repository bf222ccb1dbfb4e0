"""Shared fixtures: benchmark systems, corpus builders, reporting hooks.

The acceptance tests in ``test_acceptance.py`` are grouped by criterion
number (``test_c1*`` .. ``test_c9*``); a terminal-summary hook collects
their outcomes and prints one PASS/FAIL line per criterion at the end of
the run.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from abelcenter import (
    HomogPoly,
    PlanarSystem,
    SolverConfig,
    abel_from_planar,
    cos2pit_problem,
    poly_problem,
)

# the corpus generators of scripts/run_center_corpus.py are the ones this suite uses
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
from run_center_corpus import make_system as make_parity_system  # noqa: E402
from run_center_corpus import quadratic_subclass  # noqa: E402, F401

settings.register_profile(
    "ci", derandomize=True, max_examples=60, deadline=None
)
settings.load_profile("ci")


# ----------------------------------------------------------------------
# benchmark systems


@pytest.fixture(scope="session")
def config():
    return SolverConfig()


@pytest.fixture(scope="session")
def cubic_system():
    """P = 2 x^2 y, Q = x y^2: odd/even circle parities, zero-mean radial part."""
    return PlanarSystem(
        n=3,
        P=HomogPoly.monomial(3, 1, 2),
        Q=HomogPoly.monomial(3, 2, 1),
    )


@pytest.fixture(scope="session")
def cubic_problem(cubic_system):
    return abel_from_planar(cubic_system)


@pytest.fixture(scope="session")
def focus_system():
    """P = x^3, Q = 0: the radial part has mean 3/8, so the origin repels."""
    return PlanarSystem(n=3, P=HomogPoly.monomial(3, 0, 1), Q=HomogPoly.zero(3))


@pytest.fixture(scope="session")
def focus_problem(focus_system):
    return abel_from_planar(focus_system)


@pytest.fixture(scope="session")
def rotation_system():
    """P = Q = 0: plain rotation, every orbit is a circle."""
    return PlanarSystem(n=2, P=HomogPoly.zero(2), Q=HomogPoly.zero(2))


def make_zero_radial(p_degree: int, y_power: int, c=1) -> PlanarSystem:
    """System P = y * p, Q = -x * p for the monomial p = c x^i y^j.

    The radial circle function of such a system vanishes identically, so
    every orbit in the monotone region is a circle regardless of p.
    """
    n = p_degree + 1
    return PlanarSystem(
        n=n,
        P=HomogPoly.monomial(n, y_power + 1, c),
        Q=HomogPoly.monomial(n, y_power, -c),
    )


@pytest.fixture(scope="session")
def zero_radial():
    return make_zero_radial


@pytest.fixture(scope="session")
def zero_radial_odd_family():
    """The p in {y, x^2 y, y^3} instances: odd p, hence A = 0 and even g."""
    return [
        make_zero_radial(1, 1),  # p = y
        make_zero_radial(3, 1),  # p = x^2 y
        make_zero_radial(3, 3),  # p = y^3
    ]


@pytest.fixture(scope="session")
def t_problem():
    """f = 0, g = t on [-1, 1]; x(t) = rho / (1 - rho (t^2 - 1)/2) exactly."""
    return poly_problem([], [0, 1])


@pytest.fixture(scope="session")
def tt_problem():
    """f = g = t on [-1, 1]: both coefficients odd."""
    return poly_problem([0, 1], [0, 1])


@pytest.fixture(scope="session")
def cos2pit_even_problem():
    """f = g = cos(2 pi t) on [-1/2, 1/2]: both coefficients even."""
    return cos2pit_problem([0, 1], [0, 1])


# ----------------------------------------------------------------------
# random corpora (deterministic seeds)


def parity_corpus(count: int, seed: int = 20250817) -> list[PlanarSystem]:
    rng = np.random.default_rng(seed)
    return [make_parity_system(rng) for _ in range(count)]


def random_trigpoly(rng: np.random.Generator, max_degree: int = 3, scale: int = 4):
    """Random exact trig polynomial with small rational coefficients."""
    from abelcenter import TrigPoly

    deg = int(rng.integers(0, max_degree + 1))
    cos = tuple(
        Fraction(int(rng.integers(-scale, scale + 1)), int(rng.integers(1, 5)))
        for _ in range(deg + 1)
    )
    sin = (Fraction(0),) + tuple(
        Fraction(int(rng.integers(-scale, scale + 1)), int(rng.integers(1, 5)))
        for _ in range(deg)
    )
    return TrigPoly(cos, sin)


# ----------------------------------------------------------------------
# acceptance summary


_ACCEPTANCE: dict[int, list[tuple[str, str]]] = {}

_CRITERIA = {
    1: "exact reduction identities for the cubic benchmark",
    2: "zero-radial family: vanishing radial part, honest abstention",
    3: "parity corpus: certificates backed by center-grade scans",
    4: "even-coefficient problem: abstention with center-grade scan",
    5: "focus detection: nonzero mean and quadratic displacement growth",
    6: "operator sup and Lipschitz ceilings on random problems",
    7: "fixed-point route agrees with the Runge-Kutta route",
    8: "closed solutions are even; an asymmetric tweak is detected",
    9: "transform-chain crosscheck and coordinate agreement",
}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_c(\d+)", report.nodeid)
    if m:
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE.setdefault(int(m.group(1)), []).append((name, report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(_CRITERIA):
        parts = _ACCEPTANCE.get(k)
        if not parts:
            continue
        passed = sum(1 for _, outcome in parts if outcome == "passed")
        ok = passed == len(parts)
        status = "PASS" if ok else "FAIL"
        detail = f" ({passed}/{len(parts)} checks)" if len(parts) > 1 else ""
        terminalreporter.write_line(
            f"criterion {k}: {status}{detail} - {_CRITERIA[k]}"
        )
