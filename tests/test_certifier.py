"""Symbolic certificates: parity tests, cube-ratio evidence, moment conditions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from abelcenter import (
    AbelProblem,
    Basis,
    Certificate,
    Parity,
    TrigPoly,
    ValidationError,
    Verdict,
    abel_from_planar,
    classify_abel,
    classify_planar,
    moment_conditions,
    poly_problem,
    wronskian_cube_ratio,
)
from conftest import make_zero_radial, parity_corpus


# ----------------------------------------------------------------------
# planar classification


def test_cubic_center_certificate(cubic_system):
    cert = classify_planar(cubic_system)
    assert cert.verdict is Verdict.CERTIFIED_CENTER
    assert cert.basis is Basis.PLANAR_PARITY
    assert cert.evidence["parity_P"] == "odd"
    assert cert.evidence["parity_Q"] == "even"
    assert cert.evidence["parity_f"] == "odd"
    assert cert.evidence["parity_g"] == "odd"
    assert cert.evidence["mean_A"] == "0"
    assert cert.evidence["cube_ratio"] == "2/9"


def test_focus_certificate(focus_system):
    cert = classify_planar(focus_system)
    assert cert.verdict is Verdict.CERTIFIED_FOCUS
    assert cert.basis is Basis.NONZERO_MEAN
    assert cert.evidence["mean_A"] == "3/8"


def test_rotation_certified_by_zero_parity(rotation_system):
    cert = classify_planar(rotation_system)
    assert cert.verdict is Verdict.CERTIFIED_CENTER
    assert cert.basis is Basis.PLANAR_PARITY
    assert "note" in cert.evidence


def test_odd_multiplier_zero_radial_systems_abstain(zero_radial_odd_family):
    """p in {y, x^2 y, y^3}: circles everywhere, yet the parity test does
    not apply (P lands even, Q odd on the circle) and the mean of A is 0,
    so the symbolic layer honestly abstains."""
    for system in zero_radial_odd_family:
        cert = classify_planar(system)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.basis is Basis.NONE
        assert cert.evidence["mean_A"] == "0"


@pytest.mark.parametrize("p_degree,y_power", [(1, 0), (3, 0), (3, 2)])
def test_even_multiplier_zero_radial_systems_certify(p_degree, y_power):
    """p in {x, x^3, x y^2}: here P = y p is odd and Q = -x p is even on
    the circle, so the same geometric family is caught by the parity
    test.  Together with the odd-p family this shows the test is
    sufficient but not necessary."""
    cert = classify_planar(make_zero_radial(p_degree, y_power))
    assert cert.verdict is Verdict.CERTIFIED_CENTER
    assert cert.basis is Basis.PLANAR_PARITY


def test_parity_corpus_certifies():
    for system in parity_corpus(30):
        cert = classify_planar(system)
        assert cert.verdict is Verdict.CERTIFIED_CENTER
        assert cert.basis is Basis.PLANAR_PARITY


def test_planar_and_scalar_certificates_agree_on_corpus():
    for system in parity_corpus(12):
        planar = classify_planar(system)
        scalar = classify_abel(abel_from_planar(system))
        assert planar.verdict is scalar.verdict is Verdict.CERTIFIED_CENTER


# ----------------------------------------------------------------------
# scalar classification


def test_cubic_reduction_classified_by_odd_coefficients(cubic_problem):
    cert = classify_abel(cubic_problem)
    assert cert.verdict is Verdict.CERTIFIED_CENTER
    assert cert.basis is Basis.ODD_COEFFICIENTS
    assert cert.evidence["parity_source_f"] == "exact"
    assert cert.evidence["parity_source_g"] == "exact"
    assert cert.evidence["cube_ratio"] == "2/9"
    assert cert.evidence["mean_A"] == "0"


def test_declared_odd_polynomials_certify(tt_problem):
    cert = classify_abel(tt_problem)
    assert cert.verdict is Verdict.CERTIFIED_CENTER
    assert cert.basis is Basis.ODD_COEFFICIENTS
    assert cert.evidence["parity_source_f"] == "declared"
    assert cert.evidence["parity_f"] == "odd"


def test_even_coefficients_are_inconclusive(cos2pit_even_problem):
    cert = classify_abel(cos2pit_even_problem)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.basis is Basis.NONE
    assert cert.evidence["parity_f"] == "even"
    assert cert.evidence["parity_g"] == "even"


def test_zero_coefficients_certify_with_note():
    cert = classify_abel(AbelProblem(f=TrigPoly.zero(), g=TrigPoly.zero()))
    assert cert.verdict is Verdict.CERTIFIED_CENTER
    assert "note" in cert.evidence


def test_undeclared_callables_are_inconclusive():
    problem = AbelProblem(f=lambda t: t, g=lambda t: t, half_width=1.0)
    cert = classify_abel(problem)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.evidence["parity_f"] == "undeclared"
    assert cert.evidence["parity_source_f"] == "undeclared"


def test_false_parity_declaration_is_rejected():
    problem = AbelProblem(
        f=lambda t: t + 0.5,
        g=lambda t: t,
        half_width=1.0,
        f_parity=Parity.ODD,
        g_parity=Parity.ODD,
    )
    with pytest.raises(ValidationError, match="parity"):
        classify_abel(problem)


def test_true_parity_declaration_survives_spot_check():
    problem = AbelProblem(
        f=lambda t: math.sin(t) ** 3,
        g=lambda t: math.sin(2 * t),
        half_width=math.pi,
        f_parity=Parity.ODD,
        g_parity=Parity.ODD,
    )
    cert = classify_abel(problem)
    assert cert.verdict is Verdict.CERTIFIED_CENTER


def test_spot_check_evaluates_vectorised_coefficients_in_bulk():
    calls = {"f": 0, "g": 0}

    def counted(label, fn):
        def coef(t):
            calls[label] += 1
            return fn(t)

        return coef

    problem = AbelProblem(
        f=counted("f", lambda t: np.sin(t) ** 3),
        g=counted("g", lambda t: np.sin(2 * t)),
        f_parity=Parity.ODD,
        g_parity=Parity.ODD,
    )
    assert classify_abel(problem).verdict is Verdict.CERTIFIED_CENTER
    assert 1 <= calls["f"] <= 2 and 1 <= calls["g"] <= 2


# ----------------------------------------------------------------------
# certificate container


def test_certificate_serialization(cubic_system):
    data = classify_planar(cubic_system).to_json_dict()
    assert data["verdict"] == "certified_center"
    assert data["basis"] == "planar_parity"
    assert list(data["evidence"]) == sorted(data["evidence"])


def test_certificate_invariants():
    with pytest.raises(ValidationError):
        Certificate(Verdict.CERTIFIED_CENTER, Basis.NONZERO_MEAN, {})
    with pytest.raises(ValidationError):
        Certificate(Verdict.CERTIFIED_FOCUS, Basis.PLANAR_PARITY, {})
    with pytest.raises(ValidationError):
        Certificate(Verdict.INCONCLUSIVE, Basis.ODD_COEFFICIENTS, {})


# ----------------------------------------------------------------------
# cube-ratio evidence


def test_cube_ratio_of_cubic_reduction(cubic_problem):
    assert wronskian_cube_ratio(cubic_problem.f, cubic_problem.g) == Fraction(2, 9)


def _planted_pair(a: Fraction, c: Fraction):
    """Return (f, g) with f'g - f g' = a * g^3 by construction.

    For g with an exact antiderivative G, setting f = g (a G + c) gives
    (f/g)' = a g, and multiplying through by g^2 plants the ratio a.
    """
    g = TrigPoly.sine(2) + TrigPoly.sine(4, Fraction(1, 2))
    G = TrigPoly.cosine(2, Fraction(-1, 2)) + TrigPoly.cosine(4, Fraction(-1, 8))
    f = g * (G * a + TrigPoly.constant(c))
    return f, g


@pytest.mark.parametrize(
    "a,c",
    [
        (Fraction(3, 7), Fraction(1, 2)),
        (Fraction(-5, 2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    ],
)
def test_cube_ratio_recovers_planted_value(a, c):
    f, g = _planted_pair(a, c)
    assert wronskian_cube_ratio(f, g) == a


def test_cube_ratio_scales_linearly_in_f():
    f, g = _planted_pair(Fraction(3, 7), Fraction(1, 2))
    assert wronskian_cube_ratio(f * Fraction(2, 5), g) == Fraction(6, 35)


def test_proportional_coefficients_give_zero_ratio():
    g = TrigPoly.sine(2, Fraction(3, 2))
    assert wronskian_cube_ratio(g * Fraction(7, 3), g) == Fraction(0)


def test_cube_ratio_requires_exact_coefficients():
    with pytest.raises(ValidationError):
        wronskian_cube_ratio(lambda t: t, TrigPoly.sine(1))


# ----------------------------------------------------------------------
# moment conditions


@pytest.mark.filterwarnings("ignore:initial value")
def test_cubic_moments_vanish(cubic_problem, config):
    report = moment_conditions(cubic_problem, [0.01, 0.02, 0.05], config)
    assert report.mean_g_zero
    assert report.g_integral == 0.0
    assert report.g_integral_exact
    assert report.max_f_moment < 1e-8


def test_constant_g_fails_mean_condition():
    report = moment_conditions(poly_problem([], [2.0]), [0.01])
    assert not report.mean_g_zero
    assert report.g_integral == pytest.approx(4.0, abs=1e-9)
    assert not report.g_integral_exact


def test_zero_problem_moments_vanish_identically():
    report = moment_conditions(poly_problem([], []), [0.01, 0.1])
    assert report.mean_g_zero
    assert report.max_f_moment == 0.0


def test_moment_grid_must_be_nonempty(cubic_problem):
    with pytest.raises(ValidationError):
        moment_conditions(cubic_problem, [])


def test_moment_report_tracks_grid(cubic_problem, config):
    report = moment_conditions(cubic_problem, [0.01, 0.02], config)
    assert report.rhos.shape == (2,)
    assert report.f_moments.shape == (2,)
    assert report.max_f_moment == np.max(np.abs(report.f_moments))
