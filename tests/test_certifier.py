"""Symbolic certificates: parity tests, cube-ratio evidence, moment conditions."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcenter import (
    AbelProblem,
    Basis,
    Certificate,
    HomogPoly,
    Parity,
    PlanarSystem,
    SolverConfig,
    TrigPoly,
    ValidationError,
    Verdict,
    abel_from_planar,
    classify_abel,
    classify_planar,
    cos2pit_problem,
    integrate_abel,
    moment_conditions,
    poly_problem,
    proportional_to_cube,
    wronskian_cube_ratio,
)
from abelcenter import certifier, reduction
from conftest import make_zero_radial, parity_corpus, quadratic_subclass


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


# the cubic P = -x^3 - 2x^2 y + 3xy^2, Q = -3x^2 y + 2xy^2 + y^3: no circle parity, f and g odd
ODD_CUBIC = PlanarSystem(3, HomogPoly((-1, -2, 3, 0)), HomogPoly((0, -3, 2, 1)))
QUADRATIC_SUBCLASS = [quadratic_subclass(p, q) for p in range(-2, 3)
                      for q in (-3, -2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2, 3)]


def test_planar_and_scalar_certificates_agree_on_corpus():
    """The planar chain runs the scalar tests on its own reduction, so the two
    certificates agree, on the paper's subclass of planar centers too."""
    for system in [*parity_corpus(12), *QUADRATIC_SUBCLASS, ODD_CUBIC]:
        planar = classify_planar(system)
        scalar = classify_abel(abel_from_planar(system))
        assert planar.verdict is scalar.verdict is Verdict.CERTIFIED_CENTER
        for key in ("parity_f", "parity_g", "cube_ratio", "mean_A"):
            assert planar.evidence[key] == scalar.evidence[key], key


def test_quadratic_subclass_certificate():
    """P = x^2/2 - 2xy - y^2/2, Q = xy: only the odd-coefficient test holds."""
    cert = classify_planar(quadratic_subclass(-2, 1))
    assert cert.to_json_dict() == {
        "verdict": "certified_center",
        "basis": "odd_coefficients",
        "evidence": {
            "cube_ratio": None,
            "mean_A": "0",
            "parity_P": "neither",
            "parity_Q": "odd",
            "parity_f": "odd",
            "parity_g": "odd",
        },
    }


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


# cos2pit lists are [c0, cos 2pi t, sin 2pi t, cos 4pi t, ...]; poly lists are powers
_FAMILY_PARITIES = [
    (cos2pit_problem, [], Parity.ZERO),
    (cos2pit_problem, [0.0, -0.0, 0, -0.0], Parity.ZERO),
    (cos2pit_problem, [1.5], Parity.EVEN),
    (cos2pit_problem, [0, 2, -0.0, -1], Parity.EVEN),
    (cos2pit_problem, [-0.0, 0, 3], Parity.ODD),
    (cos2pit_problem, [0, -0.0, 0, 0, 1], Parity.ODD),
    (cos2pit_problem, [1, 0, 2], Parity.NEITHER),
    (cos2pit_problem, [0, 1, 0, 0, -1], Parity.NEITHER),
    (poly_problem, [], Parity.ZERO),
    (poly_problem, [-0.0, 0.0, -0.0], Parity.ZERO),
    (poly_problem, [1], Parity.EVEN),
    (poly_problem, [0, -0.0, 2], Parity.EVEN),
    (poly_problem, [-0.0, 1], Parity.ODD),
    (poly_problem, [0, 1, 0, -3], Parity.ODD),
    (poly_problem, [1, 1], Parity.NEITHER),
    (poly_problem, [0, 0, 1, -0.0, 0, 1], Parity.NEITHER),
]


@pytest.mark.parametrize("build,coeffs,parity", _FAMILY_PARITIES)
def test_family_parities_are_read_off_the_coefficients(build, coeffs, parity):
    mixed = [1, 1, 1]  # neither even nor odd in both families
    problem = build(coeffs, mixed)
    assert (problem.f_parity, problem.g_parity) == (parity, Parity.NEITHER)
    problem = build(mixed, coeffs)
    assert (problem.f_parity, problem.g_parity) == (Parity.NEITHER, parity)


def _cos2pit_series(coeffs) -> TrigPoly:
    """[c0, c1, c2, c3, ...] as c0 + c1 cos(s) + c2 sin(s) + c3 cos(2s) + ..."""
    series = TrigPoly.zero()
    for i, v in enumerate(coeffs):
        k, c = (i + 1) // 2, Fraction(float(v))
        series += TrigPoly.sine(k, c) if i and i % 2 == 0 else TrigPoly.cosine(k, c)
    return series


@pytest.mark.parametrize(
    "coeffs", [c for build, c, _ in _FAMILY_PARITIES if build is cos2pit_problem]
)
def test_cos2pit_paths_match_the_exact_series_in_2pi_t(coeffs):
    series = _cos2pit_series(coeffs)
    problem = cos2pit_problem(coeffs, [])
    ts = np.linspace(-0.5, 0.5, 41)
    want = np.array([series.eval(2.0 * math.pi * t) for t in ts])
    tol = 1e-15 * series.linf_bound()
    assert np.max(np.abs(problem.f_values(ts) - want)) <= tol
    f_ev = reduction._scalar_evaluator(problem.f)
    assert max(abs(f_ev(t) - w) for t, w in zip(ts.tolist(), want)) <= tol
    assert problem.f_sup == series.linf_bound()


@pytest.mark.parametrize("build", [cos2pit_problem, poly_problem])
@pytest.mark.parametrize("half_width", ["abc", None, pytest.param(10**400, id="10**400")])
def test_family_half_width_must_be_a_number(build, half_width):
    with pytest.raises(ValidationError, match="half_width"):
        build([0, 1], [0, 1], half_width)


@pytest.mark.parametrize("build", [cos2pit_problem, poly_problem])
@pytest.mark.parametrize(
    "coeffs", ["12", "10", {"1": 2}, 7], ids=["str-12", "str-10", "dict", "int"]
)
def test_family_coefficients_must_be_lists(build, coeffs):
    # iterating a string would silently read "12" as [1, 2]
    with pytest.raises(ValidationError, match="must be a list"):
        build(coeffs, [1])
    with pytest.raises(ValidationError, match="must be a list"):
        build([1], coeffs)


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


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN, Parity.ZERO])
@pytest.mark.parametrize(
    "f",
    [lambda t: np.full_like(t, np.nan), lambda t: np.where(t > 0, np.inf, 0.0)],
    ids=["nan", "one-sided-inf"],
)
def test_non_finite_samples_fail_the_spot_check(parity, f):
    # NaN > 1e-10 is False, so a NaN defect must not read as agreement
    problem = AbelProblem(f=f, g=np.sin, half_width=1.0, f_parity=parity, g_parity=Parity.ODD)
    with pytest.raises(ValidationError, match="fails a sample check"):
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


fracs = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def true_ratio_pairs(draw):
    """(f, g, a) with f'g - fg' = a g^3: g of mean 0 and degree <= 8,
    G = integral of g (periodic), f = (a G + c) g, so (f/g)' = a g."""
    deg = draw(st.integers(1, 8))
    cos = [draw(fracs) for _ in range(deg)]
    sin = [draw(fracs) for _ in range(deg)]
    if not any(cos) and not any(sin):
        sin[-1] = Fraction(1)
    g = TrigPoly((0, *cos), (0, *sin))
    G = TrigPoly(
        (0, *(-b / k for k, b in enumerate(sin, 1))), (0, *(a / k for k, a in enumerate(cos, 1)))
    )
    a, c = draw(fracs), draw(fracs)
    return (G * a + TrigPoly.constant(c)) * g, g, a


@given(true_ratio_pairs())
@settings(max_examples=200)
def test_cube_ratio_screen_never_rejects_a_true_ratio(pair):
    f, g, a = pair
    assert wronskian_cube_ratio(f, g) == a


@pytest.mark.parametrize(
    "f", [TrigPoly.zero(), TrigPoly.sine(3, Fraction(2, 7)), TrigPoly.constant(5)]
)
def test_cube_ratio_with_vanishing_g(f):
    """g = 0 makes f'g - fg' = 0 = g^3 for every f: the ratio 0 by convention."""
    assert wronskian_cube_ratio(f, TrigPoly.zero()) == 0


def test_cube_ratio_of_hamiltonian_system():
    """P = -h_y, Q = h_x: f and g have a cube ratio (mean_A = 0)."""
    h = (Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(5), Fraction(-1, 4))  # degree 4
    P = HomogPoly(tuple(-(j + 1) * h[j + 1] for j in range(4)))
    Q = HomogPoly(tuple((4 - j) * h[j] for j in range(4)))
    problem = abel_from_planar(PlanarSystem(n=3, P=P, Q=Q))
    f, g = problem.f, problem.g
    exact = proportional_to_cube(f.derivative() * g - f * g.derivative(), g)
    assert exact is not None
    assert wronskian_cube_ratio(f, g) == exact


def _screen_corpus(seed: int):
    """Dense, sparse and parity-built systems, n = 2..16, small rationals."""
    rng = random.Random(seed)
    small = (-3, -2, -1, 1, 2, 3)

    def coeff(density):
        if rng.random() >= density:
            return 0
        return Fraction(rng.choice(small), rng.choice((1, 2, 3, 4)))

    for n in range(2, 17):
        for _ in range(7):
            for density in (1.0, 0.25):
                P = HomogPoly(tuple(coeff(density) for _ in range(n + 1)))
                Q = HomogPoly(tuple(coeff(density) for _ in range(n + 1)))
                yield PlanarSystem(n=n, P=P, Q=Q)
            m1, m2 = rng.choice(range(1, n + 1, 2)), rng.choice(range(0, n + 1, 2))
            yield PlanarSystem(
                n=n,
                P=HomogPoly.monomial(n, m1, rng.choice(small)),
                Q=HomogPoly.monomial(n, m2, rng.choice(small)),
            )


def test_cube_ratio_screen_agrees_with_exact_test():
    """The screen never loses a ratio, and on this corpus it lets through
    only the pairs that have one."""
    systems = list(_screen_corpus(1203))
    assert len(systems) >= 300
    found = 0
    for system in systems:
        problem = abel_from_planar(system)
        f, g = problem.f, problem.g
        exact = proportional_to_cube(f.derivative() * g - f * g.derivative(), g)
        assert wronskian_cube_ratio(f, g) == exact, system
        assert certifier._screen_rejects(f, g) == (exact is None), system
        found += exact is not None
    assert 0 < found < len(systems)


# the screen's points (cos t, sin t) = (p/r, q/r), and a factor vanishing at each
_SCREEN_POINTS = ((3, 4, 5), (-5, 12, 13), (8, -15, 17))
_VANISHING_AT = (TrigPoly((-3, 5), (0,)), TrigPoly((5, 13), (0,)), TrigPoly((-8, 17), (0,)))


def _exact_value(p: TrigPoly, c: Fraction, s: Fraction) -> Fraction:
    """p(t) in Fractions where cos t = c and sin t = s."""
    total, ck, sk = Fraction(0), Fraction(1), Fraction(0)
    for a, b in zip(p.cos, p.sin):
        total += a * ck + b * sk
        ck, sk = ck * c - sk * s, sk * c + ck * s
    return total


def _three_pair_screen(f: TrigPoly, g: TrigPoly) -> bool:
    """Reference screen: h = f'g - fg' and g^3 at all three points, then every
    cyclic cross-product h(t_i) g^3(t_j) - h(t_j) g^3(t_i) compared with 0."""
    h = f.derivative() * g - f * g.derivative()
    values = [(_exact_value(h, Fraction(p, r), Fraction(q, r)),
               _exact_value(g, Fraction(p, r), Fraction(q, r)) ** 3)
              for p, q, r in _SCREEN_POINTS]
    pairs = zip(values, values[1:] + values[:1])
    return any(h_i * g3_j != h_j * g3_i for (h_i, g3_i), (h_j, g3_j) in pairs)


@st.composite
def screen_pairs(draw):
    """(f, g) with small integer rows, each times 1 or a factor that vanishes at
    one screen point; f is sometimes a multiple of g, so h vanishes everywhere."""
    rows = st.lists(st.integers(-3, 3), min_size=1, max_size=4)

    def factored():
        p = TrigPoly(draw(rows), [0, *draw(rows)[1:]])
        factor = draw(st.sampled_from((TrigPoly.constant(1), *_VANISHING_AT)))
        return p * factor

    g = factored()
    f = g * draw(fracs) if draw(st.booleans()) else factored()
    return f, g


@given(screen_pairs())
@settings(max_examples=300)
def test_cube_ratio_screen_skips_no_pair(pair):
    """Stopping at the first differing pair rejects exactly what comparing all
    three pairs rejects, also where g or h vanishes at a screen point."""
    f, g = pair
    assert certifier._screen_rejects(f, g) == _three_pair_screen(f, g)


def test_screen_goes_on_past_a_pair_that_vanishes(monkeypatch):
    """5 cos t - 3 vanishes at the first point, so with that factor in f and g both
    h and g^3 are 0 there, the (1, 2) pair agrees, and the screen reads the third point."""
    for factor, (p, q, r) in zip(_VANISHING_AT, _SCREEN_POINTS):
        assert _exact_value(factor, Fraction(p, r), Fraction(q, r)) == 0
    calls = []
    value = certifier._value_and_slope
    monkeypatch.setattr(certifier, "_value_and_slope", lambda *a: calls.append(a) or value(*a))
    f, g = TrigPoly.cosine(2) * _VANISHING_AT[0], TrigPoly.sine(1) * _VANISHING_AT[0]
    assert certifier._screen_rejects(f, g) and _three_pair_screen(f, g)
    assert len(calls) == 6


# ----------------------------------------------------------------------
# moment conditions


@pytest.mark.filterwarnings("ignore:initial value")
def test_cubic_moments_vanish(cubic_problem, config):
    report = moment_conditions(cubic_problem, [0.01, 0.02, 0.05], config)
    assert report.mean_g_zero
    assert report.g_integral == 0.0
    assert report.g_integral_exact
    assert report.max_f_moment < 1e-8


@pytest.mark.parametrize("nodes", [8, 9, 2048, 2049])
def test_moment_integrals_are_scipys_simpson(nodes):
    from scipy.integrate import simpson

    problem, rhos = poly_problem([1, 1], [1, 0, 3]), [0.01, 0.02]
    config = SolverConfig(grid_points=nodes)
    report = moment_conditions(problem, rhos, config)
    grid = np.linspace(-1.0, 1.0, nodes)
    assert report.g_integral == pytest.approx(simpson(problem.g_values(grid), x=grid), rel=1e-13)
    for moment, rho in zip(report.f_moments, rhos):
        traj = integrate_abel(problem, rho, config)
        expected = simpson(problem.f_values(traj.nodes) * traj.values, x=traj.nodes)
        assert moment == pytest.approx(expected, rel=1e-13)


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


@pytest.mark.parametrize(
    "grid, name",
    [(0.01, "rho_grid"), ("0.01", "rho_grid"), (None, "rho_grid"), (np.array(0.01), "rho_grid"),
     ([True], "rho"), ([np.True_], "rho"), ([None], "rho"), (["abc"], "rho"), ([10**400], "rho")],
    ids=["float", "str", "None", "0-d", "True", "np.True_", "None-entry", "abc", "10**400"],
)
def test_moment_grid_must_be_an_iterable_of_numbers(cubic_problem, grid, name):
    # the scan's grid gate: a string would be iterated character by character
    with pytest.raises(ValidationError, match=rf"\b{name}\b"):
        moment_conditions(cubic_problem, grid)


def test_moment_report_tracks_grid(cubic_problem, config):
    report = moment_conditions(cubic_problem, [0.01, 0.02], config)
    assert report.rhos.shape == (2,)
    assert report.f_moments.shape == (2,)
    assert report.max_f_moment == np.max(np.abs(report.f_moments))
