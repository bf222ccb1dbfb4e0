"""Planar-to-scalar reduction: circle functions, exact coefficients, transforms."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcenter import (
    AbelProblem,
    certifier,
    reduction,
    HomogPoly,
    OutsideMonotoneRegion,
    OutsideTransformImage,
    Parity,
    PlanarSystem,
    TrigPoly,
    ValidationError,
    abel_from_planar,
    cherkas_forward,
    cherkas_inverse,
    compute_AB,
    homog_to_trig,
)
from conftest import make_zero_radial, parity_corpus

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def homog_polys(draw, min_degree: int = 1, max_degree: int = 4):
    deg = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(fracs, min_size=deg + 1, max_size=deg + 1))
    return HomogPoly(tuple(coeffs))


@st.composite
def planar_systems(draw, min_degree: int = 2, max_degree: int = 4):
    n = draw(st.integers(min_degree, max_degree))
    P = draw(st.lists(fracs, min_size=n + 1, max_size=n + 1))
    Q = draw(st.lists(fracs, min_size=n + 1, max_size=n + 1))
    return PlanarSystem(n=n, P=HomogPoly(tuple(P)), Q=HomogPoly(tuple(Q)))


# ----------------------------------------------------------------------
# homogeneous polynomials on the unit circle


def test_circle_restriction_of_basic_monomials():
    assert homog_to_trig(HomogPoly.monomial(1, 0)) == TrigPoly.cosine(1)
    assert homog_to_trig(HomogPoly.monomial(1, 1)) == TrigPoly.sine(1)
    # x^2 y -> sin(t)/4 + sin(3t)/4
    assert homog_to_trig(HomogPoly.monomial(3, 1)) == TrigPoly.sine(
        1, Fraction(1, 4)
    ) + TrigPoly.sine(3, Fraction(1, 4))


@given(homog_polys())
@settings(max_examples=40)
def test_circle_restriction_matches_pointwise_values(p):
    q = homog_to_trig(p)
    ts = np.linspace(-math.pi, math.pi, 50)
    direct = np.array([p.eval(math.cos(t), math.sin(t)) for t in ts])
    assert np.max(np.abs(q.eval_array(ts) - direct)) < 1e-9


@given(homog_polys(max_degree=3))
@settings(max_examples=30)
def test_radius_square_factor_is_invisible_on_circle(p):
    r2 = HomogPoly((Fraction(1), Fraction(0), Fraction(1)))  # x^2 + y^2
    assert homog_to_trig(p * r2) == homog_to_trig(p)


def test_homog_poly_validation():
    with pytest.raises(ValidationError):
        HomogPoly(())
    with pytest.raises(ValidationError):
        HomogPoly.monomial(2, 3)
    with pytest.raises(ValidationError):
        HomogPoly((Fraction(1),)) + HomogPoly((Fraction(1), Fraction(0)))


@st.composite
def parity_probes(draw):
    """Degree 0..16 with nonzero coefficients at even, odd, all or no y-powers."""
    n = draw(st.integers(0, 16))
    keep = draw(st.sampled_from([lambda j: j % 2 == 0, lambda j: j % 2 == 1, lambda j: True]))
    coeffs = [draw(fracs) if keep(j) else Fraction(0) for j in range(n + 1)]
    return HomogPoly(tuple(coeffs))


@given(parity_probes())
@settings(max_examples=80)
def test_parity_by_index_matches_circle_expansion(p):
    assert p.parity() is homog_to_trig(p).parity()


@pytest.mark.parametrize(
    "coeffs,parity",
    [
        ((0,), Parity.ZERO),
        ((0, 0, 0, 0), Parity.ZERO),
        ((5,), Parity.EVEN),
        ((1, 0, -2, 0, 3), Parity.EVEN),
        ((0, 1, 0, 4), Parity.ODD),
        ((0, 0, 0, 0, 0, 7), Parity.ODD),
        ((1, 1), Parity.NEITHER),
    ],
)
def test_parity_by_index_fixed_cases(coeffs, parity):
    p = HomogPoly(coeffs)
    assert p.parity() is parity is homog_to_trig(p).parity()


# ----------------------------------------------------------------------
# circle functions


def test_cubic_circle_functions_exact(cubic_system):
    A, B = compute_AB(cubic_system)
    assert A == TrigPoly.sine(2, Fraction(3, 4)) + TrigPoly.sine(4, Fraction(1, 8))
    assert B == TrigPoly.constant(Fraction(-1, 8)) + TrigPoly.cosine(4, Fraction(1, 8))


def test_rotation_has_zero_circle_functions(rotation_system):
    A, B = compute_AB(rotation_system)
    assert A == TrigPoly.zero()
    assert B == TrigPoly.zero()


@pytest.mark.parametrize(
    "p_degree,y_power", [(1, 0), (1, 1), (3, 0), (3, 1), (3, 2), (3, 3), (2, 1)]
)
def test_zero_radial_construction_kills_radial_part(p_degree, y_power):
    system = make_zero_radial(p_degree, y_power)
    A, B = compute_AB(system)
    p = HomogPoly.monomial(p_degree, y_power)
    assert A == TrigPoly.zero()
    assert B == homog_to_trig(p) * Fraction(-1)


@given(planar_systems())
@settings(max_examples=30)
def test_circle_functions_match_definition_pointwise(system):
    A, B = compute_AB(system)
    ts = np.linspace(-math.pi, math.pi, 40)
    for t in ts:
        c, s = math.cos(t), math.sin(t)
        pv = system.P.eval(c, s)
        qv = system.Q.eval(c, s)
        assert A.eval(t) == pytest.approx(c * pv + s * qv, abs=1e-9)
        assert B.eval(t) == pytest.approx(c * qv - s * pv, abs=1e-9)


@given(planar_systems(max_degree=5))
@settings(max_examples=25)
def test_circle_function_degree_bounds(system):
    A, B = compute_AB(system)
    assert A.degree <= system.n + 1
    assert B.degree <= system.n + 1


def _random_homog(rng: random.Random, n: int) -> HomogPoly:
    return HomogPoly(
        tuple(
            Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 9, 16)))
            if rng.random() < 0.7
            else 0
            for _ in range(n + 1)
        )
    )


def _sympy_trig(expr, t) -> TrigPoly:
    """Independent Fourier read-off: product-to-sum (``TR8``) to a fixed
    point, then the coefficient of each cos(kt), sin(kt)."""
    sp = pytest.importorskip("sympy")
    from sympy.simplify.fu import TR8

    prev, expr = None, sp.expand(expr)
    while expr != prev:
        prev, expr = expr, sp.expand(TR8(expr))
    cos, sin = {}, {}
    for term, c in expr.as_coefficients_dict().items():
        c = Fraction(int(c.p), int(c.q))
        if term == 1:
            cos[0] = c
        else:
            k = int(term.args[0] / t)
            (cos if term.func is sp.cos else sin)[k] = c
    width = max([*cos, *sin, 0]) + 1
    return TrigPoly(
        tuple(cos.get(k, 0) for k in range(width)),
        tuple(sin.get(k, 0) for k in range(width)),
    )


def _sympy_circle(p: HomogPoly, t):
    sp = pytest.importorskip("sympy")
    n = p.degree
    return sum(
        sp.Rational(c.numerator, c.denominator) * sp.cos(t) ** (n - j) * sp.sin(t) ** j
        for j, c in enumerate(p.coeffs)
    )


@pytest.mark.parametrize("n", range(1, 17))
def test_circle_restriction_matches_sympy(n):
    t = pytest.importorskip("sympy").Symbol("t", real=True)
    p = _random_homog(random.Random(1000 + n), n)
    assert homog_to_trig(p) == _sympy_trig(_sympy_circle(p, t), t)


@pytest.mark.parametrize("n", [2, 3, 6, 11, 16])
def test_circle_functions_match_sympy(n):
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t", real=True)
    rng = random.Random(2000 + n)
    system = PlanarSystem(n=n, P=_random_homog(rng, n), Q=_random_homog(rng, n))
    pc, qc = _sympy_circle(system.P, t), _sympy_circle(system.Q, t)
    c, s = sp.cos(t), sp.sin(t)
    A, B = compute_AB(system)
    assert A == _sympy_trig(c * pc + s * qc, t)
    assert B == _sympy_trig(c * qc - s * pc, t)


def _circle_rows_by_products(c: list[int]) -> tuple[list[int], list[int]]:
    """Independent oracle for ``_circle_ints``: 2^n sum_j c_j cos^(n-j) sin^j
    formed as TrigPoly products, padded to the n + 2 columns it returns."""
    n = len(c) - 1
    cpow, spow = [TrigPoly.constant(1)], [TrigPoly.constant(1)]
    for _ in range(n):
        cpow.append(cpow[-1] * TrigPoly.cosine(1))
        spow.append(spow[-1] * TrigPoly.sine(1))
    total = TrigPoly.zero()
    for j, cj in enumerate(c):
        total = total + cpow[n - j] * spow[j] * cj
    total = total * 2**n
    assert total.den == 1
    pad = [0] * (n + 2 - len(total.num_cos))
    return list(total.num_cos) + pad, list(total.num_sin) + pad


@given(
    st.integers(0, 24).flatmap(
        lambda n: st.lists(
            st.one_of(st.just(0), st.integers(-(10**40), 10**40)),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_circle_ints_matches_trig_products(c):
    assert reduction._circle_ints(c) == _circle_rows_by_products(c)


def _largest_laurent_coefficient(cos: list[int], sin: list[int]) -> int:
    """max |T_e| over the Laurent coefficients, T_+-k = (a_k +- b_k) / 2 for k > 0."""
    return max([abs(cos[0])] + [abs(a + s) // 2 for a, s in zip(cos[1:], sin[1:])]
               + [abs(a - s) // 2 for a, s in zip(cos[1:], sin[1:])])


@pytest.mark.parametrize("n", range(25))
def test_circle_ints_near_the_digit_bound(n):
    """Rows whose largest Laurent coefficient comes within 2 sqrt(2n+2) of the
    X/4 digit bound (one term (w+1)^n of magnitude 2^130 - 1), and all-zero rows."""
    m = 2**130 - 1
    assert reduction._circle_ints([0] * (n + 1)) == ([0] * (n + 2), [0] * (n + 2))
    for v in (m, -m):
        rows = [[0] * j + [v] + [0] * (n - j) for j in range(n + 1)]
        rows += [[v] * (n + 1), [v * (-1) ** (j // 2) for j in range(n + 1)]]
        for c in rows:
            assert reduction._circle_ints(c) == _circle_rows_by_products(c)
        quarter = 2 ** (m.bit_length() + n)  # X/4 for rows[0] = [v, 0, ..., 0]
        top = _largest_laurent_coefficient(*reduction._circle_ints(rows[0]))
        assert top < quarter
        assert 4 * (2 * n + 2) * top**2 >= quarter**2


def test_exact_layer_work_counts(monkeypatch):
    """Machine-independent guard of the exact layer's cost: one classification
    runs one reduction, which expands two homogeneous polynomials on the
    circle (xP + yQ and xQ - yP) and forms no TrigPoly product."""
    calls = Counter()
    mul, compute, expand = TrigPoly.__mul__, reduction.compute_AB, reduction._circle_ints

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_compute(system):
        calls["compute_AB"] += 1
        return compute(system)

    def counted_expand(c):
        calls["expand"] += 1
        return expand(c)

    monkeypatch.setattr(TrigPoly, "__mul__", counted_mul)
    monkeypatch.setattr(TrigPoly, "__rmul__", counted_mul)
    monkeypatch.setattr(reduction, "compute_AB", counted_compute)
    monkeypatch.setattr(certifier, "compute_AB", counted_compute, raising=False)
    monkeypatch.setattr(reduction, "_circle_ints", counted_expand)
    rng = random.Random(9)
    system = PlanarSystem(n=9, P=_random_homog(rng, 9), Q=_random_homog(rng, 9))
    homog_to_trig(system.P)
    assert calls["mul"] == 0
    calls.clear()
    certifier.classify_planar(system)
    assert calls["compute_AB"] == 1
    assert calls["expand"] == 2
    calls.clear()
    problem = abel_from_planar(system)
    assert calls["mul"] == 0
    assert certifier.wronskian_cube_ratio(problem.f, problem.g) is None
    assert calls["mul"] == 0


def test_reduction_and_screen_build_no_fraction(monkeypatch):
    """Between exact input and exact verdict the reduction and a rejecting
    cube-ratio screen work on integer rows only: no Fraction is built."""
    rng = random.Random(16)

    def dense(n):
        return HomogPoly(tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                        rng.choice((1, 2, 3, 5, 7))) for _ in range(n + 1)))

    systems = [PlanarSystem(n=n, P=dense(n), Q=dense(n)) for n in range(2, 17)]
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for system in systems:
        problem = abel_from_planar(system)
        assert certifier._screen_rejects(problem.f, problem.g)
        assert certifier.wronskian_cube_ratio(problem.f, problem.g) is None
    assert built == []


# ----------------------------------------------------------------------
# scalar reduction


def test_cubic_reduction_coefficients_exact(cubic_problem):
    f, g = cubic_problem.f, cubic_problem.g
    assert g == TrigPoly.sine(2, Fraction(3, 2)) + TrigPoly.sine(4, Fraction(3, 4))
    assert f == (
        TrigPoly.sine(2, Fraction(9, 32))
        + TrigPoly.sine(4, Fraction(1, 32))
        + TrigPoly.sine(6, Fraction(-3, 32))
        + TrigPoly.sine(8, Fraction(-1, 64))
    )
    assert cubic_problem.half_width == math.pi
    assert cubic_problem.origin is not None and cubic_problem.origin.n == 3


def test_rotation_reduces_to_zero_equation(rotation_system):
    problem = abel_from_planar(rotation_system)
    assert problem.f == TrigPoly.zero()
    assert problem.g == TrigPoly.zero()


@given(planar_systems())
@settings(max_examples=30)
def test_reduction_identities_exact(system):
    problem = abel_from_planar(system)
    A, B = compute_AB(system)
    m = system.n - 1
    assert problem.f == A * B * Fraction(-m)
    assert problem.g == A * Fraction(m) - B.derivative()
    assert problem.f.degree <= 2 * (system.n + 1)
    assert problem.g.degree <= system.n + 1


@given(planar_systems(max_degree=4))
@settings(max_examples=25)
def test_reduction_identities_pointwise(system):
    problem = abel_from_planar(system)
    A, B = compute_AB(system)
    m = system.n - 1
    ts = np.linspace(-math.pi, math.pi, 50)
    f_vals = problem.f_values(ts)
    g_vals = problem.g_values(ts)
    a_vals = A.eval_array(ts)
    b_vals = B.eval_array(ts)
    db_vals = B.derivative().eval_array(ts)
    assert np.max(np.abs(f_vals + m * a_vals * b_vals)) < 1e-9
    assert np.max(np.abs(g_vals - m * a_vals + db_vals)) < 1e-9


def test_parity_propagates_from_circle_to_scalar():
    for system in parity_corpus(40):
        pt = homog_to_trig(system.P)
        qt = homog_to_trig(system.Q)
        assert pt.parity() in (Parity.ODD, Parity.ZERO)
        assert qt.parity() in (Parity.EVEN, Parity.ZERO)
        problem = abel_from_planar(system)
        assert problem.f_parity in (Parity.ODD, Parity.ZERO)
        assert problem.g_parity in (Parity.ODD, Parity.ZERO)


# ----------------------------------------------------------------------
# scalar problem container


def test_trig_coefficients_autofill_parity_and_bounds(cubic_problem):
    assert cubic_problem.f_parity is Parity.ODD
    assert cubic_problem.g_parity is Parity.ODD
    F, G = cubic_problem.bounds()
    assert F == pytest.approx(float(Fraction(27, 64)))
    assert G == pytest.approx(2.25)


def test_sampled_coefficients_require_explicit_bounds():
    problem = AbelProblem(f=lambda t: t, g=lambda t: t, half_width=1.0)
    with pytest.raises(ValidationError):
        problem.bounds()


def test_half_width_must_be_positive():
    with pytest.raises(ValidationError):
        AbelProblem(f=TrigPoly.zero(), g=TrigPoly.zero(), half_width=0.0)
    with pytest.raises(ValidationError):
        AbelProblem(f=TrigPoly.zero(), g=TrigPoly.zero(), half_width=math.inf)


def test_coefficient_values_wrap_non_vectorized_callables():
    problem = AbelProblem(
        f=lambda t: t**2, g=lambda t: float(t), half_width=1.0
    )
    ts = np.linspace(-1, 1, 7)
    assert np.allclose(problem.f_values(ts), ts**2)
    assert np.allclose(problem.g_values(ts), ts)


@pytest.mark.parametrize("n", [2, 5, 9, 12, 16])
def test_scalar_evaluators_match_exact_coefficients(n):
    # the integrators' evaluators build cos(kt), sin(kt) by angle addition;
    # at n = 16 the coefficient f reaches trig degree 34
    rng = np.random.default_rng(n)

    def dense(degree):
        return HomogPoly(
            tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
                  for _ in range(degree + 1))
        )

    problem = abel_from_planar(PlanarSystem(n=n, P=dense(n), Q=dense(n)))
    assert problem.f.degree == 2 * (n + 1)
    ts = np.linspace(-math.pi, math.pi, 1001)
    for coef, ev in zip((problem.f, problem.g), problem.evaluators()):
        tol = 1e-13 * coef.linf_bound()
        assert max(abs(ev(t) - coef.eval(t)) for t in ts) <= tol
    # the integrators evaluate each pair in one run, to the same floats
    A, B = problem.origin.A, problem.origin.B
    f_ev, g_ev = problem.evaluators()
    a_ev, b_ev = reduction._scalar_evaluator(A), reduction._scalar_evaluator(B)
    fg, ab = reduction._pair_evaluator(problem.f, problem.g), reduction._pair_evaluator(A, B)
    for t in ts.tolist():
        assert fg(t) == (f_ev(t), g_ev(t))
        assert ab(t) == (a_ev(t), b_ev(t))


def test_sampling_a_degree_34_coefficient_needs_no_angle_matrix():
    # one grid-sized array is 512 KiB at 2^16 points; an N x (d+1) matrix of
    # angles, cosines or sines would be 17.5 MiB each
    rng = np.random.default_rng(16)

    def dense():
        return HomogPoly(
            tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7))) for _ in range(17))
        )

    f = abel_from_planar(PlanarSystem(n=16, P=dense(), Q=dense())).f
    assert f.degree == 34
    ts = np.linspace(-math.pi, math.pi, 2**16)
    f.eval_array(ts[:8])  # the float rows are converted once, outside the trace
    tracemalloc.start()
    try:
        f.eval_array(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# ----------------------------------------------------------------------
# planar system container


def test_planar_system_validation():
    with pytest.raises(ValidationError):
        PlanarSystem(n=1, P=HomogPoly.zero(1), Q=HomogPoly.zero(1))
    with pytest.raises(ValidationError):
        PlanarSystem(n=3, P=HomogPoly.zero(2), Q=HomogPoly.zero(3))


def test_planar_system_json_roundtrip(cubic_system):
    data = cubic_system.to_json_dict()
    assert data == {
        "n": 3,
        "P": ["0", "2", "0", "0"],
        "Q": ["0", "0", "1", "0"],
    }
    assert PlanarSystem.from_json_dict(data) == cubic_system


def test_planar_system_json_rejects_garbage():
    with pytest.raises(ValidationError):
        PlanarSystem.from_json_dict({"n": 3, "P": ["0"] * 4})


# ----------------------------------------------------------------------
# change of variable


def test_transform_known_value(cubic_system):
    _, B = compute_AB(cubic_system)
    theta = math.pi / 4
    assert B.eval(theta) == pytest.approx(-0.25, abs=1e-15)
    gamma = cherkas_forward(0.5, theta, B, n=3)
    assert gamma == pytest.approx(0.25 / 0.9375, abs=1e-15)
    assert cherkas_inverse(gamma, theta, B, n=3) == pytest.approx(0.5, abs=1e-12)


def test_transform_fixes_origin(cubic_system):
    _, B = compute_AB(cubic_system)
    assert cherkas_forward(0.0, 1.0, B, n=3) == 0.0
    assert cherkas_inverse(0.0, 1.0, B, n=3) == 0.0


def test_transform_without_angular_correction():
    B = TrigPoly.zero()
    assert cherkas_forward(0.3, 0.7, B, n=4) == pytest.approx(0.3**3)
    assert cherkas_inverse(0.3**3, 0.7, B, n=4) == pytest.approx(0.3)


def test_transform_roundtrip_randomized(cubic_system):
    _, B = compute_AB(cubic_system)
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-math.pi, math.pi, 1000)
    radii = rng.uniform(0.0, 1.0, 1000)
    for r, theta in zip(radii, thetas):
        gamma = cherkas_forward(float(r), float(theta), B, n=3)
        back = cherkas_inverse(gamma, float(theta), B, n=3)
        assert abs(back - r) < 1e-12


def test_transform_accepts_plain_callables():
    gamma = cherkas_forward(0.5, 0.0, lambda t: -0.25, n=3)
    assert gamma == pytest.approx(0.25 / 0.9375)


def test_transform_domain_errors():
    B = TrigPoly.constant(-2)
    with pytest.raises(OutsideMonotoneRegion):
        cherkas_forward(1.0, 0.0, B, n=2)
    with pytest.raises(ValidationError):
        cherkas_forward(-0.1, 0.0, B, n=2)
    with pytest.raises(ValidationError):
        cherkas_forward(0.1, 0.0, B, n=1)
    with pytest.raises(OutsideTransformImage):
        cherkas_inverse(-0.5, 0.0, B, n=2)
    with pytest.raises(OutsideTransformImage):
        cherkas_inverse(1.0, 0.0, TrigPoly.constant(2), n=2)
