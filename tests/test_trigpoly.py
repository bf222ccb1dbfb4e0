"""Exact trig-polynomial ring: arithmetic, parity, cube proportionality."""

from __future__ import annotations

import doctest
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abelcenter.reduction
import abelcenter.trigpoly
from abelcenter import Parity, TrigPoly, proportional_to_cube
from abelcenter.reduction import _coefficient_values
from abelcenter.trigpoly import _angle_addition

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def trigpolys(draw, max_degree: int = 4):
    deg = draw(st.integers(0, max_degree))
    cos = tuple(draw(st.lists(fracs, min_size=deg + 1, max_size=deg + 1)))
    sin = (Fraction(0),) + tuple(draw(st.lists(fracs, min_size=deg, max_size=deg)))
    return TrigPoly(cos, sin)


def test_doctests():
    for module in (abelcenter.trigpoly, abelcenter.reduction, abelcenter.families):
        failures, tried = doctest.testmod(module)
        assert failures == 0 and tried > 0


def test_package_exports_the_union_of_the_module_exports():
    modules = (abelcenter.abel_solver, abelcenter.certifier, abelcenter.errors,
               abelcenter.families, abelcenter.planar_solver, abelcenter.reduction,
               abelcenter.trigpoly)
    union = {"errors"}.union(*(m.__all__ for m in modules))
    assert len(abelcenter.__all__) == len(set(abelcenter.__all__)) == len(union)
    assert set(abelcenter.__all__) == union
    for name in union - {"errors"}:
        owner = next(m for m in modules if name in m.__all__)
        assert getattr(abelcenter, name) is getattr(owner, name)
    assert abelcenter.errors.__name__ == "abelcenter.errors"


def test_fractions_are_converted_to_floats_once(monkeypatch):
    p = TrigPoly((Fraction(1, 3), Fraction(-2, 7), 0), (0, Fraction(5, 11), Fraction(1, 9)))
    ts = np.linspace(-1.0, 1.0, 5)
    scalar_evaluator = abelcenter.reduction._scalar_evaluator
    p.eval(0.3), _coefficient_values(p, ts), scalar_evaluator(p)(0.3)
    conversions = []
    original = Fraction.__float__

    def counting(self):
        conversions.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__float__", counting)
    for t in ts.tolist():
        p.eval(t), scalar_evaluator(p)(t)
    _coefficient_values(p, ts)
    assert conversions == []


# ----------------------------------------------------------------------
# canonical form


def test_trailing_zero_harmonics_are_trimmed():
    p = TrigPoly((Fraction(0), Fraction(1), Fraction(0)), (Fraction(0),) * 3)
    assert p.degree == 1
    assert p == TrigPoly.cosine(1)


def test_nonzero_sin0_rejected():
    with pytest.raises(ValueError):
        TrigPoly((Fraction(0),), (Fraction(1),))


def test_coefficients_coerced_to_fractions():
    p = TrigPoly(("1/2", 1), (0, "3/4"))
    assert p.cos == (Fraction(1, 2), Fraction(1))
    assert p.sin == (Fraction(0), Fraction(3, 4))


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        TrigPoly((0.5,), (0,))


def test_zero_and_constant():
    assert TrigPoly.zero().is_zero()
    assert TrigPoly.constant(Fraction(2, 3)).mean_value() == Fraction(2, 3)
    assert str(TrigPoly.zero()) == "0"


# ----------------------------------------------------------------------
# ring operations


def test_product_to_sum_identities():
    c = TrigPoly.cosine(1)
    s = TrigPoly.sine(1)
    half = Fraction(1, 2)
    assert c * c == TrigPoly.constant(half) + TrigPoly.cosine(2, half)
    assert s * s == TrigPoly.constant(half) - TrigPoly.cosine(2, half)
    assert s * c == TrigPoly.sine(2, half)


def test_cubic_radial_coefficient_expansion():
    # 6 cos^3 t sin t = (3/2) sin 2t + (3/4) sin 4t
    c = TrigPoly.cosine(1)
    p = c * c * c * TrigPoly.sine(1) * 6
    assert p == TrigPoly.sine(2, Fraction(3, 2)) + TrigPoly.sine(4, Fraction(3, 4))
    assert p.eval(math.pi / 4) == pytest.approx(1.5, abs=1e-15)


def test_scalar_multiplication_forms():
    p = TrigPoly.cosine(2, Fraction(1, 3))
    assert p * 3 == TrigPoly.cosine(2)
    assert 3 * p == TrigPoly.cosine(2)
    assert p * Fraction(3, 2) == TrigPoly.cosine(2, Fraction(1, 2))
    assert p * "3" == TrigPoly.cosine(2)


def test_additive_group():
    p = TrigPoly.cosine(3, Fraction(5, 7)) + TrigPoly.sine(1, -2)
    assert p + TrigPoly.zero() == p
    assert p - p == TrigPoly.zero()
    assert -(-p) == p


@given(trigpolys(max_degree=3), trigpolys(max_degree=3), trigpolys(max_degree=3))
@settings(max_examples=40)
def test_ring_axioms_exact(p, q, r):
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(trigpolys(max_degree=3), trigpolys(max_degree=3))
@settings(max_examples=40)
def test_product_rule_exact(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(trigpolys(max_degree=4), trigpolys(max_degree=4))
@settings(max_examples=30)
def test_product_degree_bound(p, q):
    assert (p * q).degree <= p.degree + q.degree


def test_product_agrees_with_pointwise_values():
    p = TrigPoly.cosine(2, Fraction(3, 4)) + TrigPoly.sine(1, Fraction(-1, 2))
    q = TrigPoly.constant(1) + TrigPoly.sine(3, Fraction(2, 5))
    ts = np.linspace(-math.pi, math.pi, 50)
    direct = _coefficient_values(p * q, ts)
    pointwise = _coefficient_values(p, ts) * _coefficient_values(q, ts)
    assert np.max(np.abs(direct - pointwise)) < 1e-12


def _reference_product(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """The Fraction product-to-sum loop the integer kernel replaced."""
    width = len(p.cos) + len(q.cos) - 1
    cos = [Fraction(0)] * width
    sin = [Fraction(0)] * width
    half = Fraction(1, 2)
    for j, (cj, sj) in enumerate(zip(p.cos, p.sin)):
        for k, (ck, sk) in enumerate(zip(q.cos, q.sin)):
            if cj and ck:
                v = cj * ck * half
                cos[abs(j - k)] += v
                cos[j + k] += v
            if sj and sk:
                v = sj * sk * half
                cos[abs(j - k)] += v
                cos[j + k] -= v
            if sj and ck:
                v = sj * ck * half
                sin[j + k] += v
                if j - k > 0:
                    sin[j - k] += v
                elif j - k < 0:
                    sin[k - j] -= v
            if cj and sk:
                v = cj * sk * half
                sin[j + k] += v
                if k - j > 0:
                    sin[k - j] += v
                elif k - j < 0:
                    sin[j - k] -= v
    return TrigPoly(tuple(cos), tuple(sin))


@st.composite
def wide_trigpolys(draw, dens):
    """Degree up to 50, sparse or dense, large numerators over ``dens``."""
    deg = draw(st.integers(0, 50))
    coef = st.one_of(
        st.just(0),
        st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(dens)),
    )
    cos = tuple(draw(st.lists(coef, min_size=deg + 1, max_size=deg + 1)))
    sin = (0,) + tuple(draw(st.lists(coef, min_size=deg, max_size=deg)))
    return TrigPoly(cos, sin)


@given(wide_trigpolys((1, 3, 7, 11, 27)), wide_trigpolys((1, 2, 5, 13, 16, 17)))
@settings(max_examples=25)
def test_integer_product_matches_fraction_reference(p, q):
    r = p * q
    assert r == _reference_product(p, q)
    assert all(type(c) is Fraction for c in r.cos + r.sin)


@given(trigpolys(), trigpolys(), fracs)
@settings(max_examples=40)
def test_ring_results_are_canonical(p, q, c):
    for r in (p + q, p - q, -p, p * q, p * c, c * p, p.derivative(), p * 0):
        assert r == TrigPoly(r.cos, r.sin)
        assert all(type(v) is Fraction for v in r.cos + r.sin)


@given(trigpolys(), trigpolys(), fracs)
@settings(max_examples=40)
def test_ring_results_are_integer_rows_in_lowest_terms(p, q, c):
    for r in (p, p + q, p - q, -p, p * q, p * c, c * p, p.derivative(), p * 0):
        assert r.den > 0 and math.gcd(r.den, *r.num_cos, *r.num_sin) == 1
        assert r.num_sin[0] == 0 and len(r.num_cos) == len(r.num_sin)
        assert r.degree == 0 or r.num_cos[-1] or r.num_sin[-1]
    same = [p + q - q, TrigPoly(p.cos, p.sin), TrigPoly.from_json_dict(p.to_json_dict())]
    if c:
        same.append((p * c) * (1 / c))
    for r in same:
        assert r == p and hash(r) == hash(p)
        assert (r.num_cos, r.num_sin, r.den) == (p.num_cos, p.num_sin, p.den)


def test_pickle_round_trip_after_cached_views():
    p = TrigPoly((Fraction(1, 3), 0, Fraction(-2, 7)), (0, Fraction(5, 11), 0))
    p.cos, p.sin, p.eval(0.3), _angle_addition(p)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
    assert q.cos == p.cos and q.sin == p.sin and q.eval(0.3) == p.eval(0.3)
    assert q * q == p * p


# ----------------------------------------------------------------------
# derivative and mean


def test_derivative_basics():
    assert TrigPoly.sine(1).derivative() == TrigPoly.cosine(1)
    assert TrigPoly.cosine(1).derivative() == TrigPoly.sine(1, -1)
    assert TrigPoly.constant(7).derivative() == TrigPoly.zero()
    assert TrigPoly.cosine(4, Fraction(1, 8)).derivative() == TrigPoly.sine(
        4, Fraction(-1, 2)
    )


@given(trigpolys())
def test_derivative_matches_finite_differences(p):
    dp = p.derivative()
    h = 1e-6
    ts = np.linspace(-3.0, 3.0, 25)
    approx = (_coefficient_values(p, ts + h) - _coefficient_values(p, ts - h)) / (2 * h)
    tol = 1e-6 * (1.0 + dp.linf_bound())
    assert np.max(np.abs(_coefficient_values(dp, ts) - approx)) < tol


@given(trigpolys())
def test_derivative_has_zero_mean(p):
    assert p.derivative().mean_value() == Fraction(0)


def test_mean_of_cos_fourth_power():
    c = TrigPoly.cosine(1)
    assert (c * c * c * c).mean_value() == Fraction(3, 8)
    assert TrigPoly.cosine(5).mean_value() == Fraction(0)


# ----------------------------------------------------------------------
# evaluation


def test_eval_known_points():
    assert TrigPoly.cosine(1).eval(0.0) == pytest.approx(1.0, abs=1e-15)
    assert TrigPoly.sine(2).eval(math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    assert TrigPoly.zero().eval(1.234) == 0.0


@given(trigpolys(), st.floats(-10, 10, allow_nan=False))
@settings(max_examples=40)
def test_eval_array_matches_scalar_eval(p, t):
    arr = _coefficient_values(p, np.array([t]))
    assert arr.shape == (1,)
    assert arr[0] == pytest.approx(p.eval(t), abs=1e-12)


@pytest.mark.parametrize(
    "ts", [np.float64(0.3), np.array(0.3), np.array([0.3]), np.linspace(-1, 1, 6).reshape(2, 3)],
    ids=["scalar", "0-d", "one-element", "2-d"],
)
@pytest.mark.parametrize(
    "p", [TrigPoly.zero(), TrigPoly.constant(Fraction(3, 2)), TrigPoly.sine(2, -1)],
    ids=["zero", "constant", "sine"],
)
def test_eval_array_returns_an_array_of_the_input_shape(p, ts):
    out = _coefficient_values(p, ts)
    assert isinstance(out, np.ndarray) and out.shape == np.shape(ts)
    want = [p.eval(t) for t in np.ravel(ts).tolist()]
    assert out.ravel().tolist() == pytest.approx(want, abs=1e-15)


@given(trigpolys(max_degree=8), st.lists(st.floats(-100, 100), min_size=1, max_size=16))
def test_eval_array_symmetry_is_exact(p, ts):
    # angle addition from one (cos t, sin t) pair keeps t -> -t symmetry exact
    ts = np.array(ts)
    even = TrigPoly(p.cos, [0] * len(p.sin))
    odd = TrigPoly([0] * len(p.cos), p.sin)
    assert np.array_equal(_coefficient_values(even, -ts), _coefficient_values(even, ts))
    assert np.array_equal(_coefficient_values(odd, -ts), -_coefficient_values(odd, ts))


def _recurrence(p: TrigPoly, t: float) -> float:
    """p(t) by the evaluators' recurrence, one series at a time: cos(kt), sin(kt)
    by angle addition from cos t, sin t, each term added in order of k."""
    a, b = p._floats
    c1, s1 = math.cos(t), math.sin(t)
    ck, sk, total = c1, s1, a[0]
    for ak, bk in zip(a[1:], b[1:]):
        total += ak * ck + bk * sk
        ck, sk = ck * c1 - sk * s1, sk * c1 + ck * s1
    return total


def _dense_series(degree: int, seed: int) -> TrigPoly:
    rng = np.random.default_rng(seed)
    cos, sin = (rng.integers(-9, 10, degree + 1).tolist() for _ in "cs")
    cos[-1] = cos[-1] or 1
    return TrigPoly([Fraction(c, 7) for c in cos], [0, *(Fraction(v, 3) for v in sin[1:])])


@pytest.mark.parametrize("p_degree, q_degree",
                         [(3, 8), (8, 3), (6, 6), (None, 5), (5, None), (None, None)])
def test_two_series_in_one_run_are_the_one_series_floats(p_degree, q_degree):
    # g's harmonics are a prefix of f's in the reduction; A and B have equal degrees
    p, q = (TrigPoly.zero() if d is None else _dense_series(d, i)
            for i, d in enumerate((p_degree, q_degree)))
    pair, p_ev, q_ev = _angle_addition(p, q), _angle_addition(p), _angle_addition(q)
    ts = np.concatenate([np.linspace(-50.0, 50.0, 2001), [0.0, -0.0, math.pi, 49.999]])
    for t in ts.tolist():
        assert pair(t) == (p_ev(t), q_ev(t)) == (_recurrence(p, t), _recurrence(q, t))
    on_array = pair(ts, np.cos, np.sin)
    for values, series in zip(on_array, (p, q)):
        assert np.array_equal(np.full_like(ts, values), _coefficient_values(series, ts))


@given(trigpolys(max_degree=8), trigpolys(max_degree=8), st.floats(-50, 50))
def test_pair_evaluator_matches_the_recurrence(p, q, t):
    assert _angle_addition(p, q)(t) == (_recurrence(p, t), _recurrence(q, t))
    assert _angle_addition(p)(t) == _recurrence(p, t)


# ----------------------------------------------------------------------
# parity and bounds


def test_parity_classification():
    assert TrigPoly.zero().parity() is Parity.ZERO
    assert TrigPoly.cosine(2).parity() is Parity.EVEN
    assert TrigPoly.constant(3).parity() is Parity.EVEN
    assert TrigPoly.sine(1).parity() is Parity.ODD
    assert (TrigPoly.constant(1) + TrigPoly.sine(1)).parity() is Parity.NEITHER


@given(trigpolys())
def test_parity_is_sound_pointwise(p):
    parity = p.parity()
    ts = np.linspace(0.01, math.pi, 100)
    left = _coefficient_values(p, -ts)
    right = _coefficient_values(p, ts)
    if parity is Parity.ODD:
        assert np.max(np.abs(left + right)) < 1e-12
    elif parity is Parity.EVEN:
        assert np.max(np.abs(left - right)) < 1e-12
    elif parity is Parity.ZERO:
        assert np.max(np.abs(right)) == 0.0


@given(trigpolys(), trigpolys())
@settings(max_examples=40)
def test_parity_respects_products(p, q):
    if p.parity() is Parity.ODD and q.parity() is Parity.ODD:
        assert (p * q).parity() in (Parity.EVEN, Parity.ZERO)
    if p.parity() is Parity.ODD and q.parity() is Parity.EVEN:
        assert (p * q).parity() in (Parity.ODD, Parity.ZERO)


def test_linf_bound_examples():
    assert TrigPoly.cosine(1).linf_bound() == 1.0
    half = Fraction(1, 2)
    assert (TrigPoly.constant(half) + TrigPoly.cosine(2, half)).linf_bound() == 1.0
    assert (TrigPoly.sine(1) + TrigPoly.cosine(1)).linf_bound() == 2.0


@given(trigpolys())
def test_linf_bound_dominates_samples(p):
    ts = np.linspace(-math.pi, math.pi, 64)
    assert np.max(np.abs(_coefficient_values(p, ts))) <= p.linf_bound() + 1e-12


# ----------------------------------------------------------------------
# cube proportionality


def test_cube_ratio_recovers_planted_constant():
    g = TrigPoly.sine(1, 2)
    h = g * g * g * Fraction(5, 8)
    assert proportional_to_cube(h, g) == Fraction(5, 8)


def test_cube_ratio_zero_cases():
    zero = TrigPoly.zero()
    assert proportional_to_cube(zero, zero) == Fraction(0)
    assert proportional_to_cube(zero, TrigPoly.sine(1)) == Fraction(0)
    assert proportional_to_cube(TrigPoly.cosine(1), zero) is None


def test_cube_ratio_rejects_non_multiples():
    g = TrigPoly.sine(1)
    h = g * g * g + TrigPoly.cosine(1, Fraction(1, 100))
    assert proportional_to_cube(h, g) is None


@given(trigpolys(max_degree=2), fracs)
@settings(max_examples=30)
def test_cube_ratio_roundtrip(g, a):
    h = g * g * g * a
    got = proportional_to_cube(h, g)
    if g.is_zero():
        assert got == Fraction(0)
    else:
        assert got == a


# ----------------------------------------------------------------------
# serialization


def test_json_wire_format():
    p = TrigPoly.constant(Fraction(-1, 8)) + TrigPoly.cosine(4, Fraction(1, 8))
    data = p.to_json_dict()
    assert data["a"] == ["-1/8", "0", "0", "0", "1/8"]
    assert data["b"] == ["0", "0", "0", "0"]


@given(trigpolys())
def test_json_roundtrip(p):
    assert TrigPoly.from_json_dict(p.to_json_dict()) == p


def test_json_requires_both_lists():
    with pytest.raises(ValueError):
        TrigPoly.from_json_dict({"a": ["1"]})


def test_str_rendering():
    p = TrigPoly.constant(Fraction(1, 2)) + TrigPoly.cosine(2, Fraction(-1, 2))
    assert str(p) == "1/2 - 1/2*cos(2t)"
