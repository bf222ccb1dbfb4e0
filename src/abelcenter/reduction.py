"""Reduction of planar rigid-linear-part systems to scalar equations.

The systems handled here are

    x' = -y + P(x, y),      y' = x + Q(x, y),

with P, Q homogeneous of the same degree n >= 2.  In polar coordinates
the radial and angular speeds are governed by the circle functions

    A(t) = cos(t) P(cos t, sin t) + sin(t) Q(cos t, sin t)
    B(t) = cos(t) Q(cos t, sin t) - sin(t) P(cos t, sin t)

through r' = A r^n and theta' = 1 + B r^(n-1).  Wherever the angular
speed stays positive, the substitution

    gamma = r^(n-1) / (1 + B(t) r^(n-1))

turns the orbit equation into the scalar equation

    dgamma/dt = f(t) gamma^3 + g(t) gamma^2,
    f = -(n-1) A B,      g = (n-1) A - B'.

Everything in this module is exact rational arithmetic except the two
pointwise change-of-variable maps, which are plain floating point.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .errors import OutsideMonotoneRegion, OutsideTransformImage, ValidationError
from .trigpoly import Parity, TrigPoly, _angle_addition, _frac, _mul_ints, _parity, _scaled

__all__ = [
    "HomogPoly",
    "PlanarSystem",
    "PlanarReduction",
    "AbelProblem",
    "homog_to_trig",
    "compute_AB",
    "abel_from_planar",
    "cherkas_forward",
    "cherkas_inverse",
]

Coefficient = Union[TrigPoly, Callable[[float], float]]


def _as_float(value, name: str) -> float:
    """``float(value)``, numeric strings included, for a real-number argument: a half-width,
    an initial value, a radius.  A bool, a value ``float()`` rejects and one beyond the float
    range raise :class:`ValidationError` naming ``name``.  Two inputs keep rules of their own:
    ``SolverConfig`` takes no string tolerance, and coefficient lists read rationals ("1/2")."""
    try:
        if isinstance(value, bool):
            raise TypeError("a bool is not a number")
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} lies beyond the float range") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad {name} {value!r}: {exc}") from exc


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial sum_j c_j x^(n-j) y^j with exact coefficients.

    ``coeffs[j]`` multiplies ``x^(n-j) y^j``; the degree is implied by the
    length of the list, so an all-zero list of length n+1 still remembers
    its degree.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValidationError("homogeneous polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(_frac(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def parity(self) -> Parity:
        """Parity of ``p(cos t, sin t)`` under t -> -t: that of the y-power j of
        each nonzero term.  Exact, as the even-j and odd-j parts are homogeneous
        and a homogeneous polynomial that vanishes on the circle is zero."""
        return _parity(any(self.coeffs[::2]), any(self.coeffs[1::2]))

    @classmethod
    def zero(cls, degree: int) -> "HomogPoly":
        return cls((Fraction(0),) * (degree + 1))

    @classmethod
    def monomial(cls, degree: int, y_power: int, c=1) -> "HomogPoly":
        """c * x^(degree - y_power) * y^y_power"""
        if not 0 <= y_power <= degree:
            raise ValidationError("y power must lie between 0 and the degree")
        return cls((0,) * y_power + (c,) + (0,) * (degree - y_power))

    @functools.cached_property
    def _float_terms(self) -> tuple[tuple[float, int, int], ...]:
        n = self.degree
        try:
            return tuple((float(c), n - j, j) for j, c in enumerate(self.coeffs) if c)
        except OverflowError:
            raise ValidationError("a coefficient lies beyond the float range") from None

    def eval(self, x: float, y: float) -> float:
        """p(x, y) in floats; ``x`` and ``y`` may also be complex."""
        return sum((c * x**i * y**j for c, i, j in self._float_terms), 0.0)

    def to_json_list(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json_list(cls, data: list) -> "HomogPoly":
        if not isinstance(data, list):
            raise TypeError(f"coefficients must be a list, got {type(data).__name__}")
        return cls(tuple(_frac(v) for v in data))


@dataclass(frozen=True)
class PlanarSystem:
    """x' = -y + P(x,y), y' = x + Q(x,y) with homogeneous P, Q of degree n."""

    n: int
    P: HomogPoly
    Q: HomogPoly

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError(f"nonlinearity degree must be >= 2, got {self.n}")
        if self.P.degree != self.n or self.Q.degree != self.n:
            raise ValidationError(
                f"P and Q must be homogeneous of degree n={self.n}, "
                f"got {self.P.degree} and {self.Q.degree}"
            )

    def to_json_dict(self) -> dict:
        return {"n": self.n, "P": self.P.to_json_list(), "Q": self.Q.to_json_list()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlanarSystem":
        try:
            n = data["n"]
            P = HomogPoly.from_json_list(data["P"])
            Q = HomogPoly.from_json_list(data["Q"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed planar system payload: {exc}") from exc
        if type(n) is not int:
            raise ValidationError(f"the degree n must be an integer, got {n!r}")
        return cls(n=n, P=P, Q=Q)


def _circle_ints(c: list[int]) -> tuple[list[int], list[int]]:
    """Cosine and sine rows, over 2^n, of sum_j c_j cos^(n-j) sin^j with n = len(c) - 1.

    With z = e^(it), u = z + 1/z and v = z - 1/z, the real Laurent polynomial
    T = sum_j (-1)^(j//2) c_j u^(n-j) v^j has a palindromic even-j part (the
    cosines) and an antipalindromic odd-j part (the sines), so
    a_k = (T_k + T_-k) / 2^n and b_k = (T_k - T_-k) / 2^n.

    With w = z^2, z^n T = S(w) = sum_j (-1)^(j//2) c_j (w+1)^(n-j) (w-1)^j has
    degree n, and its coefficient S_k is T_e at e = 2k - n.  S is evaluated
    at w = X = 2^bits by Horner's rule in one big integer (Kronecker
    substitution) and read back as n + 1 signed base-X digits in [-X/2, X/2).
    Every coefficient of (w+1)^(n-j) (w-1)^j is at most 2^n in absolute value,
    so |S_k| <= 2^n sum|c_j| < X/4 with bits = bitlen(sum|c_j|) + n + 2.
    """
    n = len(c) - 1
    bits = sum(map(abs, c)).bit_length() + n + 2
    acc, vpow = c[0], 1  # vpow = (X - 1)^j
    for j in range(1, n + 1):
        acc += acc << bits
        vpow = (vpow << bits) - vpow
        if c[j]:
            acc += (-c[j] if j & 2 else c[j]) * vpow
    cos, sin = [0] * (n + 2), [0] * (n + 2)
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    for e in range(-n, n + 1, 2):
        d = ((acc + half) & mask) - half
        acc = (acc - d) >> bits
        cos[abs(e)] += d
        sin[abs(e)] += d if e > 0 else -d
    return cos, [0, *sin[1:]]


def homog_to_trig(p: HomogPoly) -> TrigPoly:
    """Exact Fourier form of ``p(cos t, sin t)``.

    >>> print(homog_to_trig(HomogPoly.monomial(3, 1)))  # x^2 y
    1/4*sin(1t) + 1/4*sin(3t)
    """
    c, den = _scaled(p.coeffs)
    return TrigPoly._from_ints(*_circle_ints(c), den << p.degree)


def compute_AB(system: PlanarSystem) -> tuple[TrigPoly, TrigPoly]:
    """Circle functions A = (xP + yQ)(cos t, sin t) and B = (xQ - yP)(cos t, sin t)."""
    n = system.n
    c, den = _scaled(system.P.coeffs + system.Q.coeffs)
    p, q = c[: n + 1], c[n + 1 :]
    # multiplying by x keeps the y-power index j, by y shifts it to j + 1
    a = [xp + yq for xp, yq in zip(p + [0], [0] + q)]
    b = [xq - yp for xq, yp in zip(q + [0], [0] + p)]
    den <<= n + 1
    return TrigPoly._from_ints(*_circle_ints(a), den), TrigPoly._from_ints(*_circle_ints(b), den)


@dataclass(frozen=True)
class PlanarReduction:
    """Provenance record attached to a scalar problem derived from a planar one."""

    n: int
    A: TrigPoly
    B: TrigPoly


@dataclass
class AbelProblem:
    """Scalar equation x' = f(t) x^3 + g(t) x^2 on the interval [-a, a].

    Coefficients are either exact :class:`TrigPoly` instances (parity and
    sup bounds are then derived automatically) or plain callables.  For
    callables the parity must be declared by the caller if a symmetry
    certificate is wanted, and sup-norm bounds must be supplied before any
    admissibility radius can be computed.
    """

    f: Coefficient
    g: Coefficient
    half_width: float = math.pi
    f_parity: Parity | None = None
    g_parity: Parity | None = None
    f_sup: float | None = None
    g_sup: float | None = None
    origin: PlanarReduction | None = None

    def __post_init__(self) -> None:
        self.half_width = _as_float(self.half_width, "half_width")
        # below the smallest normal float, a node grid on [-a, a] repeats nodes
        if not sys.float_info.min <= self.half_width <= sys.float_info.max:
            raise ValidationError("half_width must be a finite float of at least "
                                  f"{sys.float_info.min!r}, got {self.half_width!r}")
        if isinstance(self.f, TrigPoly):
            self.f_parity = self.f.parity()
            self.f_sup = self.f.linf_bound()
        if isinstance(self.g, TrigPoly):
            self.g_parity = self.g.parity()
            self.g_sup = self.g.linf_bound()

    def bounds(self) -> tuple[float, float]:
        """Sup-norm bounds (F, G) for the two coefficients."""
        if self.f_sup is None or self.g_sup is None:
            raise ValidationError("sampled coefficients need explicit f_sup/g_sup bounds")
        if not all(map(math.isfinite, (self.f_sup, self.g_sup))):
            raise ValidationError(f"sup bounds {self.f_sup}, {self.g_sup} are not both finite")
        return float(self.f_sup), float(self.g_sup)

    def f_values(self, ts: np.ndarray) -> np.ndarray:
        return _coefficient_values(self.f, ts)

    def g_values(self, ts: np.ndarray) -> np.ndarray:
        return _coefficient_values(self.g, ts)


def _coefficient_values(coef: Coefficient, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if isinstance(coef, TrigPoly):
        return coef.eval_array(ts)
    try:
        out = np.asarray(coef(ts), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != ts.shape:  # the callable was not vectorized
        out = np.fromiter((float(coef(t)) for t in ts), float, count=ts.size)
    return out


def _scalar_evaluator(coef: Coefficient) -> Callable[[float], float]:
    if isinstance(coef, TrigPoly):
        return coef.scalar_evaluator()
    return lambda t: float(coef(t))


def _value_at(coef: Coefficient, t: float) -> float:
    """coef(t); a callable, such as an evaluator built once for many calls, is called as is."""
    return float(coef(t)) if callable(coef) else _scalar_evaluator(coef)(t)


def _pair_evaluator(p: Coefficient, q: Coefficient) -> Callable[[float], tuple[float, float]]:
    """t -> (p(t), q(t)), one angle-addition run for two trig polynomials.  Its memo of the
    last t serves DOP853's last stage (c = 1) and end slope at t + h.  Build one per solve."""
    if isinstance(p, TrigPoly) and isinstance(q, TrigPoly):
        ev = _angle_addition(p, q)
    else:
        p_ev, q_ev = _scalar_evaluator(p), _scalar_evaluator(q)
        ev = lambda t: (p_ev(t), q_ev(t))
    last_t, last = math.nan, None

    def pair(t):
        nonlocal last_t, last
        if t != last_t:
            last_t, last = t, ev(t)
        return last

    return pair


def abel_from_planar(system: PlanarSystem) -> AbelProblem:
    """Exact reduction of a planar system to its scalar form on [-pi, pi].

    Both coefficients come out as trig polynomials: f = -(n-1) A B of
    degree at most 2(n+1) and g = (n-1) A - B' of degree at most n+1.
    """
    A, B = compute_AB(system)
    m, w, den = system.n - 1, max(len(A.num_cos), len(B.num_cos)), math.lcm(A.den, B.den)
    a, b = A._over(den, w), B._over(den, w)
    ac, as_, bc, bs = a[:w], a[w:], b[:w], b[w:]
    cos, sin = _mul_ints(ac, as_, bc, bs)  # numerators of AB over 2 den^2
    f = TrigPoly._from_ints([-m * v for v in cos], [-m * v for v in sin], 2 * den * den)
    # B' has k*bs[k] on cos(kt) and -k*bc[k] on sin(kt)
    gc = [m * a - k * b for k, (a, b) in enumerate(zip(ac, bs))]
    g = TrigPoly._from_ints(gc, [m * a + k * b for k, (a, b) in enumerate(zip(as_, bc))], den)
    return AbelProblem(
        f=f,
        g=g,
        half_width=math.pi,
        origin=PlanarReduction(n=system.n, A=A, B=B),
    )


def cherkas_forward(r: float, theta: float, B: Coefficient, n: int) -> float:
    """Map a radius to the scalar variable gamma = r^(n-1)/(1 + B r^(n-1)).

    Defined only where the angular speed 1 + B(theta) r^(n-1) is positive;
    outside that region :class:`OutsideMonotoneRegion` is raised.
    """
    r, theta = _as_float(r, "r"), _as_float(theta, "theta")
    if r < 0:
        raise ValidationError("radius must be nonnegative")
    if n < 2:
        raise ValidationError("degree must be >= 2")
    u = r ** (n - 1)
    denom = 1.0 + _value_at(B, theta) * u
    if denom <= 0.0:
        raise OutsideMonotoneRegion(
            f"1 + B({theta:.6g}) * r^{n - 1} = {denom:.6g} <= 0 at r={r:.6g}"
        )
    return u / denom


def cherkas_inverse(gamma: float, theta: float, B: Coefficient, n: int) -> float:
    """Inverse of :func:`cherkas_forward`: recover r from gamma.

    Requires gamma >= 0 and 1 - B(theta) gamma > 0 (the image of the
    forward map); otherwise :class:`OutsideTransformImage` is raised.
    """
    gamma, theta = _as_float(gamma, "gamma"), _as_float(theta, "theta")
    if n < 2:
        raise ValidationError("degree must be >= 2")
    if gamma < 0:
        raise OutsideTransformImage(f"gamma={gamma:.6g} is negative")
    denom = 1.0 - _value_at(B, theta) * gamma
    if denom <= 0.0:
        raise OutsideTransformImage(
            f"1 - B({theta:.6g}) * gamma = {denom:.6g} <= 0 at gamma={gamma:.6g}"
        )
    return (gamma / denom) ** (1.0 / (n - 1))
