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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .errors import OutsideMonotoneRegion, OutsideTransformImage, ValidationError
from .trigpoly import Parity, TrigPoly, _frac, _scaled

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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @classmethod
    def zero(cls, degree: int) -> "HomogPoly":
        return cls((Fraction(0),) * (degree + 1))

    @classmethod
    def monomial(cls, degree: int, y_power: int, c=1) -> "HomogPoly":
        """c * x^(degree - y_power) * y^y_power"""
        if not 0 <= y_power <= degree:
            raise ValidationError("y power must lie between 0 and the degree")
        return cls((0,) * y_power + (c,) + (0,) * (degree - y_power))

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return NotImplemented
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                if cj:
                    out[i + j] += ci * cj
        return HomogPoly(tuple(out))

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if other.degree != self.degree:
            raise ValidationError("cannot add homogeneous polynomials of unequal degree")
        return HomogPoly(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def eval(self, x: float, y: float) -> float:
        n = self.degree
        total = 0.0
        for j, c in enumerate(self.coeffs):
            if c:
                total += float(c) * x ** (n - j) * y**j
        return total

    def to_json_list(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json_list(cls, data: list) -> "HomogPoly":
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
            n = int(data["n"])
            P = HomogPoly.from_json_list(data["P"])
            Q = HomogPoly.from_json_list(data["Q"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed planar system payload: {exc}") from exc
        return cls(n=n, P=P, Q=Q)


def homog_to_trig(p: HomogPoly) -> TrigPoly:
    """Exact Fourier form of ``p(cos t, sin t)``, e.g. x^2 y -> sin(t)/4 + sin(3t)/4.

    With z = e^(it), u = z + 1/z and v = z - 1/z, the real Laurent polynomial
    T = sum_j (-1)^(j//2) c_j u^(n-j) v^j has a palindromic even-j part (the
    cosines) and an antipalindromic odd-j part (the sines), so
    a_k = (T_k + T_-k) / 2^n and b_k = (T_k - T_-k) / 2^n.  T is built by
    Horner's rule on integer numerators: O(n^2) int operations.
    """
    n = p.degree
    c, den = _scaled(p.coeffs)
    # index n + 1 + e holds the coefficient of z^e; one zero pad at each end
    total, vpow = [0] * (2 * n + 3), [0] * (2 * n + 3)
    total[n + 1], vpow[n + 1] = c[0], 1
    for j in range(1, n + 1):
        total = [0] + [a + b for a, b in zip(total, total[2:])] + [0]
        vpow = [0] + [a - b for a, b in zip(vpow, vpow[2:])] + [0]
        if c[j]:
            cj = -c[j] if j % 4 >= 2 else c[j]
            total = [t + cj * v for t, v in zip(total, vpow)]
    pos, neg = total[n + 1 :], total[n + 1 :: -1]
    cos = [pos[0]] + [a + b for a, b in zip(pos[1:], neg[1:])]
    return TrigPoly._from_ints(cos, [a - b for a, b in zip(pos, neg)], den << n)


def compute_AB(system: PlanarSystem) -> tuple[TrigPoly, TrigPoly]:
    """Circle functions A = homog_to_trig(xP + yQ) and B = homog_to_trig(xQ - yP)."""
    x, y = HomogPoly.monomial(1, 0), HomogPoly.monomial(1, 1)
    A = homog_to_trig(x * system.P + y * system.Q)
    B = homog_to_trig(x * system.Q + HomogPoly.monomial(1, 1, -1) * system.P)
    return A, B


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
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValidationError("half_width must be positive and finite")
        if isinstance(self.f, TrigPoly):
            self.f_parity = self.f.parity()
            self.f_sup = self.f.linf_bound()
        if isinstance(self.g, TrigPoly):
            self.g_parity = self.g.parity()
            self.g_sup = self.g.linf_bound()

    def bounds(self) -> tuple[float, float]:
        """Sup-norm bounds (F, G) for the two coefficients."""
        if self.f_sup is None or self.g_sup is None:
            raise ValidationError(
                "sampled coefficients need explicit f_sup/g_sup bounds"
            )
        return float(self.f_sup), float(self.g_sup)

    def f_values(self, ts: np.ndarray) -> np.ndarray:
        return _coefficient_values(self.f, ts)

    def g_values(self, ts: np.ndarray) -> np.ndarray:
        return _coefficient_values(self.g, ts)

    def evaluators(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """Fast scalar evaluators for the integrator's right-hand side."""
        return _scalar_evaluator(self.f), _scalar_evaluator(self.g)


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
        # cos(kt), sin(kt) by angle addition from one cos/sin pair, in
        # plain floats: tiny numpy arrays cost more than the arithmetic
        a0 = float(coef.cos[0])
        pairs = [(float(c), float(s)) for c, s in zip(coef.cos[1:], coef.sin[1:])]

        def ev(t: float) -> float:
            c1 = math.cos(t)
            s1 = math.sin(t)
            ck, sk = c1, s1
            total = a0
            for a, b in pairs:
                total += a * ck + b * sk
                ck, sk = ck * c1 - sk * s1, sk * c1 + ck * s1
            return total

        return ev
    return lambda t: float(coef(t))


def abel_from_planar(system: PlanarSystem) -> AbelProblem:
    """Exact reduction of a planar system to its scalar form on [-pi, pi].

    Both coefficients come out as trig polynomials: f = -(n-1) A B of
    degree at most 2(n+1) and g = (n-1) A - B' of degree at most n+1.
    """
    A, B = compute_AB(system)
    m = system.n - 1
    f = A * B * Fraction(-m)
    g = A * Fraction(m) - B.derivative()
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
    if r < 0:
        raise ValidationError("radius must be nonnegative")
    if n < 2:
        raise ValidationError("degree must be >= 2")
    u = r ** (n - 1)
    b = B.eval(theta) if isinstance(B, TrigPoly) else float(B(theta))
    denom = 1.0 + b * u
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
    if n < 2:
        raise ValidationError("degree must be >= 2")
    if gamma < 0:
        raise OutsideTransformImage(f"gamma={gamma:.6g} is negative")
    b = B.eval(theta) if isinstance(B, TrigPoly) else float(B(theta))
    denom = 1.0 - b * gamma
    if denom <= 0.0:
        raise OutsideTransformImage(
            f"1 - B({theta:.6g}) * gamma = {denom:.6g} <= 0 at gamma={gamma:.6g}"
        )
    return (gamma / denom) ** (1.0 / (n - 1))
