"""Exact arithmetic on trigonometric polynomials with rational coefficients.

A trigonometric polynomial of degree N is

    p(t) = a_0 + sum_{k=1}^{N} ( a_k cos(k t) + b_k sin(k t) )

with every coefficient an exact ``fractions.Fraction``.  All ring
operations (sum, product, derivative) stay in this class, so identities
such as parity and cube-proportionality can be decided by coefficient
inspection rather than by floating-point heuristics.  Products are
expanded through the product-to-sum identities

    cos j cos k = (cos(j-k) + cos(j+k)) / 2
    sin j sin k = (cos(j-k) - cos(j+k)) / 2
    sin j cos k = (sin(j-k) + sin(j+k)) / 2

on integer numerators over each operand's lcm denominator, so Fractions
appear only at the boundary: one per output coefficient.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = ["Parity", "TrigPoly", "proportional_to_cube"]

RationalLike = Union[Fraction, int, str]
_ZERO = Fraction(0)


def _scaled(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over their lcm denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _frac(value: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Parity(enum.Enum):
    """Symmetry of a function on a symmetric interval around 0."""

    EVEN = "even"
    ODD = "odd"
    ZERO = "zero"
    NEITHER = "neither"


@dataclass(frozen=True)
class TrigPoly:
    """Canonical-form trigonometric polynomial.

    ``cos[k]`` multiplies cos(k t) (``cos[0]`` is the constant term) and
    ``sin[k]`` multiplies sin(k t); ``sin[0]`` is identically zero and is
    kept only so the two tuples share indexing.  Trailing harmonics whose
    cosine and sine coefficients are both zero are trimmed, so structural
    equality of two instances is exactly equality of the functions.

    >>> p = TrigPoly.cosine(1)
    >>> print(p * p)
    1/2 + 1/2*cos(2t)
    >>> (p * p).mean_value()
    Fraction(1, 2)
    """

    cos: tuple[Fraction, ...]
    sin: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cos = tuple(_frac(c) for c in self.cos)
        sin = tuple(_frac(s) for s in self.sin)
        width = max(len(cos), len(sin), 1)
        if sin and sin[0] != 0:
            raise ValueError("sin(0*t) term must be zero")
        self._set(cos + (_ZERO,) * (width - len(cos)), sin + (_ZERO,) * (width - len(sin)))

    def _set(self, cos: tuple, sin: tuple) -> "TrigPoly":
        width = len(cos)
        while width > 1 and not cos[width - 1] and not sin[width - 1]:
            width -= 1
        object.__setattr__(self, "cos", cos[:width])
        object.__setattr__(self, "sin", sin[:width])
        return self

    @classmethod
    def _make(cls, cos: tuple, sin: tuple) -> "TrigPoly":
        """For ring results: equal-length Fraction tuples, sin[0] == 0; no re-coercion."""
        return object.__new__(cls)._set(cos, sin)

    @classmethod
    def _from_ints(cls, cos: list[int], sin: list[int], den: int) -> "TrigPoly":
        """Coefficients ``cos[k]/den`` and ``sin[k]/den``; ``sin[0]`` is dropped."""
        cos = tuple(Fraction(c, den) for c in cos)
        return cls._make(cos, (_ZERO, *(Fraction(v, den) for v in sin[1:])))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls((Fraction(0),), (Fraction(0),))

    @classmethod
    def constant(cls, c: RationalLike) -> "TrigPoly":
        return cls((_frac(c),), (Fraction(0),))

    @classmethod
    def cosine(cls, k: int = 1, c: RationalLike = 1) -> "TrigPoly":
        """c * cos(k t)"""
        if k < 0:
            raise ValueError("harmonic index must be >= 0")
        return cls((0,) * k + (c,), (0,))

    @classmethod
    def sine(cls, k: int, c: RationalLike = 1) -> "TrigPoly":
        """c * sin(k t)"""
        if k < 1:
            raise ValueError("harmonic index must be >= 1 for sine terms")
        return cls((0,), (0,) * k + (c,))

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self) -> int:
        return len(self.cos) - 1

    def is_zero(self) -> bool:
        return not any(self.cos) and not any(self.sin)

    def cos_coeff(self, k: int) -> Fraction:
        """Coefficient of cos(k t), zero beyond the stored degree."""
        return self.cos[k] if 0 <= k < len(self.cos) else Fraction(0)

    def sin_coeff(self, k: int) -> Fraction:
        """Coefficient of sin(k t), zero beyond the stored degree."""
        return self.sin[k] if 1 <= k < len(self.sin) else Fraction(0)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        width = max(len(self.cos), len(other.cos))
        cos = tuple(self.cos_coeff(k) + other.cos_coeff(k) for k in range(width))
        sin = tuple(self.sin_coeff(k) + other.sin_coeff(k) for k in range(width))
        return TrigPoly._make(cos, sin)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._make(tuple(-c for c in self.cos), tuple(-s for s in self.sin))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["TrigPoly", RationalLike]) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            c = _frac(other)
            return TrigPoly._make(tuple(a * c for a in self.cos), tuple(v * c for v in self.sin))
        n1, n2 = len(self.cos), len(other.cos)
        x, dx = _scaled(self.cos + self.sin)
        y, dy = _scaled(other.cos + other.sin)
        ys = list(zip(y[:n2], y[n2:]))
        cos = [0] * (n1 + n2 - 1)
        sin = [0] * (n1 + n2 - 1)
        for j, (cj, sj) in enumerate(zip(x[:n1], x[n1:])):
            if not cj and not sj:
                continue
            for k, (ck, sk) in enumerate(ys):
                cc, ss, sc, cs = cj * ck, sj * sk, sj * ck, cj * sk
                cos[j + k] += cc - ss
                sin[j + k] += sc + cs
                if j >= k:
                    cos[j - k] += cc + ss
                    sin[j - k] += sc - cs
                else:
                    cos[k - j] += cc + ss
                    sin[k - j] -= sc - cs
        return TrigPoly._from_ints(cos, sin, 2 * dx * dy)

    __rmul__ = __mul__

    def derivative(self) -> "TrigPoly":
        """Exact derivative; the constant term of the result is always 0.

        >>> print(TrigPoly.cosine(4, Fraction(1, 8)).derivative())
        -1/2*sin(4t)
        """
        cos = tuple(k * v for k, v in enumerate(self.sin))
        sin = tuple(-k * c for k, c in enumerate(self.cos))
        return TrigPoly._make(cos, sin)

    def mean_value(self) -> Fraction:
        """Average over a full period: exactly the constant coefficient."""
        return self.cos[0]

    # ------------------------------------------------------------------
    # analysis

    def parity(self) -> Parity:
        """Parity under t -> -t, decided exactly from the coefficients."""
        has_cos = any(self.cos)
        has_sin = any(self.sin)
        if not has_cos and not has_sin:
            return Parity.ZERO
        if not has_cos:
            return Parity.ODD
        if not has_sin:
            return Parity.EVEN
        return Parity.NEITHER

    def linf_bound(self) -> float:
        """Upper bound for sup |p| : the l1 norm of the coefficients."""
        total = sum(abs(c) for c in self.cos) + sum(abs(s) for s in self.sin)
        return float(total)

    def eval(self, t: float) -> float:
        """Evaluate at a single point in floating point."""
        total = float(self.cos[0])
        for k in range(1, len(self.cos)):
            if self.cos[k]:
                total += float(self.cos[k]) * math.cos(k * t)
            if self.sin[k]:
                total += float(self.sin[k]) * math.sin(k * t)
        return total

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of points."""
        ts = np.asarray(ts, dtype=float)
        a, b = self.float_coeffs()
        k = np.arange(len(a))
        angles = np.multiply.outer(ts, k)
        return np.cos(angles) @ a + np.sin(angles) @ b

    def float_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients as float arrays (cosine row, sine row)."""
        a = np.array([float(c) for c in self.cos])
        b = np.array([float(s) for s in self.sin])
        return a, b

    # ------------------------------------------------------------------
    # serialization / display

    def to_json_dict(self) -> dict:
        """Wire format: ``{"a": ["num/den", ...], "b": [...]}`` with
        ``a = [a_0 .. a_N]`` and ``b = [b_1 .. b_N]``."""
        return {
            "a": [str(c) for c in self.cos],
            "b": [str(s) for s in self.sin[1:]],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrigPoly":
        if not isinstance(data, dict) or "a" not in data or "b" not in data:
            raise ValueError("trig polynomial JSON must have 'a' and 'b' lists")
        cos = tuple(_frac(v) for v in data["a"])
        sin = (Fraction(0),) + tuple(_frac(v) for v in data["b"])
        return cls(cos, sin)

    def __str__(self) -> str:
        parts: list[str] = []
        if self.cos[0] or self.is_zero():
            parts.append(str(self.cos[0]))
        for k in range(1, len(self.cos)):
            if self.cos[k]:
                parts.append(f"{self.cos[k]}*cos({k}t)")
            if self.sin[k]:
                parts.append(f"{self.sin[k]}*sin({k}t)")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def proportional_to_cube(h: TrigPoly, g: TrigPoly) -> Fraction | None:
    """Exact rational ``a`` with ``h = a * g**3``, or None if none exists.

    The cube is expanded exactly, a candidate ratio is read off the first
    nonzero coefficient, and the full identity is then checked
    coefficient-by-coefficient.  When both ``h`` and ``g**3`` vanish the
    constant 0 is returned by convention.
    """
    g3 = g * g * g
    if g3.is_zero():
        return Fraction(0) if h.is_zero() else None
    k = next(k for k, (c, v) in enumerate(zip(g3.cos, g3.sin)) if c or v)
    ratio = h.cos_coeff(k) / g3.cos[k] if g3.cos[k] else h.sin_coeff(k) / g3.sin[k]
    return ratio if h == g3 * ratio else None
