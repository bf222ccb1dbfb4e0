"""Exact arithmetic on trigonometric polynomials with rational coefficients.

A trigonometric polynomial of degree N is

    p(t) = a_0 + sum_{k=1}^{N} ( a_k cos(k t) + b_k sin(k t) )

with every coefficient exact.  A :class:`TrigPoly` stores integer numerator
rows over one positive denominator, in lowest terms, and every ring operation
(sum, product, derivative) works on those integers, so parity and
cube-proportionality are decided by coefficient inspection rather than by
floating-point heuristics.  Products use the product-to-sum identities

    cos j cos k = (cos(j-k) + cos(j+k)) / 2
    sin j sin k = (cos(j-k) - cos(j+k)) / 2
    sin j cos k = (sin(j-k) + sin(j+k)) / 2

on the numerators.  Fractions appear only at the boundary: the inputs, the
``cos``/``sin`` views and ``mean_value``.

>>> p = TrigPoly((Fraction(1, 2), 0, Fraction(1, 3)), (0, Fraction(-1, 6)))
>>> p.num_cos, p.num_sin, p.den
((3, 0, 2), (0, -1, 0), 6)
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import ValidationError, _as_count

__all__ = ["Parity", "TrigPoly", "proportional_to_cube"]

RationalLike = Union[Fraction, int, str]


def _scaled(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` (Fractions or ints) over their lcm denominator."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _mul_ints(xc: list[int], xs: list[int], yc: list[int], ys: list[int]):
    """Cosine and sine rows of 2xy for integer rows x = (xc, xs), y = (yc, ys)."""
    cos = [0] * (len(xc) + len(yc) - 1)
    sin = [0] * (len(xc) + len(yc) - 1)
    pairs = list(zip(yc, ys))
    for j, (cj, sj) in enumerate(zip(xc, xs)):
        if not cj and not sj:
            continue
        for k, (ck, sk) in enumerate(pairs):
            cc, ss, sc, cs = cj * ck, sj * sk, sj * ck, cj * sk
            cos[j + k] += cc - ss
            sin[j + k] += sc + cs
            if j >= k:
                cos[j - k] += cc + ss
                sin[j - k] += sc - cs
            else:
                cos[k - j] += cc + ss
                sin[k - j] -= sc - cs
    return cos, sin


def _frac(value: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction; not bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"expected an exact rational, got the bool {value!r}")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Parity(enum.Enum):
    """Symmetry of a function on a symmetric interval around 0."""

    EVEN = "even"
    ODD = "odd"
    ZERO = "zero"
    NEITHER = "neither"


def _parity(has_even: bool, has_odd: bool) -> Parity:
    """Parity of a sum of an even part and an odd part, from which of them is nonzero."""
    if not has_even:
        return Parity.ODD if has_odd else Parity.ZERO
    return Parity.NEITHER if has_odd else Parity.EVEN


@dataclass(frozen=True, init=False)
class TrigPoly:
    """Canonical-form trigonometric polynomial.

    ``num_cos[k] / den`` multiplies cos(k t) (k = 0 is the constant term) and
    ``num_sin[k] / den`` multiplies sin(k t), with ``num_sin[0] == 0``.  The
    denominator is positive and coprime to the numerators as a whole, and
    trailing zero harmonics are trimmed, so structural equality is exactly
    equality of the functions.  ``cos`` and ``sin`` are the rows as Fractions.

    >>> p = TrigPoly.cosine(1)
    >>> print(p * p)
    1/2 + 1/2*cos(2t)
    >>> (p * p).mean_value()
    Fraction(1, 2)
    """

    num_cos: tuple[int, ...]
    num_sin: tuple[int, ...]
    den: int

    def __init__(self, cos: Sequence[RationalLike], sin: Sequence[RationalLike]) -> None:
        cos, sin = [_frac(c) for c in cos], [_frac(s) for s in sin]
        if sin and sin[0] != 0:
            raise ValueError("sin(0*t) term must be zero")
        w = max(len(cos), len(sin), 1)
        x, den = _scaled(cos + [0] * (w - len(cos)) + sin + [0] * (w - len(sin)))
        self._set(x[:w], x[w:], den)

    def _set(self, cos: Sequence[int], sin: Sequence[int], den: int) -> "TrigPoly":
        w = len(cos)
        while w > 1 and not cos[w - 1] and not sin[w - 1]:
            w -= 1
        d = math.gcd(den, *cos[:w], *sin[1:w])
        if d == 1:
            cos, sin = cos[:w], sin[1:w]
        else:
            cos, sin, den = [c // d for c in cos[:w]], [s // d for s in sin[1:w]], den // d
        self.__dict__.update(num_cos=tuple(cos), num_sin=(0, *sin), den=den)
        return self

    @classmethod
    def _from_ints(cls, cos: Sequence[int], sin: Sequence[int], den: int) -> "TrigPoly":
        """Coefficients ``cos[k]/den``, ``sin[k]/den`` (equal-length rows, den > 0)."""
        return object.__new__(cls)._set(cos, sin, den)

    def _over(self, den: int, w: int) -> list[int]:
        """Cosine and sine rows over ``den``, a multiple of ``self.den``, padded to width w."""
        m, pad = den // self.den, (0,) * (w - len(self.num_cos))
        return [v * m for v in (*self.num_cos, *pad, *self.num_sin, *pad)]

    @functools.cached_property
    def cos(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num_cos)

    @functools.cached_property
    def sin(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, self.den) for s in self.num_sin)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls((0,), (0,))

    @classmethod
    def constant(cls, c: RationalLike) -> "TrigPoly":
        return cls((c,), (0,))

    @classmethod
    def cosine(cls, k: int = 1, c: RationalLike = 1) -> "TrigPoly":
        """c * cos(k t)"""
        _as_count(k, "k", 0)
        return cls((0,) * k + (c,), (0,))

    @classmethod
    def sine(cls, k: int, c: RationalLike = 1) -> "TrigPoly":
        """c * sin(k t)"""
        _as_count(k, "k", 1)
        return cls((0,), (0,) * k + (c,))

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self) -> int:
        return len(self.num_cos) - 1

    def is_zero(self) -> bool:
        return not any(self.num_cos) and not any(self.num_sin)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        den, w = math.lcm(self.den, other.den), max(self.degree, other.degree) + 1
        x = [a + b for a, b in zip(self._over(den, w), other._over(den, w))]
        return TrigPoly._from_ints(x[:w], x[w:], den)

    def __neg__(self) -> "TrigPoly":
        cos, sin = [-c for c in self.num_cos], [-s for s in self.num_sin]
        return TrigPoly._from_ints(cos, sin, self.den)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["TrigPoly", RationalLike]) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            c, w = _frac(other), len(self.num_cos)
            x = [v * c.numerator for v in self.num_cos + self.num_sin]
            return TrigPoly._from_ints(x[:w], x[w:], self.den * c.denominator)
        cos, sin = _mul_ints(self.num_cos, self.num_sin, other.num_cos, other.num_sin)
        return TrigPoly._from_ints(cos, sin, 2 * self.den * other.den)

    __rmul__ = __mul__

    def derivative(self) -> "TrigPoly":
        """Exact derivative; the constant term of the result is always 0.

        >>> print(TrigPoly.cosine(4, Fraction(1, 8)).derivative())
        -1/2*sin(4t)
        """
        cos = [k * v for k, v in enumerate(self.num_sin)]
        sin = [-k * c for k, c in enumerate(self.num_cos)]
        return TrigPoly._from_ints(cos, sin, self.den)

    def mean_value(self) -> Fraction:
        """Average over a full period: exactly the constant coefficient."""
        return Fraction(self.num_cos[0], self.den)

    # ------------------------------------------------------------------
    # analysis

    def parity(self) -> Parity:
        """Parity under t -> -t, decided exactly from the coefficients."""
        return _parity(any(self.num_cos), any(self.num_sin))

    def linf_bound(self) -> float:
        """Upper bound for sup |p| : the l1 norm of the coefficients (inf beyond floats)."""
        try:
            return (sum(map(abs, self.num_cos)) + sum(map(abs, self.num_sin))) / self.den
        except OverflowError:
            return math.inf

    @functools.cached_property
    def _floats(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Cosine and sine rows as floats, converted once per instance."""
        d = self.den  # int / int rounds correctly, as float(Fraction) does
        try:
            return tuple(c / d for c in self.num_cos), tuple(s / d for s in self.num_sin)
        except OverflowError:
            raise ValidationError("a coefficient lies beyond the float range") from None

    def eval(self, t: float) -> float:
        """One ``cos``/``sin`` call per term: the reference of the tests and the bench oracle."""
        a, b = self._floats
        total = a[0]
        for k in range(1, len(a)):
            if a[k]:
                total += a[k] * math.cos(k * t)
            if b[k]:
                total += b[k] * math.sin(k * t)
        return total

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
        if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in "ab"):
            raise ValueError("trig polynomial JSON must have 'a' and 'b' lists")
        return cls(data["a"], [0, *data["b"]])

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


def _angle_addition(p: TrigPoly, q: TrigPoly | None = None) -> Callable:
    """t -> p(t), or (p(t), q(t)) given q, by angle addition from one cos/sin pair in
    plain floats, or elementwise given ``np.cos`` and ``np.sin``.  Two series share the
    recurrence up to the lower degree, then the longer goes on alone: same floats."""
    rows = p._floats, ((0.0,), (0.0,)) if q is None else q._floats
    order = -1 if len(rows[1][0]) > len(rows[0][0]) else 1  # the longer series first
    (a, b), (qa, qb) = rows[::order]
    shared, tail = tuple(zip(a[1:], b[1:], qa[1:], qb[1:])), tuple(zip(a[len(qa):], b[len(qa):]))

    def ev(t, cos=math.cos, sin=math.sin):
        c1, s1 = cos(t), sin(t)
        ck, sk = c1, s1
        total, other = a[0], qa[0]
        for ak, bk, qak, qbk in shared:
            total += ak * ck + bk * sk
            other += qak * ck + qbk * sk
            ck, sk = ck * c1 - sk * s1, sk * c1 + ck * s1
        for ak, bk in tail:
            total += ak * ck + bk * sk
            ck, sk = ck * c1 - sk * s1, sk * c1 + ck * s1
        return total if q is None else (total, other)[::order]

    return ev


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
    k = next(k for k, (c, v) in enumerate(zip(g3.num_cos, g3.num_sin)) if c or v)
    hc, hs = (h.cos[k], h.sin[k]) if k <= h.degree else (0, 0)
    ratio = hc / g3.cos[k] if g3.num_cos[k] else hs / g3.sin[k]
    return ratio if h == g3 * ratio else None
