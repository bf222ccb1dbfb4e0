"""Closed-form coefficient families for free-standing scalar problems.

Two small parametric families cover the non-planar test corpus without
needing an expression parser:

* ``cos2pit`` — 1-periodic trigonometric series
  c0 + c1 cos(2 pi t) + c2 sin(2 pi t) + c3 cos(4 pi t) + ... on a
  symmetric interval (default [-1/2, 1/2], one full period);
* ``poly`` — ordinary polynomials c0 + c1 t + c2 t^2 + ... (default
  interval [-1, 1]).

The cos2pit series are held as exact :class:`~abelcenter.trigpoly.TrigPoly`
instances in s = 2 pi t, so their parity and sup-norm bound come from
``parity()`` and ``linf_bound()`` and every evaluation is ``trigpoly``'s
angle addition; the poly family reads them off the coefficient list.  Either
way the resulting :class:`~abelcenter.reduction.AbelProblem` arrives fully
declared and the certification layer can spot-check the declarations
numerically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError, _as_float
from .reduction import AbelProblem, _coefficient_values
from .trigpoly import TrigPoly, _angle_addition, _parity

__all__ = ["cos2pit_problem", "poly_problem"]

_TWO_PI = 2.0 * math.pi


def _parse_coeffs(values: Sequence, label: str) -> list[float]:
    if not isinstance(values, (list, tuple)):  # a string would read as its digits
        raise ValidationError(f"{label} coefficients must be a list, got {values!r}")
    out = []
    for v in values:
        try:
            if isinstance(v, bool):
                raise TypeError("a bool is not a number")
            out.append(float(Fraction(v)) if isinstance(v, str) else float(v))
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise ValidationError(f"bad coefficient {v!r} in {label}: {exc}") from exc
        if not math.isfinite(out[-1]):
            raise ValidationError(f"coefficient {v!r} in {label} is not finite")
    return out


def _poly_sup(coeffs: list[float], a: float) -> float:
    """sum |c_i| a^i, a bound for sup |p| on [-a, a] (inf beyond floats)."""
    try:
        return sum(abs(c) * a**i for i, c in enumerate(coeffs) if c)
    except OverflowError:
        return math.inf


def _series_in_2pi_t(values: Sequence, label: str):
    """``[c0, c1, c2, c3, ...]`` as the exact series c0 + c1 cos(s) + c2 sin(s) +
    c3 cos(2s) + ... in s = 2 pi t, and as a function of t for scalars and arrays.

    The parsed floats are dyadic rationals, so each ``Fraction`` is exact
    and evaluation sees the same coefficient floats.
    """
    c = [Fraction(v) for v in _parse_coeffs(values, label)]
    series = TrigPoly((*c[:1], *c[1::2]), (0, *c[2::2]))

    scalar = _angle_addition(series)

    def of_t(t):
        if isinstance(t, float):
            return scalar(_TWO_PI * t)
        return _coefficient_values(series, _TWO_PI * np.asarray(t, dtype=float))

    return series, of_t


def cos2pit_problem(
    f_coeffs: Sequence, g_coeffs: Sequence, half_width: float = 0.5
) -> AbelProblem:
    """Scalar problem with 1-periodic trigonometric coefficients.

    Coefficient lists alternate cosine/sine after the constant:
    ``[c0, c1, c2, c3, c4]`` means
    c0 + c1 cos(2 pi t) + c2 sin(2 pi t) + c3 cos(4 pi t) + c4 sin(4 pi t).
    With s = 2 pi t, f = sin(s) below is odd and g = 1 + cos(s)/2 is even:

    >>> problem = cos2pit_problem([0, 0, 1], [1, "1/2"])
    >>> problem.f_parity, problem.g_parity
    (<Parity.ODD: 'odd'>, <Parity.EVEN: 'even'>)
    >>> problem.f(0.25), problem.g(0.5)  # sin(pi/2), 1 + cos(pi)/2
    (1.0, 0.5)
    """
    f, f_of_t = _series_in_2pi_t(f_coeffs, "f")
    g, g_of_t = _series_in_2pi_t(g_coeffs, "g")
    return AbelProblem(
        f=f_of_t,
        g=g_of_t,
        half_width=half_width,
        f_parity=f.parity(),
        g_parity=g.parity(),
        f_sup=f.linf_bound(),
        g_sup=g.linf_bound(),
    )


def poly_problem(
    f_coeffs: Sequence, g_coeffs: Sequence, half_width: float = 1.0
) -> AbelProblem:
    """Scalar problem with polynomial coefficients sum_i c_i t^i."""
    fc = _parse_coeffs(f_coeffs, "f")
    gc = _parse_coeffs(g_coeffs, "g")
    a = _as_float(half_width, "half_width")

    def ev(coeffs: list[float]):
        top, *rest = (coeffs or [0.0])[::-1]

        def of_t(t):  # polyval's Horner order; a float t stays a plain float
            t = t if isinstance(t, float) else np.asarray(t, dtype=float)
            acc = top + t * 0
            for c in rest:
                acc = c + acc * t
            return acc

        return of_t

    return AbelProblem(
        f=ev(fc),
        g=ev(gc),
        half_width=a,
        f_parity=_parity(any(fc[::2]), any(fc[1::2])),
        g_parity=_parity(any(gc[::2]), any(gc[1::2])),
        f_sup=_poly_sup(fc, a),
        g_sup=_poly_sup(gc, a),
    )
