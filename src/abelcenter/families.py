"""Closed-form coefficient families for free-standing scalar problems.

Two small parametric families cover the non-planar test corpus without
needing an expression parser:

* ``cos2pit`` — 1-periodic trigonometric series
  c0 + c1 cos(2 pi t) + c2 sin(2 pi t) + c3 cos(4 pi t) + ... on a
  symmetric interval (default [-1/2, 1/2], one full period);
* ``poly`` — ordinary polynomials c0 + c1 t + c2 t^2 + ... (default
  interval [-1, 1]).

In both cases the parity of the function and an exact sup-norm bound
are read straight off the coefficient list, so the resulting
:class:`~abelcenter.reduction.AbelProblem` arrives fully declared and
the certification layer can spot-check the declarations numerically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .reduction import AbelProblem
from .trigpoly import Parity, _parity

__all__ = ["cos2pit_problem", "poly_problem"]


def _parse_coeffs(values: Sequence, label: str) -> list[float]:
    out = []
    for v in values:
        try:
            out.append(float(Fraction(v)) if isinstance(v, str) else float(v))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ValidationError(f"bad coefficient {v!r} in {label}: {exc}") from exc
        if not math.isfinite(out[-1]):
            raise ValidationError(f"coefficient {v!r} in {label} is not finite")
    return out


def _trig_series_evaluator(coeffs: list[float]):
    terms = [
        (c, (i + 1) // 2, i % 2 == 1)
        for i, c in enumerate(coeffs)
        if i > 0 and c != 0.0
    ]
    constant = coeffs[0] if coeffs else 0.0

    def ev(t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, constant)
        for c, k, is_cos in terms:
            w = 2.0 * math.pi * k
            out += c * (np.cos(w * t) if is_cos else np.sin(w * t))
        return out if out.shape else float(out)

    return ev


def cos2pit_problem(
    f_coeffs: Sequence, g_coeffs: Sequence, half_width: float = 0.5
) -> AbelProblem:
    """Scalar problem with 1-periodic trigonometric coefficients.

    Coefficient lists alternate cosine/sine after the constant:
    ``[c0, c1, c2, c3, c4]`` means
    c0 + c1 cos(2 pi t) + c2 sin(2 pi t) + c3 cos(4 pi t) + c4 sin(4 pi t).
    """
    fc = _parse_coeffs(f_coeffs, "f")
    gc = _parse_coeffs(g_coeffs, "g")

    def parity(c: list[float]) -> Parity:
        # the constant and the cosines are even, the sines odd
        return _parity(any(c[:1]) or any(c[1::2]), any(c[2::2]))

    return AbelProblem(
        f=_trig_series_evaluator(fc),
        g=_trig_series_evaluator(gc),
        half_width=float(half_width),
        f_parity=parity(fc),
        g_parity=parity(gc),
        f_sup=sum(abs(c) for c in fc),
        g_sup=sum(abs(c) for c in gc),
    )


def poly_problem(
    f_coeffs: Sequence, g_coeffs: Sequence, half_width: float = 1.0
) -> AbelProblem:
    """Scalar problem with polynomial coefficients sum_i c_i t^i."""
    fc = _parse_coeffs(f_coeffs, "f")
    gc = _parse_coeffs(g_coeffs, "g")
    a = float(half_width)

    def ev(coeffs: list[float]):
        arr = np.asarray(coeffs if coeffs else [0.0])
        return lambda t: np.polynomial.polynomial.polyval(
            np.asarray(t, dtype=float), arr
        )

    return AbelProblem(
        f=ev(fc),
        g=ev(gc),
        half_width=a,
        f_parity=_parity(any(fc[::2]), any(fc[1::2])),
        g_parity=_parity(any(gc[::2]), any(gc[1::2])),
        f_sup=sum(abs(c) * a**i for i, c in enumerate(fc)),
        g_sup=sum(abs(c) * a**i for i, c in enumerate(gc)),
    )
