"""Symbolic certification layer for centers and foci.

Three exact tests form one decision chain, run in this order; the first
that holds decides, and its basis backs one verdict of a :class:`Certificate`:

* **planar parity** — if P(cos t, sin t) is odd and Q(cos t, sin t) is
  even (as periodic functions of t), the origin is a center;
* **nonzero mean** — if the radial circle function A has nonzero mean,
  the origin is a focus;
* **odd coefficients** — if both coefficients of the scalar equation
  x' = f x^3 + g x^2 on [-a, a] are odd, the closed solutions are even
  and the origin is a center.  :func:`classify_abel` runs this test
  alone; :func:`classify_planar` runs it last, on the reduced pair f, g,
  which certifies the paper's subclass of planar centers.

The converses are false, so a failed test never certifies anything:
``inconclusive`` is the honest default.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ValidationError
from .reduction import AbelProblem, PlanarSystem, _spot_check_parity, abel_from_planar
from .trigpoly import Parity, TrigPoly, proportional_to_cube

__all__ = [
    "Verdict",
    "Basis",
    "Certificate",
    "classify_planar",
    "classify_abel",
    "wronskian_cube_ratio",
]


class Verdict(enum.Enum):
    CERTIFIED_CENTER = "certified_center"
    CERTIFIED_FOCUS = "certified_focus"
    INCONCLUSIVE = "inconclusive"


class Basis(enum.Enum):
    PLANAR_PARITY = "planar_parity"
    ODD_COEFFICIENTS = "odd_coefficients"
    NONZERO_MEAN = "nonzero_mean"
    NONE = "none"


_VERDICT_OF = {  # the one verdict each basis backs
    Basis.PLANAR_PARITY: Verdict.CERTIFIED_CENTER, Basis.NONZERO_MEAN: Verdict.CERTIFIED_FOCUS,
    Basis.ODD_COEFFICIENTS: Verdict.CERTIFIED_CENTER, Basis.NONE: Verdict.INCONCLUSIVE,
}


@dataclass(frozen=True)
class Certificate:
    """A verdict, the test that produced it, and the evidence it rests on.

    ``evidence`` holds only JSON-ready values (strings, bools, numbers,
    None) so certificates serialize losslessly; exact rationals appear as
    strings like ``"3/8"``.
    """

    verdict: Verdict
    basis: Basis
    evidence: dict

    def __post_init__(self) -> None:
        if _VERDICT_OF.get(self.basis) is not self.verdict:
            raise ValidationError(f"{self.basis} does not back {self.verdict}")

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "basis": self.basis.value,
            "evidence": {k: self.evidence[k] for k in sorted(self.evidence)},
        }


_ODD_OK = (Parity.ODD, Parity.ZERO)
_EVEN_OK = (Parity.EVEN, Parity.ZERO)

_ZERO_NOTE = (
    "the zero function counts as both odd and even; a vanishing P, Q, f, or g "
    "satisfies the parity hypotheses by this convention"
)


def _scalar_evidence(problem: AbelProblem, f_par, g_par) -> dict:
    """Both parities, the cube ratio of trig-polynomial f and g, the mean of A if reduced."""
    evidence = {"parity_f": "undeclared" if f_par is None else f_par.value,
                "parity_g": "undeclared" if g_par is None else g_par.value}
    if isinstance(problem.f, TrigPoly) and isinstance(problem.g, TrigPoly):
        ratio = wronskian_cube_ratio(problem.f, problem.g)
        evidence["cube_ratio"] = None if ratio is None else str(ratio)
    if problem.origin is not None:
        evidence["mean_A"] = str(problem.origin.A.mean_value())
    return evidence


def _scalar_tests(f_par, g_par) -> tuple:
    """(basis, holds) for each test on a scalar problem, in the order they run."""
    return ((Basis.ODD_COEFFICIENTS, f_par in _ODD_OK and g_par in _ODD_OK),)


def _decide(evidence: dict, *tests) -> Certificate:
    """The certificate of the first (basis, holds) test that holds, else inconclusive."""
    basis = next((basis for basis, holds in tests if holds), Basis.NONE)
    return Certificate(_VERDICT_OF[basis], basis, evidence)


def classify_planar(system: PlanarSystem) -> Certificate:
    """Certify the origin of a planar system as center, focus, or neither.

    The chain: planar parity (P odd, Q even on the unit circle), then a
    nonzero mean of A, then the scalar tests of :func:`classify_abel` on
    ``abel_from_planar(system)``; the first that holds decides, else the
    symbolic layer abstains.  The evidence records both circle parities
    and the reduced pair's scalar evidence: parities, cube ratio, mean of A.
    """
    p_par, q_par = system.P.parity(), system.Q.parity()
    problem = abel_from_planar(system)
    evidence = {"parity_P": p_par.value, "parity_Q": q_par.value,
                **_scalar_evidence(problem, problem.f_parity, problem.g_parity)}
    if Parity.ZERO in (p_par, q_par):
        evidence["note"] = _ZERO_NOTE
    return _decide(
        evidence,
        (Basis.PLANAR_PARITY, p_par in _ODD_OK and q_par in _EVEN_OK),
        (Basis.NONZERO_MEAN, evidence["mean_A"] != "0"),
        *_scalar_tests(problem.f_parity, problem.g_parity),
    )


def _resolve_parity(coef, declared: Optional[Parity], half_width: float, label: str):
    """(parity or None, provenance string) for one coefficient."""
    if isinstance(coef, TrigPoly):
        return coef.parity(), "exact"
    if declared is None:
        return None, "undeclared"
    _spot_check_parity(coef, declared, half_width, label)
    return declared, "declared"


def classify_abel(problem: AbelProblem) -> Certificate:
    """Certify the origin of a scalar problem from coefficient parity alone.

    Certifies a center when both coefficients are odd (or zero); abstains
    in every other case — even parity of both coefficients is compatible
    with a center, so no negative claim is ever made.  Trig-polynomial
    coefficients carry exact parity; sampled coefficients need a caller
    declaration, which is spot-checked at 100 points before being
    trusted (a failed check raises :class:`ValidationError`).
    """
    f_par, f_src = _resolve_parity(problem.f, problem.f_parity, problem.half_width, "f")
    g_par, g_src = _resolve_parity(problem.g, problem.g_parity, problem.half_width, "g")
    evidence = {**_scalar_evidence(problem, f_par, g_par),
                "parity_source_f": f_src, "parity_source_g": g_src}
    if Parity.ZERO in (f_par, g_par):
        evidence["note"] = _ZERO_NOTE
    return _decide(evidence, *_scalar_tests(f_par, g_par))


def wronskian_cube_ratio(f: TrigPoly, g: TrigPoly) -> Optional[Fraction]:
    """Exact ratio a with f'g - fg' = a*g^3, or None if no such constant.

    The combination f'g - fg' being a constant multiple of g^3 is the
    entry condition of a known center-classification family; callers use
    the returned constant as certificate evidence.  Follows the
    convention of :func:`~abelcenter.trigpoly.proportional_to_cube` when
    both sides vanish.  An exact integer screen at up to three points rejects
    most pairs before that test runs; it stops at the first pair of points
    whose ratios differ.
    """
    if not (isinstance(f, TrigPoly) and isinstance(g, TrigPoly)):
        raise ValidationError("the cube-ratio test needs exact trig-polynomial input")
    if _screen_rejects(f, g):
        return None
    h = f.derivative() * g - f * g.derivative()
    return proportional_to_cube(h, g)


@functools.lru_cache(maxsize=64)
def _screen_points(w: int) -> tuple:
    """(R, weights) at three points t whose cos t = p/r and sin t = q/r are
    rational: R = r^(w-1) and the integers R cos kt, R sin kt for k < w."""
    points = []
    for p, q, r in ((3, 4, 5), (-5, 12, 13), (8, -15, 17)):
        re, im, weights = 1, 0, []  # re + i im = (p + iq)^k = r^k e^(ikt)
        for k in range(w):
            weights.append((re * r ** (w - 1 - k), im * r ** (w - 1 - k)))
            re, im = re * p - im * q, re * q + im * p
        points.append((r ** (w - 1), weights))
    return tuple(points)


def _screen_rejects(f: TrigPoly, g: TrigPoly) -> bool:
    """True if exact values at up to three points t_i prove f'g - fg' is no
    constant multiple of g^3, which would make every h(t_i) g^3(t_j) - h(t_j) g^3(t_i)
    with h = f'g - fg' vanish.  The pairs (1, 2), (2, 3), (3, 1) are tested as
    soon as both points are known, and the first that differs ends the screen.
    False decides nothing."""
    rows = ((f.num_cos, f.num_sin), (g.num_cos, g.num_sin))
    values = []  # R h(t_i) and g^3(t_i), each up to a factor common to all points
    for R, weights in _screen_points(max(len(f.num_cos), len(g.num_cos))):
        (F, dF), (G, dG) = (_value_and_slope(weights, c, s) for c, s in rows)
        h, g3 = R * (dF * G - F * dG), G**3
        if values and h * values[-1][1] != values[-1][0] * g3:
            return True
        values.append((h, g3))
    (h_1, g3_1), (h_3, g3_3) = values[0], values[-1]
    return h_3 * g3_1 != h_1 * g3_3


def _value_and_slope(weights: list, c: list[int], s: list[int]) -> tuple[int, int]:
    """R p(t), R p'(t) for p = sum c_k cos kt + s_k sin kt at a screen point."""
    v = dv = 0
    for k, ((cw, sw), a, b) in enumerate(zip(weights, c, s)):
        v, dv = v + a * cw + b * sw, dv + k * (b * cw - a * sw)
    return v, dv
