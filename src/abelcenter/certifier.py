"""Symbolic certification layer for centers and foci.

Three exact tests are implemented, each emitting a machine-checkable
:class:`Certificate`:

* **planar parity** — if P(cos t, sin t) is odd and Q(cos t, sin t) is
  even (as periodic functions of t), every orbit near the origin closes
  up and the origin is a center;
* **odd coefficients** — if both coefficients of the scalar equation
  x' = f x^3 + g x^2 on [-a, a] are odd, the closed solutions are even
  and the origin is a center;
* **nonzero mean** — if the radial circle function A has nonzero mean,
  the origin is a focus.

The converses are false, so a failed test never certifies anything:
``inconclusive`` is the honest default.  Numeric *necessary* conditions
(zero integral of g, vanishing moments of f against closed solutions)
are reported as evidence by :func:`moment_conditions` without forcing a
verdict, since a finite grid cannot quantify over all small initial
values.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .abel_solver import DEFAULT_CONFIG, SolverConfig, integrate_abel
from .errors import ValidationError
from .reduction import AbelProblem, PlanarSystem, abel_from_planar
from .reduction import _coefficient_values
from .trigpoly import Parity, TrigPoly, proportional_to_cube

__all__ = [
    "Verdict",
    "Basis",
    "Certificate",
    "classify_planar",
    "classify_abel",
    "wronskian_cube_ratio",
    "MomentReport",
    "moment_conditions",
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


_CENTER_BASES = frozenset({Basis.PLANAR_PARITY, Basis.ODD_COEFFICIENTS})


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
        if self.verdict is Verdict.CERTIFIED_CENTER and self.basis not in _CENTER_BASES:
            raise ValidationError("a center certificate needs a parity basis")
        if self.verdict is Verdict.CERTIFIED_FOCUS and self.basis is not Basis.NONZERO_MEAN:
            raise ValidationError("a focus certificate needs the nonzero-mean basis")
        if self.verdict is Verdict.INCONCLUSIVE and self.basis is not Basis.NONE:
            raise ValidationError("an inconclusive outcome carries no basis")

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


def classify_planar(system: PlanarSystem) -> Certificate:
    """Certify the origin of a planar system as center, focus, or neither.

    The decision sequence: the parity certificate (P odd and Q even on
    the unit circle) wins first; otherwise a nonzero mean of A certifies
    a focus; otherwise the symbolic layer abstains.  The evidence always
    records both circle parities, the reduced-coefficient parities, the
    exact mean of A, and the cube-proportionality ratio of the reduced
    pair when it exists.
    """
    p_par, q_par = system.P.parity(), system.Q.parity()
    problem = abel_from_planar(system)
    mean_A = problem.origin.A.mean_value()
    ratio = wronskian_cube_ratio(problem.f, problem.g)

    evidence = {
        "parity_P": p_par.value,
        "parity_Q": q_par.value,
        "parity_f": problem.f_parity.value,
        "parity_g": problem.g_parity.value,
        "mean_A": str(mean_A),
        "cube_ratio": None if ratio is None else str(ratio),
    }
    if Parity.ZERO in (p_par, q_par):
        evidence["note"] = _ZERO_NOTE

    if p_par in _ODD_OK and q_par in _EVEN_OK:
        return Certificate(Verdict.CERTIFIED_CENTER, Basis.PLANAR_PARITY, evidence)
    if mean_A != 0:
        return Certificate(Verdict.CERTIFIED_FOCUS, Basis.NONZERO_MEAN, evidence)
    return Certificate(Verdict.INCONCLUSIVE, Basis.NONE, evidence)


def _spot_check_parity(coef, parity: Parity, half_width: float, label: str) -> None:
    """Validate a declared parity at 100 sample points per side (absolute tol 1e-10).

    A sample pair agrees when it matches exactly (equal infinities included)
    or differs by a finite amount within the tolerance, so a NaN always fails.
    A declaration that fails its own spot check is contradictory input,
    not a certification failure, so this raises instead of downgrading.
    """
    if parity is Parity.NEITHER:  # carries no checkable claim
        return
    ts = np.linspace(half_width / 100.0, half_width, 100)
    with np.errstate(over="ignore", invalid="ignore"):  # inf samples: NaN gaps masked where equal
        left = _coefficient_values(coef, -ts)
        right = _coefficient_values(coef, ts)
        if parity is Parity.ODD:
            right = -right
        elif parity is Parity.ZERO:
            left, right = np.concatenate([left, right]), 0.0
        defect = np.max(np.where(left == right, 0.0, np.abs(left - right)))
    if not defect <= 1e-10:
        raise ValidationError(
            f"declared parity '{parity.value}' of {label} fails a sample check "
            f"(defect {defect:.3e}, not within 1e-10)"
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

    evidence = {
        "parity_f": "undeclared" if f_par is None else f_par.value,
        "parity_g": "undeclared" if g_par is None else g_par.value,
        "parity_source_f": f_src,
        "parity_source_g": g_src,
    }
    if isinstance(problem.f, TrigPoly) and isinstance(problem.g, TrigPoly):
        ratio = wronskian_cube_ratio(problem.f, problem.g)
        evidence["cube_ratio"] = None if ratio is None else str(ratio)
    if problem.origin is not None:
        evidence["mean_A"] = str(problem.origin.A.mean_value())
    if Parity.ZERO in (f_par, g_par):
        evidence["note"] = _ZERO_NOTE

    if f_par in _ODD_OK and g_par in _ODD_OK:
        return Certificate(Verdict.CERTIFIED_CENTER, Basis.ODD_COEFFICIENTS, evidence)
    return Certificate(Verdict.INCONCLUSIVE, Basis.NONE, evidence)


def wronskian_cube_ratio(f: TrigPoly, g: TrigPoly) -> Optional[Fraction]:
    """Exact ratio a with f'g - fg' = a*g^3, or None if no such constant.

    The combination f'g - fg' being a constant multiple of g^3 is the
    entry condition of a known center-classification family; callers use
    the returned constant as certificate evidence.  Follows the
    convention of :func:`~abelcenter.trigpoly.proportional_to_cube` when
    both sides vanish.  An exact integer screen at three points rejects most
    pairs before that test runs.
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
    """True if exact values at three points t_i prove f'g - fg' is no constant
    multiple of g^3, which would make every h(t_i) g^3(t_j) - h(t_j) g^3(t_i)
    with h = f'g - fg' vanish.  False decides nothing."""
    rows = ((f.num_cos, f.num_sin), (g.num_cos, g.num_sin))
    values = []  # R h(t_i) and g^3(t_i), each up to a factor common to all points
    for R, weights in _screen_points(max(len(f.num_cos), len(g.num_cos))):
        (F, dF), (G, dG) = (_value_and_slope(weights, c, s) for c, s in rows)
        values.append((R * (dF * G - F * dG), G**3))
    pairs = zip(values, values[1:] + values[:1])
    return any(h_i * g3_j != h_j * g3_i for (h_i, g3_i), (h_j, g3_j) in pairs)


def _value_and_slope(weights: list, c: list[int], s: list[int]) -> tuple[int, int]:
    """R p(t), R p'(t) for p = sum c_k cos kt + s_k sin kt at a screen point."""
    v = dv = 0
    for k, ((cw, sw), a, b) in enumerate(zip(weights, c, s)):
        v, dv = v + a * cw + b * sw, dv + k * (b * cw - a * sw)
    return v, dv


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Necessary-condition evidence for a center, no verdict attached.

    If every small solution of x' = f x^3 + g x^2 closes up, then the
    integral of g over [-a, a] vanishes and so does the moment
    int f(t) x(t, rho) dt for every closed solution x(., rho); the report
    carries the computed values so the caller can judge the margins.
    ``g_integral_exact`` records whether the g integral came from exact
    coefficient arithmetic (full-period trig polynomial) or quadrature.
    """

    rhos: np.ndarray
    f_moments: np.ndarray
    max_f_moment: float
    g_integral: float
    mean_g_zero: bool
    g_integral_exact: bool


# below this, a quadrature-computed integral of g is treated as zero
_G_INTEGRAL_TOL = 1e-9


def moment_conditions(
    problem: AbelProblem,
    rho_grid: Iterable[float],
    config: SolverConfig = DEFAULT_CONFIG,
) -> MomentReport:
    """Evaluate the closed-solution moment conditions on a grid of rho.

    Each trajectory comes from the adaptive Runge-Kutta path; the moments
    are composite-Simpson integrals on its dense grid.  Initial values
    outside the admissible radius inherit the integrator's warning.
    """
    from scipy.integrate import simpson
    rhos = np.asarray([float(r) for r in rho_grid])
    if rhos.size == 0:
        raise ValidationError("rho grid must be nonempty")

    a = problem.half_width
    if isinstance(problem.g, TrigPoly) and math.isclose(a, math.pi, rel_tol=1e-15):
        mean_coeff = problem.g.mean_value()
        g_integral = 2.0 * math.pi * float(mean_coeff)
        mean_g_zero = mean_coeff == 0
        exact = True
    else:
        nodes = np.linspace(-a, a, config.grid_points)
        g_integral = float(simpson(problem.g_values(nodes), x=nodes))
        mean_g_zero = abs(g_integral) < _G_INTEGRAL_TOL
        exact = False

    moments = np.empty_like(rhos)
    for i, rho in enumerate(rhos):
        traj = integrate_abel(problem, float(rho), config)
        integrand = problem.f_values(traj.nodes) * traj.values
        moments[i] = simpson(integrand, x=traj.nodes)
    return MomentReport(
        rhos=rhos,
        f_moments=moments,
        max_f_moment=float(np.max(np.abs(moments))),
        g_integral=g_integral,
        mean_g_zero=bool(mean_g_zero),
        g_integral_exact=exact,
    )
