"""Numerics for the scalar equation x' = f(t) x^3 + g(t) x^2 on [-a, a].

Two independent solution paths are kept deliberately separate so each can
serve as an oracle for the other:

* a high-order adaptive Runge-Kutta integration (:func:`integrate_abel`
  for trajectories; :func:`return_map` and :func:`displacement_scan`
  keep only the endpoint), and
* a contractive integral-operator iteration (:func:`picard_fixed_point`)
  built on the closed-form resolvent

      Omega(x)(t) = rho / (1 - rho * int_{-a}^{t} (f x + g) ds),

  which is well defined while the denominator stays above 1/2, maps the
  ball of radius M into the ball of radius 2*rho, and is Lipschitz with
  constant 8*a*rho^2*F there.

The admissible initial-value radius for the operator route is

    rho < min(M/2, 1 / (4a (F M + G)))

with F, G sup bounds of the coefficients.  The Runge-Kutta route has no
such restriction and is merely *warned* outside it; it reports blow-up
honestly instead of returning garbage.

Necessary conditions for a center (zero integral of g, vanishing moments of f
against closed solutions) are evidence from :func:`moment_conditions`, never a
verdict, since a finite grid cannot quantify over all small initial values.
"""

from __future__ import annotations

import enum
import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from ._ivp import DENSE_ORDER, solve_dense
from .errors import (
    BlowUp,
    DenominatorTooSmall,
    NoConvergence,
    NotContractive,
    ValidationError,
    _as_count,
    _as_finite,
    _as_float,
    _rho_grid,
)
from .reduction import AbelProblem, _coefficient_values, _pair_evaluator
from .trigpoly import TrigPoly

__all__ = [
    "SolverConfig",
    "Trajectory",
    "ScanClassification",
    "DisplacementReport",
    "OperatorBoundReport",
    "rho_admissible_bound",
    "integrate_abel",
    "return_map",
    "default_rho_grid",
    "displacement_scan",
    "picard_operator",
    "picard_fixed_point",
    "MomentReport",
    "moment_conditions",
    "evenness_defect",
    "operator_bound_check",
    "trajectory_to_csv",
    "report_to_csv",
]


# ceiling on grid_points and crosscheck samples, far above any grid the package needs;
# sampling a degree-34 coefficient (n = 16) there peaks at 64 MiB and takes ~0.7 s
MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class SolverConfig:
    """Shared numeric knobs; the defaults are used throughout the tests."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10**6
    picard_tol: float = 1e-12
    picard_max_iter: int = 200
    ball_radius: float = 1.0  # the trust ball M for the operator route
    grid_points: int = 2048

    def __post_init__(self) -> None:
        _as_count(self.max_steps, "max_steps", 1)
        _as_count(self.picard_max_iter, "picard_max_iter", 1)
        _as_count(self.grid_points, "grid_points", 8, MAX_GRID_POINTS)
        reals = (self.rel_tol, self.abs_tol, self.picard_tol, self.ball_radius)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in reals):
            raise ValidationError("tolerances and ball_radius must be real numbers")
        names = ("rel_tol", "abs_tol", "picard_tol", "ball_radius")
        *tols, ball_radius = map(_as_float, reals, names)
        if not all(0 < v < math.inf for v in tols):
            raise ValidationError("tolerances must be positive and finite")
        if not 0 < ball_radius < math.inf:
            raise ValidationError("ball_radius must be positive and finite")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A solution sampled on a uniform symmetric grid over [-a, a]."""

    nodes: np.ndarray
    values: np.ndarray
    order: int  # polynomial order of the interpolation behind `values`

    def __post_init__(self) -> None:
        if self.nodes.shape != self.values.shape or self.nodes.ndim != 1:
            raise ValidationError("nodes and values must be 1-d arrays of equal length")

    @property
    def half_width(self) -> float:
        return float(self.nodes[-1])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def rho_admissible_bound(problem: AbelProblem, ball_radius: float = 1.0) -> float:
    """Largest initial value the operator route is guaranteed to handle.

    Computed as min(M/2, 1/(4a(FM+G))) from the coefficient sup bounds.
    Requires those bounds, so sampled coefficients must declare them.
    """
    ball_radius = _as_finite(ball_radius, "ball_radius")
    if ball_radius <= 0:
        raise ValidationError("ball_radius must be positive")
    F, G = problem.bounds()
    a = problem.half_width
    denom = 4.0 * a * (F * ball_radius + G)
    if denom == 0.0:
        return ball_radius / 2.0
    return min(ball_radius / 2.0, 1.0 / denom)


def _step_cap(problem: AbelProblem) -> float:
    """pi / d for exact coefficients of top trig degree d, else no cap.

    Two steps per shortest coefficient period keep a single accepted step
    from striding past oscillations that its embedded error estimate
    cannot see.  Callables carry no degree and stay unbounded.
    """
    if isinstance(problem.f, TrigPoly) and isinstance(problem.g, TrigPoly):
        d = max(problem.f.degree, problem.g.degree)
        if d > 0:
            return math.pi / d
    return math.inf


def _abel_rhs(problem: AbelProblem):
    """The right-hand side (f(t) x + g(t)) x^2 of a 1-d state, on floats per component."""
    fg = _pair_evaluator(problem.f, problem.g)

    def rhs(t, y):
        f, g = fg(t)
        return [(f * v + g) * v * v for v in y.tolist()]

    return rhs


def _solve_abel(
    problem: AbelProblem, rhos: np.ndarray, config: SolverConfig, *, dense: bool
):
    """One DOP853 solve of x(-a) = rho over [-a, a] for every rho at once.

    The state is the whole vector of initial values, so each stage
    evaluates f(t) and g(t) once for all of them, and the error is
    controlled per component.  Each initial value beyond the admissible
    radius produces a warning; the first component to escape
    ``10 * ball_radius`` raises :class:`BlowUp` naming its rho.
    """
    a = problem.half_width
    try:
        bound = rho_admissible_bound(problem, config.ball_radius)
    except ValidationError:
        bound = None
    if bound is not None:
        for rho in rhos[np.abs(rhos) >= bound]:
            warnings.warn(
                f"initial value {rho:.6g} is outside the admissible radius "
                f"{bound:.6g}; contraction guarantees do not apply",
                stacklevel=3,
            )
    escape = 10.0 * config.ball_radius
    starts = rhos.tolist()

    def guard(t, y):
        for rho, x in zip(starts, y.tolist()):
            if not abs(x) <= escape:  # a NaN escapes too
                raise BlowUp(
                    f"|x({t:.6g})| exceeded {escape:.3g} starting from rho={rho:.6g}"
                )

    return solve_dense(
        _abel_rhs(problem),
        -a,
        rhos,
        a,
        config,
        max_step=_step_cap(problem),
        dense=dense,
        per_component=True,
        on_step=guard,
    )


def integrate_abel(
    problem: AbelProblem, rho: float, config: SolverConfig = DEFAULT_CONFIG
) -> Trajectory:
    """Solve the initial-value problem x(-a) = rho across [-a, a].

    Uses an adaptive embedded Runge-Kutta pair of order 8(5,3) with dense
    output, sampled on ``config.grid_points`` uniform nodes, under the
    step cap of :func:`return_map`.  Initial values beyond the admissible
    radius only produce a warning; an orbit escaping ``10 * ball_radius``
    raises :class:`BlowUp`.
    """
    a = problem.half_width
    dense, _, y_end = _solve_abel(problem, np.array([_as_float(rho, "rho")]), config, dense=True)
    nodes = np.linspace(-a, a, config.grid_points)
    values = dense(nodes)[0]
    values[-1] = y_end[0]
    return Trajectory(nodes=nodes, values=values, order=DENSE_ORDER)


def return_map(
    problem: AbelProblem, rho: float, config: SolverConfig = DEFAULT_CONFIG
) -> float:
    """The time-2a solution map rho -> x(a).

    Only the endpoint is computed: no interpolants, no trajectory.  When
    both coefficients are exact trig polynomials of top degree d, the step
    is capped at pi / d.
    """
    _, _, y_end = _solve_abel(problem, np.array([_as_float(rho, "rho")]), config, dense=False)
    return float(y_end[0])


class ScanClassification(enum.Enum):
    CENTER_EVIDENCE = "center_evidence"
    FOCUS_EVIDENCE = "focus_evidence"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class DisplacementReport:
    """Displacements d(rho) = Pi(rho) - rho over a grid, plus a verdict.

    The verdict is a pure function of the numbers: it is
    ``CENTER_EVIDENCE`` when every displacement is below the
    tolerance-scaled threshold eps(rho) = abs_tol*1e3 + rel_tol*1e2*rho,
    ``FOCUS_EVIDENCE`` when all displacements are above the noise floor
    (100*abs_tol), share one sign, grow with rho, and fit a power law in
    log-log with R^2 > 0.99, and ``INDETERMINATE`` otherwise.  The power
    law d ~ c * rho^k is reported whenever at least two points rise above
    the noise floor; k, c, r-squared are NaN otherwise.
    """

    rhos: np.ndarray
    returns: np.ndarray
    displacements: np.ndarray
    classification: ScanClassification
    exponent: float
    coefficient: float
    fit_r2: float

    def to_json_dict(self) -> dict:
        def _opt(v: float):
            return None if math.isnan(v) else v

        return {
            "classification": self.classification.value,
            "k": _opt(self.exponent),
            "c": _opt(self.coefficient),
            "fit_r2": _opt(self.fit_r2),
        }


def default_rho_grid(
    problem: AbelProblem, config: SolverConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Eight log-spaced initial values from 0.005 up to min(0.08, 0.8*bound).

    For strongly nonlinear problems the admissibility bound can push the
    upper end to 0.005 or below; the lower end then scales down to hi/16
    to keep a usable span instead of an inverted or single-point range.
    """
    bound = rho_admissible_bound(problem, config.ball_radius)
    hi = min(0.08, 0.8 * bound)
    lo = 0.005 if hi > 0.005 else hi / 16.0
    if not lo > 0:
        raise ValidationError(f"the admissible radius {bound:.6g} leaves no rho to scan")
    return np.geomspace(lo, hi, 8)


def _power_law_fit(rhos: np.ndarray, ds: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit of log|d| against log rho -> (k, signed c, R^2)."""
    logs_r = np.log(rhos)
    logs_d = np.log(np.abs(ds))
    slope, intercept = np.polyfit(logs_r, logs_d, 1)
    predicted = slope * logs_r + intercept
    ss_res = float(np.sum((logs_d - predicted) ** 2))
    ss_tot = float(np.sum((logs_d - logs_d.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    sign = 1.0 if ds[0] > 0 else -1.0
    return float(slope), sign * float(np.exp(intercept)), r2


def displacement_scan(
    problem: AbelProblem,
    rho_grid: Iterable[float],
    config: SolverConfig = DEFAULT_CONFIG,
) -> DisplacementReport:
    """Return-map displacements over a grid of positive initial values.

    The whole grid is integrated as one vector state in a single
    endpoint-only solve, with the error controlled per component, so each
    x(a) meets the tolerances as if solved alone; the step cap of
    :func:`return_map` applies.  A blow-up of any rho aborts the scan.
    """
    rhos = np.asarray(sorted(_rho_grid(rho_grid)))
    if np.any(rhos <= 0):
        raise ValidationError("rho grid entries must be positive")
    if np.any(np.diff(rhos) == 0):
        raise ValidationError("rho grid entries must be distinct")
    _, _, returns = _solve_abel(problem, rhos, config, dense=False)
    ds = returns - rhos

    noise_floor = 100.0 * config.abs_tol
    eps_center = config.abs_tol * 1e3 + config.rel_tol * 1e2 * rhos
    above_noise = np.abs(ds) > noise_floor

    if above_noise.sum() >= 2:
        exponent, coefficient, fit_r2 = _power_law_fit(
            rhos[above_noise], ds[above_noise]
        )
    else:
        exponent = coefficient = fit_r2 = float("nan")

    if np.all(np.abs(ds) < eps_center):
        verdict = ScanClassification.CENTER_EVIDENCE
    elif (
        bool(above_noise.all())
        and (np.all(ds > 0) or np.all(ds < 0))
        and np.all(np.diff(np.abs(ds)) >= 0)
        and fit_r2 > 0.99
    ):
        verdict = ScanClassification.FOCUS_EVIDENCE
    else:
        verdict = ScanClassification.INDETERMINATE

    return DisplacementReport(
        rhos=rhos,
        returns=returns,
        displacements=ds,
        classification=verdict,
        exponent=exponent,
        coefficient=coefficient,
        fit_r2=fit_r2,
    )


# ----------------------------------------------------------------------
# integral-operator route


def _require_grid_match(problem: AbelProblem, x: Trajectory) -> None:
    a = problem.half_width
    if x.nodes.size < 3 or not np.all(np.diff(x.nodes) > 0):
        raise ValidationError("trajectory nodes must be at least 3 and strictly increasing")
    if abs(x.nodes[0] + a) > 1e-12 * max(1.0, a) or abs(x.nodes[-1] - a) > 1e-12 * max(1.0, a):
        raise ValidationError("trajectory grid does not span the problem interval")


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy's ``cumulative_simpson(y, x=x, initial=0.0)`` for 1-d y, x of 3 or more
    nodes, operation for operation: each interval's integral comes from the
    quadratic through it and its right neighbours (h1) or, flipped, its left
    neighbours (h2); the intervals alternate h1, h2, and the last is h2's."""

    def h1_integrals(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        coeff1, coeff2 = 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31
        return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] - x21x21_x31x32 * y[2:])

    dx = np.diff(x)
    h1, h2 = h1_integrals(y, dx), np.flip(h1_integrals(np.flip(y), np.flip(dx)))
    parts = np.empty(h1.size + 1)
    parts[:-1:2], parts[1::2], parts[-1] = h1[::2], h2[::2], h2[-1]
    return np.concatenate(([0.0], np.cumsum(parts) + 0.0))  # + initial, as scipy: -0.0 -> 0.0


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
    rhos = np.asarray(_rho_grid(rho_grid))

    a = problem.half_width
    if isinstance(problem.g, TrigPoly) and math.isclose(a, math.pi, rel_tol=1e-15):
        mean_coeff = problem.g.mean_value()
        g_integral = 2.0 * math.pi * float(mean_coeff)
        mean_g_zero = mean_coeff == 0
        exact = True
    else:
        nodes = np.linspace(-a, a, config.grid_points)
        g_integral = float(_cumulative_simpson(problem.g_values(nodes), nodes)[-1])
        mean_g_zero = abs(g_integral) < _G_INTEGRAL_TOL
        exact = False

    moments = np.empty_like(rhos)
    for i, rho in enumerate(rhos):
        traj = integrate_abel(problem, rho, config)
        integrand = problem.f_values(traj.nodes) * traj.values
        moments[i] = _cumulative_simpson(integrand, traj.nodes)[-1]
    return MomentReport(
        rhos=rhos,
        f_moments=moments,
        max_f_moment=float(np.max(np.abs(moments))),
        g_integral=g_integral,
        mean_g_zero=bool(mean_g_zero),
        g_integral_exact=exact,
    )


def picard_operator(
    problem: AbelProblem,
    rho: float,
    x: Trajectory,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Trajectory:
    """One application of the resolvent operator Omega on the dense grid.

    f and g are sampled at the trajectory's own nodes, on which the inner
    integral is a cumulative composite-Simpson rule.  The denominator must stay
    above 1/4 - a deliberate numerical safety margin below the theoretical 1/2
    threshold - and :class:`DenominatorTooSmall` is raised otherwise (NaN too).
    """
    rho = _as_finite(rho, "rho")
    _require_grid_match(problem, x)
    t = x.nodes
    integrand = problem.f_values(t) * x.values + problem.g_values(t)
    inner = _cumulative_simpson(integrand, t)
    denom = 1.0 - rho * inner
    dmin = float(denom.min())
    if not dmin > 0.25:
        raise DenominatorTooSmall(
            f"operator denominator reached {dmin:.6g} (safety threshold 0.25)"
        )
    return Trajectory(nodes=t, values=rho / denom, order=4)


def picard_fixed_point(
    problem: AbelProblem, rho: float, config: SolverConfig = DEFAULT_CONFIG
) -> Trajectory:
    """Iterate Omega from the constant function rho until it stabilizes.

    Requires 0 <= rho < the admissible radius and a strict contraction
    constant 8*a*rho^2*F < 1; violations raise :class:`NotContractive`.
    The iteration stops when consecutive iterates differ by less than
    ``config.picard_tol`` in sup norm, and raises :class:`NoConvergence`
    if the iteration budget runs out first.
    """
    rho = _as_finite(rho, "rho")
    if rho < 0:
        raise ValidationError("the operator route handles nonnegative rho only")
    bound = rho_admissible_bound(problem, config.ball_radius)
    if rho >= bound:
        raise NotContractive(
            f"rho={rho:.6g} is not below the admissible radius {bound:.6g}"
        )
    F, _ = problem.bounds()
    a = problem.half_width
    rate = 8.0 * a * rho**2 * F
    if rate >= 1.0:
        raise NotContractive(f"contraction constant 8*a*rho^2*F = {rate:.6g} >= 1")

    nodes = np.linspace(-a, a, config.grid_points)
    x = Trajectory(nodes=nodes, values=np.full_like(nodes, rho), order=0)
    # Omega samples f and g at x.nodes, which stays this grid: sample it once
    fv, gv = problem.f_values(nodes), problem.g_values(nodes)
    on_grid = AbelProblem(
        f=lambda t: fv if t is nodes else problem.f_values(t),
        g=lambda t: gv if t is nodes else problem.g_values(t),
        half_width=a,
    )
    for _ in range(config.picard_max_iter):
        x_next = picard_operator(on_grid, rho, x, config)
        delta = float(np.max(np.abs(x_next.values - x.values)))
        x = x_next
        if delta < config.picard_tol:
            return x
    raise NoConvergence(
        f"no fixed point after {config.picard_max_iter} iterations "
        f"(last update {delta:.3e}, contraction constant {rate:.3e})"
    )


def evenness_defect(x: Trajectory) -> float:
    """sup |x(t) - x(-t)| over the trajectory grid.

    The uniform grid is symmetric, so reflection maps the node set onto
    itself and no interpolation is needed.
    """
    mirrored = -x.nodes[::-1]
    if float(np.max(np.abs(x.nodes - mirrored))) > 1e-12 * max(1.0, x.half_width):
        raise ValidationError("trajectory grid is not symmetric around 0")
    return float(np.max(np.abs(x.values - x.values[::-1])))


@dataclass(frozen=True)
class OperatorBoundReport:
    """Observed operator norms against their theoretical ceilings."""

    sup_ceiling: float  # 2 * rho
    lipschitz_ceiling: float  # 8 * a * rho^2 * F
    max_sup: float
    max_lipschitz_ratio: float
    samples: int


def operator_bound_check(
    problem: AbelProblem,
    rho: float,
    config: SolverConfig = DEFAULT_CONFIG,
    sample_count: int = 16,
    seed: int = 0,
) -> OperatorBoundReport:
    """Probe the operator bounds on random inputs from the trust ball.

    Inputs are random low-order trigonometric series rescaled so their sup
    norm is at most ``ball_radius``.  For each input the image sup norm is
    recorded; consecutive pairs give difference quotients for the
    Lipschitz constant.  The observed maxima should stay below the
    ceilings up to quadrature error.
    """
    _as_count(sample_count, "sample_count", 2)  # two inputs form a difference quotient
    _as_count(seed, "seed", 0)
    rho = _as_float(rho, "rho")
    bound = rho_admissible_bound(problem, config.ball_radius)
    if not 0 <= rho < bound:
        raise ValidationError(
            f"rho={rho:.6g} must lie inside the admissible radius {bound:.6g}"
        )
    a = problem.half_width
    F, _ = problem.bounds()
    M = config.ball_radius
    rng = np.random.default_rng(seed)
    nodes = np.linspace(-a, a, config.grid_points)
    base_freq = math.pi / a

    def random_input() -> Trajectory:
        c = rng.uniform(-1.0, 1.0, size=7)
        d = rng.uniform(-1.0, 1.0, size=6)
        series = TrigPoly(tuple(map(Fraction, c)), (0, *map(Fraction, d)))
        scale = rng.uniform(0.0, M) / series.linf_bound()
        values = scale * _coefficient_values(series, base_freq * nodes)
        return Trajectory(nodes=nodes, values=values, order=0)

    inputs = [random_input() for _ in range(sample_count)]
    images = [picard_operator(problem, rho, x, config) for x in inputs]
    max_sup = max(img.sup_norm() for img in images)
    max_ratio = 0.0
    for (x1, y1), (x2, y2) in zip(
        zip(inputs, images), zip(inputs[1:], images[1:])
    ):
        gap = float(np.max(np.abs(x1.values - x2.values)))
        if gap < 1e-13:
            continue
        image_gap = float(np.max(np.abs(y1.values - y2.values)))
        max_ratio = max(max_ratio, image_gap / gap)
    return OperatorBoundReport(
        sup_ceiling=2.0 * rho,
        lipschitz_ceiling=8.0 * a * rho**2 * F,
        max_sup=max_sup,
        max_lipschitz_ratio=max_ratio,
        samples=sample_count,
    )


# ----------------------------------------------------------------------
# exports


def _csv(header: str, *columns) -> str:
    """``header`` and one row per index, each value at 17 significant digits."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return header + "\n" + row * len(table) % tuple(table.ravel().tolist())


def trajectory_to_csv(x: Trajectory) -> str:
    """CSV with columns ``t,x`` at 17 significant digits."""
    return _csv("t,x", x.nodes, x.values)


def report_to_csv(report: DisplacementReport) -> str:
    """CSV with columns ``rho,pi_rho,d_rho`` at 17 significant digits."""
    return _csv("rho,pi_rho,d_rho", report.rhos, report.returns, report.displacements)
