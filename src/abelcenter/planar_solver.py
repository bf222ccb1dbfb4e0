"""Direct integration of the planar systems and reduction cross-checks.

Provides three views of the same orbit near the origin:

* :func:`integrate_planar` — Cartesian integration of
  x' = -y + P(x, y), y' = x + Q(x, y) with the winding angle carried as
  a third state, stopping at the first full turn (section crossing
  located to 1e-12 in angle);
* :func:`polar_return_map` — integration of the radial equation
  dr/dt = A r^n / (1 + B r^(n-1)) in the angle variable;
* :func:`crosscheck_cherkas` — integration of the transformed scalar
  equation, mapped back to radii and compared pointwise against the
  polar solution.

Agreement of all three is the end-to-end validation of the reduction
chain; each path integrates its own equation (only the integrator core
is shared, and the transformed path uses the Abel right-hand side of
:mod:`abelcenter.abel_solver`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._ivp import solve_dense
from .abel_solver import DEFAULT_CONFIG, MAX_GRID_POINTS, SolverConfig, _abel_rhs, _csv
from .errors import BlowUp, LeftMonotoneRegion, SolverError, ValidationError
from .reduction import (
    PlanarSystem,
    _as_float,
    abel_from_planar,
    cherkas_forward,
    cherkas_inverse,
    compute_AB,
    _pair_evaluator,
    _scalar_evaluator,
)

__all__ = [
    "PlanarTrajectory",
    "integrate_planar",
    "polar_return_map",
    "crosscheck_cherkas",
    "planar_trajectory_to_csv",
]

_TWO_PI = 2.0 * math.pi
# angle accuracy of the section-crossing location
_SECTION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PlanarTrajectory:
    """One full turn of an orbit, sampled uniformly in time.

    ``thetas`` is the continuously accumulated winding angle (not reduced
    mod 2pi); it is strictly increasing for every trajectory this module
    produces, because integration aborts where the angular speed stops
    being positive.
    """

    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    thetas: np.ndarray

    def radii(self) -> np.ndarray:
        return np.hypot(self.xs, self.ys)

    @property
    def return_radius(self) -> float:
        return float(math.hypot(self.xs[-1], self.ys[-1]))


def integrate_planar(
    system: PlanarSystem,
    x0: float,
    y0: float,
    config: SolverConfig = DEFAULT_CONFIG,
) -> PlanarTrajectory:
    """Integrate the Cartesian system through one full turn around the origin.

    The state is (x, y, theta) with theta' = (x y' - y x') / r^2, so the
    winding angle accumulates continuously.  Integration ends at the
    event theta = theta(0) + 2pi, located to 1e-12 in angle by Newton's
    iteration on the interpolant of the step that crossed it.  An orbit
    reaching angular speed <= 0 raises :class:`LeftMonotoneRegion`; escape
    beyond 10 * max(1, r0) raises :class:`BlowUp`.
    """
    x0, y0 = _as_float(x0, "x0"), _as_float(y0, "y0")
    r0 = math.hypot(x0, y0)
    if r0 == 0.0:
        raise ValidationError("the initial point must differ from the origin")
    p_ev = system.P.eval
    q_ev = system.Q.eval
    theta0 = math.atan2(y0, x0)
    target = theta0 + _TWO_PI
    escape = 10.0 * max(1.0, r0)

    def rhs(t, state):
        x, y, _ = state
        dx = -y + p_ev(x, y)
        dy = x + q_ev(x, y)
        r2 = x * x + y * y
        return (dx, dy, (x * dy - y * dx) / r2)

    if rhs(0.0, (x0, y0, theta0))[2] <= 0.0:
        raise LeftMonotoneRegion(
            f"angular speed is not positive at the initial point (r0={r0:.6g})"
        )

    def guard(t, state):
        r = math.hypot(state[0], state[1])
        if r > escape:
            raise BlowUp(f"orbit escaped r={r:.6g} > {escape:.6g} at t={t:.6g}")

    def stop(t, state, slope):  # the step's end slope is the RHS at ``state``
        if slope[2] <= 0.0:
            raise LeftMonotoneRegion(f"angular speed dropped to zero at t={t:.6g}, "
                                     f"r={math.hypot(state[0], state[1]):.6g}")
        return state[2] >= target

    dense, t_end, _ = solve_dense(rhs, 0.0, [x0, y0, theta0], np.inf, config,
                                  on_step=guard, stop=stop)

    # stop brackets the crossing in the last step: Newton on the interpolant
    t_star = t_end
    for _ in range(4):
        state = dense(t_star)
        t_star -= (state[2] - target) / rhs(t_star, state)[2]
    defect = abs(dense(t_star)[2] - target)
    if not (dense.ts[-2] <= t_star <= t_end and defect <= _SECTION_TOL):
        raise SolverError(f"section crossing located only to {defect:.3e} in angle")
    times = np.linspace(0.0, t_star, config.grid_points)
    states = dense(times)
    return PlanarTrajectory(times=times, xs=states[0], ys=states[1], thetas=states[2])


def _polar_solution(n: int, A, B, r0: float, config: SolverConfig, dense=True):
    """r(theta) over [0, 2pi] for r' = A r^n / (1 + B r^(n-1)) with circle
    functions A and B: (dense solution or None, r(2pi))."""
    r0 = _as_float(r0, "r0")
    if r0 < 0:
        raise ValidationError("the starting radius must be nonnegative")
    ab = _pair_evaluator(A, B)
    escape = 10.0 * max(1.0, r0)

    def rhs(theta, y):
        (a, b), r = ab(theta), y[0]
        den = 1.0 + b * r ** (n - 1)
        if den <= 0.0:
            raise LeftMonotoneRegion(
                f"angular speed {den:.6g} <= 0 at theta={theta:.6g}, r={r:.6g}"
            )
        return (a * r**n / den,)

    def guard(theta, y):
        if y[0] > escape:
            raise BlowUp(f"radius {y[0]:.6g} escaped at theta={theta:.6g}")

    solution, _, y_end = solve_dense(
        rhs,
        0.0,
        [r0],
        _TWO_PI,
        config,
        dense=dense,
        on_step=guard,
    )
    return solution, float(y_end[0])


def polar_return_map(
    system: PlanarSystem, r0: float, config: SolverConfig = DEFAULT_CONFIG
) -> float:
    """r(2pi) for the orbit of the radial equation starting at r(0) = r0."""
    return _polar_solution(system.n, *compute_AB(system), r0, config, dense=False)[1]


def crosscheck_cherkas(
    system: PlanarSystem,
    r0: float,
    config: SolverConfig = DEFAULT_CONFIG,
    samples: int = 64,
) -> float:
    """Worst disagreement between the radial path and the transformed path.

    The scalar equation for gamma is integrated over a full turn from
    gamma(0) = forward-image of r0, mapped back to radii at ``samples``
    angles, and compared against the directly integrated r(theta).  The
    two computations share nothing but the integrator core, so a small
    defect validates the whole change-of-variables chain.
    """
    if not isinstance(samples, numbers.Integral) or not 2 <= samples <= MAX_GRID_POINTS:
        raise ValidationError(
            f"samples must be an integer between 2 and MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
    problem = abel_from_planar(system)
    abel_rhs = _abel_rhs(problem)  # f and g leave the float range before A and B do
    B = problem.origin.B
    n = system.n
    r_dense, _ = _polar_solution(n, problem.origin.A, B, r0, config)
    b = _scalar_evaluator(B)  # one evaluator for the 1 + samples map calls
    gamma0 = cherkas_forward(r0, 0.0, b, n)
    g_dense, _, _ = solve_dense(abel_rhs, 0.0, [gamma0], _TWO_PI, config)
    thetas = np.linspace(0.0, _TWO_PI, samples)
    r_direct = r_dense(thetas)[0]
    gammas = g_dense(thetas)[0]
    defect = 0.0
    for theta, gamma, r_ref in zip(thetas.tolist(), gammas.tolist(), r_direct.tolist()):
        defect = max(defect, abs(cherkas_inverse(gamma, theta, b, n) - r_ref))
    return defect


def planar_trajectory_to_csv(traj: PlanarTrajectory) -> str:
    """CSV with columns ``t,x,y,theta`` at 17 significant digits."""
    return _csv("t,x,y,theta", traj.times, traj.xs, traj.ys, traj.thetas)
