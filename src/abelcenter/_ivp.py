"""Thin stepping loop around scipy's DOP853: the one solver core.

scipy's ``solve_ivp`` hides the step loop, which makes it awkward to
enforce a step budget, run per-step guards (blow-up, region checks), or
stop on a state-dependent condition.  This wrapper drives the solver
class directly, reads the tolerances and the step budget from a
:class:`~abelcenter.abel_solver.SolverConfig`, and aborts with
:class:`~abelcenter.errors.BlowUp` on a non-finite state, so callers
keep only the checks that are their own.  In dense mode it keeps every
local interpolant in scipy's :class:`~scipy.integrate.OdeSolution`, so
solutions can be evaluated anywhere afterwards; callers that need only
the final state switch that off and save the interpolants' extra
right-hand-side evaluations.  A vector state whose components are
independent solutions can ask for per-component error control, so that
each component is held to the tolerances on its own.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from scipy.integrate import DOP853, OdeSolution

from .errors import BlowUp, MaxStepsExceeded, StepUnderflow

if TYPE_CHECKING:
    from .abel_solver import SolverConfig

# interpolation order of DOP853's local interpolant
DENSE_ORDER = 7


class MaxNormDOP853(DOP853):
    """DOP853 whose error norm is the worst single component.

    scipy combines the 5th- and 3rd-order estimates e5, e3 of all m
    components into h |e5|^2 / sqrt(m (|e5|^2 + 0.01 |e3|^2)), so a large
    e3 in one component damps the estimate for another.  Here the same
    formula is applied to each component alone and the maximum is taken;
    for m = 1 this is scipy's norm.
    """

    def _estimate_error_norm(self, K, h, scale):
        err5 = np.dot(K.T, self.E5) / scale
        err3 = np.dot(K.T, self.E3) / scale
        err5_2 = err5 * err5
        denom = np.sqrt(err5_2 + 0.01 * (err3 * err3))
        ratio = np.divide(err5_2, denom, out=np.zeros_like(denom), where=denom > 0)
        return abs(h) * float(ratio.max())


# bench/tracing.py wraps ``DenseSolution.__call__`` under this name to count
# dense-output points
DenseSolution = OdeSolution


def solve_dense(
    rhs: Callable,
    t0: float,
    y0: Sequence[float],
    t_bound: float,
    config: SolverConfig,
    *,
    max_step: float = np.inf,
    dense: bool = True,
    per_component: bool = False,
    on_step: Callable[[float, np.ndarray], None] | None = None,
    stop: Callable[[float, np.ndarray], bool] | None = None,
) -> tuple[OdeSolution | None, float, np.ndarray]:
    """Integrate to ``t_bound`` (may be ``np.inf`` when ``stop`` is given).

    ``config`` supplies ``rel_tol``, ``abs_tol`` and ``max_steps``;
    ``max_step`` caps the step size.  ``on_step`` runs after every
    accepted step and may raise to abort; a state that is still
    non-finite after it raises :class:`BlowUp`.  ``stop`` ends the
    integration once it returns True.  Returns the dense solution
    (``None`` when ``dense`` is False) together with the final time and
    state; each point goes to the first segment ending at or after it,
    clamped outside the integrated range.  With ``per_component`` every
    component must meet the tolerances on its own
    (:class:`MaxNormDOP853`) instead of in scipy's RMS norm.  A
    non-finite initial derivative raises :class:`BlowUp` before any step,
    after ``on_step`` has seen the initial state: scipy would take a NaN
    first step and never return from it.
    """
    method = MaxNormDOP853 if per_component else DOP853
    solver = method(
        rhs, t0, np.asarray(y0, dtype=float), t_bound,
        max_step=max_step, rtol=config.rel_tol, atol=config.abs_tol,
    )
    if not np.all(np.isfinite(solver.f)):
        if on_step is not None:
            on_step(solver.t, solver.y)  # the caller's guard may name the cause
        raise BlowUp(f"non-finite derivative at the initial point t={t0:.6g}")
    segments = []
    steps = 0
    while solver.status == "running":
        steps += 1
        if steps > config.max_steps:
            raise MaxStepsExceeded(f"exceeded {config.max_steps} steps at t={solver.t:.6g}")
        message = solver.step()
        if solver.status == "failed":
            raise StepUnderflow(f"integrator failed at t={solver.t:.6g}: {message}")
        if dense:
            segments.append(solver.dense_output())
        if on_step is not None:
            on_step(solver.t, solver.y)
        # plain floats: numpy's reduction costs more than these small states
        if not all(map(math.isfinite, solver.y.tolist())):
            raise BlowUp(f"non-finite state at t={solver.t:.6g}")
        if stop is not None and stop(solver.t, solver.y):
            break
    solution = OdeSolution([t0, *(seg.t for seg in segments)], segments) if dense else None
    return solution, solver.t, solver.y.copy()
