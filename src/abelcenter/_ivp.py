"""Thin stepping loop around scipy's DOP853.

scipy's ``solve_ivp`` hides the step loop, which makes it awkward to
enforce a step budget, run per-step guards (blow-up, region checks), or
stop on a state-dependent condition.  This wrapper drives the solver
class directly.  In dense mode it keeps every local interpolant so
solutions can be evaluated anywhere afterwards; callers that need only
the final state switch that off and save the interpolants' extra
right-hand-side evaluations.  A vector state whose components are
independent solutions can ask for per-component error control, so that
each component is held to the tolerances on its own.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853

from .errors import BlowUp, MaxStepsExceeded, StepUnderflow

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


class DenseSolution:
    """Piecewise dense output of a completed integration."""

    def __init__(self, segments: Sequence, t0: float, y0: np.ndarray):
        self._segments = list(segments)
        self._ends = np.array([seg.t for seg in self._segments])
        self.t0 = float(t0)
        self.y0 = np.asarray(y0, dtype=float)
        self.t_end = float(self._ends[-1]) if self._segments else self.t0

    def __call__(self, ts) -> np.ndarray:
        """Evaluate the solution; returns shape (n_states,) or (n_states, m).

        Each point goes to the first segment ending at or after it (the
        last one beyond ``t_end``); only the segments hit are evaluated.
        """
        scalar = np.isscalar(ts)
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((self.y0.size, ts.size))
        if not self._segments:
            out[:, :] = self.y0[:, None]
        else:
            idx = np.searchsorted(self._ends, ts, side="left")
            idx = np.minimum(idx, len(self._segments) - 1)
            for i in np.unique(idx):
                hit = idx == i
                vals = self._segments[i](ts[hit])
                out[:, hit] = vals if vals.ndim == 2 else vals[:, None]
        return out[:, 0] if scalar else out


def solve_dense(
    rhs: Callable,
    t0: float,
    y0: Sequence[float],
    t_bound: float,
    *,
    rtol: float,
    atol: float,
    max_steps: int,
    max_step: float = np.inf,
    dense: bool = True,
    per_component: bool = False,
    on_step: Callable[[float, np.ndarray], None] | None = None,
    stop: Callable[[float, np.ndarray], bool] | None = None,
) -> tuple[DenseSolution | None, float, np.ndarray]:
    """Integrate to ``t_bound`` (may be ``np.inf`` when ``stop`` is given).

    ``max_step`` caps the step size.  ``on_step`` runs after every
    accepted step and may raise to abort; ``stop`` ends the integration
    once it returns True.  Returns the dense solution (``None`` when
    ``dense`` is False) together with the final time and state.  With
    ``per_component`` every component must meet the tolerances on its
    own (:class:`MaxNormDOP853`) instead of in scipy's RMS norm.  A
    non-finite initial derivative raises :class:`BlowUp` before any step,
    after ``on_step`` has seen the initial state: scipy would take a NaN
    first step and never return from it.
    """
    method = MaxNormDOP853 if per_component else DOP853
    solver = method(
        rhs, t0, np.asarray(y0, dtype=float), t_bound,
        max_step=max_step, rtol=rtol, atol=atol,
    )
    if not np.all(np.isfinite(solver.f)):
        if on_step is not None:
            on_step(solver.t, solver.y)  # the caller's guard may name the cause
        raise BlowUp(f"non-finite derivative at the initial point t={t0:.6g}")
    segments = []
    steps = 0
    while solver.status == "running":
        steps += 1
        if steps > max_steps:
            raise MaxStepsExceeded(f"exceeded {max_steps} steps at t={solver.t:.6g}")
        message = solver.step()
        if solver.status == "failed":
            raise StepUnderflow(f"integrator failed at t={solver.t:.6g}: {message}")
        if dense:
            segments.append(solver.dense_output())
        if on_step is not None:
            on_step(solver.t, solver.y)
        if stop is not None and stop(solver.t, solver.y):
            break
    solution = DenseSolution(segments, t0, np.asarray(y0, dtype=float)) if dense else None
    return solution, solver.t, solver.y.copy()
