"""DOP853 and the stepping loop that drives it: the one solver core.

scipy's ``solve_ivp`` hides the step loop, which makes it awkward to
enforce a step budget, run per-step guards (blow-up, region checks), or
stop on a state-dependent condition.  :func:`solve_dense` drives the
solver object directly, reads the tolerances and the step budget from a
:class:`~abelcenter.abel_solver.SolverConfig`, and aborts with
:class:`~abelcenter.errors.BlowUp` on a non-finite state, so callers keep
only their own checks.  It keeps each step's interpolant in a
:class:`DenseSolution` unless told to return only the final state, and it
can hold each component of a vector state to the tolerances on its own.

:class:`DOP853` performs scipy 1.17's arithmetic expression for expression
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.5-II.6), so its steps,
states, ``nfev`` and dense values are bit-identical to scipy's.  That rests on
the same IEEE operations in the same order, not on numpy's types: the step's
scalars (t, h, each stage time, the error norm) are Python floats, the RMS
norm's 1-d norms are sqrt(dot(x, x)) as ``np.linalg.norm`` takes them, the
step factor's ``error_norm ** -1/8`` calls libm's ``pow`` on both sides, and
``a.dot(b)`` runs the matrix product ``np.dot`` runs, without its Python-level
dispatch (checked with Python 3.11, numpy 2.4 and scipy 1.17).  The Abel
vector solve's per-component leaves run on plain floats too, over
``.tolist()``: :class:`MaxNormDOP853`'s error norm here, and
``abel_solver``'s right-hand side and escape guard.  Each performs numpy's
elementwise IEEE operations in numpy's order, and the products over the
stages (``K.T.dot(E5)``, the stage sums, the B combination) stay numpy's
BLAS calls, so every value is numpy's, inf and NaN included.  numpy's
overflow and invalid ``RuntimeWarning``s no longer come from these leaves,
only from the dots.  Per accepted step (12 right-hand sides, the norm and
the guard), measured on a 2-core Xeon VM, the float leaves cost ~0.26 of
numpy's at m = 1 component, ~0.6 at m = 8, ~0.8 at m = 16, ~1.5x at
m = 32 and ~6x at m = 128.  Every package solve has m <= 8: the return map,
``integrate_abel`` and crosscheck at 1, ``default_rho_grid``'s scan at 8.
Every solve runs forward, ``t_bound > t0``.  A :class:`DenseSolution` is the
one way to evaluate dense output: a float or an array of points goes through
one pass, each point finding its step by scipy's ``OdeSolution`` rule, and
DOP853's 7-row Horner recurrence runs on all points at once, one gathered row
of F at a time, through the operations of scipy's per-step interpolant, so
every value is the one scipy's ``OdeSolution`` gives, bit for bit.  Its
Butcher tableau is scipy's ``integrate/_ivp/dop853_coefficients.py``, loaded
by file location when the first solver is built: that file imports only
numpy, while importing it by name runs ``scipy/integrate/__init__``, ~0.6 s
of scipy.special, scipy.optimize and scipy.sparse.linalg.  The benchmark's
tracing wraps :func:`solve_dense` and ``DenseSolution.__call__``; tests
subclass and rebind ``DOP853`` and ``MaxNormDOP853``, which
:func:`solve_dense` looks up when it is called.
"""

from __future__ import annotations

import importlib.util
import math
import os
import runpy
import warnings
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import BlowUp, MaxStepsExceeded, StepUnderflow, ValidationError

if TYPE_CHECKING:
    from .abel_solver import SolverConfig

# interpolation order of DOP853's local interpolant
DENSE_ORDER = 7

# step-size control: safety factor and the bounds on one step's change
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _load_tableau(cls) -> None:
    """Bind scipy's DOP853 coefficients on ``cls``, running no scipy package code."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    tab = runpy.run_path(os.path.join(root, "integrate", "_ivp", "dop853_coefficients.py"))
    n, n_extended, A, C = tab["N_STAGES"], tab["N_STAGES_EXTENDED"], tab["A"], tab["C"]
    # (s, a_s1 .. a_s(s-1), c_s) of a step's stages 1..n-1 and the dense output's extra ones
    cls.stages = [(s, A[s, :s], C[s]) for s in range(1, n)]
    cls.extra_stages = [(s, A[s, :s], C[s]) for s in range(n + 1, n_extended)]
    cls.B, cls.E3, cls.E5, cls.D = tab["B"], tab["E3"], tab["E5"], tab["D"]
    cls.n_extended, cls.n_interp, cls.n_stages = n_extended, tab["INTERPOLATOR_POWER"], n


class DOP853:
    """scipy's DOP853 solver object, for a real 1-d state and ``t_bound > t0``."""

    n_stages = None  # bound with the rest of the tableau by the first construction
    error_exponent = -1 / 8  # -1 / (error estimator order + 1)

    def __init__(self, fun, t0, y0, t_bound, max_step=np.inf, rtol=1e-3, atol=1e-6):
        if self.n_stages is None:
            _load_tableau(__class__)  # this class, whatever the module name is rebound to
        self._rhs, self.nfev, self.status, self.t_old = fun, 0, "running", None
        self.t, self.y, self.t_bound = float(t0), np.asarray(y0, dtype=float), float(t_bound)
        if np.any(rtol < _RTOL_FLOOR):
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {_RTOL_FLOOR})`.", stacklevel=3)
            rtol = np.maximum(rtol, _RTOL_FLOOR)
        self.max_step, self.rtol, self.atol = float(max_step), rtol, atol
        self.f = f0 = self.fun(self.t, self.y)
        interval_length = t_bound - t0  # scipy's select_initial_step and RMS norm
        scale = atol + np.abs(self.y) * rtol
        d0, d1 = (np.linalg.norm(v / scale) / v.size ** 0.5 for v in (self.y, f0))
        h0 = float(min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval_length))
        f1 = self.fun(self.t + h0, self.y + h0 * f0)
        d2 = np.linalg.norm((f1 - f0) / scale) / f1.size ** 0.5 / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 8))
        self.h_abs = float(min(100 * h0, h1, interval_length, max_step))
        self.K_extended = K = np.empty((self.n_extended, self.y.size))
        # views built once: (s, K[:s].T, a_s, c_s) of each stage, K[:n].T for y_new, K[:n+1]
        self._step_stages, self._dense_stages = ([(s, K[:s].T, a, float(c)) for s, a, c in stages]
                                                 for stages in (self.stages, self.extra_stages))
        self._K_b, self._K_step = K[:self.n_stages].T, K[:self.n_stages + 1]

    def fun(self, t, y):
        self.nfev += 1
        return np.asarray(self._rhs(t, y), dtype=float)

    def step(self):
        """One accepted step; returns the failure message or None."""
        success, message = self._step_impl()
        if not success or self.t >= self.t_bound:
            self.status = "finished" if success else "failed"
        return message

    def _stages(self, stages, t, y, h):
        """K[s] = f(t + c_s h, y + h sum_j a_sj K[j]) for each of ``stages``."""
        K, fun = self.K_extended, self.fun
        for s, K_s, a, c in stages:
            K[s] = fun(t + c * h, y + K_s.dot(a) * h)

    def _step_impl(self):
        t, y = self.t, self.y
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = self.max_step if self.h_abs > self.max_step else max(self.h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                return False, "Required step size is less than spacing between numbers."
            t_new = min(t + h_abs, self.t_bound)
            h = h_abs = t_new - t
            K = self._K_step  # scipy's rk_step
            K[0] = self.f
            self._stages(self._step_stages, t, y, h)
            y_new = y + h * self._K_b.dot(self.B)
            K[-1] = f_new = self.fun(t + h, y_new)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._estimate_error_norm(K, h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.error_exponent)
            step_rejected = True
        factor = (MAX_FACTOR if error_norm == 0
                  else min(MAX_FACTOR, SAFETY * error_norm ** self.error_exponent))
        self.h_abs = h_abs * (min(1, factor) if step_rejected else factor)
        self.h_previous, self.t_old, self.y_old = h, t, y
        self.t, self.y, self.f = t_new, y_new, f_new
        return True, None

    def _estimate_error_norm(self, K, h, scale):
        err5, err3 = K.T.dot(self.E5) / scale, K.T.dot(self.E3) / scale
        err5_norm_2, err3_norm_2 = (math.sqrt(float(e.dot(e)))**2 for e in (err5, err3))
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = math.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * len(scale))
        if not denom:  # |e5|^2 and 0.01 |e3|^2 underflowed: numpy's 0 / 0, NaN and its warning
            denom = np.float64(denom)
        return abs(h) * err5_norm_2 / denom

    def dense_output(self):
        """The interpolant over the last step, after three more stages."""
        K, h, y_old = self.K_extended, self.h_previous, self.y_old
        self._stages(self._dense_stages, self.t_old, y_old, h)
        F, delta_y = np.empty((self.n_interp, y_old.size)), self.y - y_old
        F[0], F[1], F[2] = delta_y, h * K[0] - delta_y, 2 * delta_y - h * (self.f + K[0])
        F[3:] = h * self.D.dot(K)
        return _Dop853Dense(self.t_old, self.t, y_old, F)


class MaxNormDOP853(DOP853):
    """DOP853 whose error norm is the worst single component.

    scipy combines the 5th- and 3rd-order estimates e5, e3 of all m
    components into h |e5|^2 / sqrt(m (|e5|^2 + 0.01 |e3|^2)), so a large
    e3 in one component damps the estimate for another.  Here the same
    formula is applied to each component alone and the maximum is taken;
    for m = 1 this is scipy's norm.  A component whose denominator is not
    > 0 counts 0, and a NaN ratio (inf / inf) is the maximum, as in
    ``ndarray.max``.
    """

    def _estimate_error_norm(self, K, h, scale):
        # per component on floats; ``scale`` >= atol > 0, so no division is by zero
        worst = 0.0
        for e5, e3, s in zip(K.T.dot(self.E5).tolist(), K.T.dot(self.E3).tolist(),
                             scale.tolist()):
            e5, e3 = e5 / s, e3 / s
            e5_2 = e5 * e5
            denom = math.sqrt(e5_2 + 0.01 * (e3 * e3))
            if denom > 0:  # else 0, as is NaN
                ratio = e5_2 / denom
                if ratio > worst or ratio != ratio:  # a NaN ratio stays the maximum
                    worst = ratio
        return abs(h) * worst


class _Dop853Dense:
    """DOP853's interpolant over one step from t_old to t, as data: the names of
    scipy's ``Dop853DenseOutput``, which :class:`DenseSolution` gathers from."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.t, self.h, self.y_old, self.F = t_old, t, t - t_old, y_old, F


class DenseSolution:
    """The interpolants of a forward integration as one function of a float or 1-d array.

    Each point goes to the first segment that ends at or after it, clamped at
    both ends: scipy's ``OdeSolution`` rule.  All points are evaluated in one
    pass, DOP853's Horner recurrence on one gathered row of F at a time, F[6]
    first, the factors alternating x and 1 - x (Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.6).  A float gives shape (m,), an array (m, N)."""

    def __init__(self, ts, interpolants):
        self.ts, self.interpolants = np.asarray(ts), interpolants
        self.t_min, self.t_max = self.ts[0], self.ts[-1]
        # segment i ends at ts[i + 1]: counting the inner ends below t clamps at both ends
        self._inner_ends = self.ts[1:-1]
        self._t_old, self._h, self._F, self._y_old = (
            np.array([getattr(step, name) for step in interpolants])
            for name in ("t_old", "h", "F", "y_old"))

    def __call__(self, t):
        t = np.asarray(t)
        points = t.reshape(-1)
        segments = self._inner_ends.searchsorted(points)
        x = ((points - self._t_old[segments]) / self._h[segments])[:, None]
        factors, F = (x, 1 - x), self._F
        # one (point, component) buffer for every gathered row; the segments are in range,
        # and mode="clip" spares the copy of ``out`` that take's default mode makes
        row = np.empty((points.size, F.shape[2]))
        y = np.zeros_like(row)
        for i in range(F.shape[1]):
            y += F[:, -1 - i].take(segments, axis=0, out=row, mode="clip")
            y *= factors[i % 2]
        y += self._y_old.take(segments, axis=0, out=row, mode="clip")
        return y.T if t.ndim else y[0]


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
    stop: Callable[[float, np.ndarray, np.ndarray], bool] | None = None,
) -> tuple[DenseSolution | None, float, np.ndarray]:
    """Integrate to ``t_bound`` (may be ``np.inf`` when ``stop`` is given).

    ``config`` supplies ``rel_tol``, ``abs_tol`` and ``max_steps``; ``max_step``
    caps the step size.  ``on_step`` runs after every accepted step and may raise
    to abort; a state that is still non-finite after it raises :class:`BlowUp`.
    ``stop(t, y, dy)`` then sees that finite state and ``dy``, the step's end slope
    (DOP853's right-hand side at ``y``); it may raise too, and a True ends the
    integration.  Returns the dense solution (``None`` when ``dense`` is False)
    together with the final time and state.  With ``per_component`` every component
    must meet the tolerances on its own (:class:`MaxNormDOP853`) instead of in
    DOP853's RMS norm.  A non-finite ``y0`` raises :class:`ValidationError`, and a
    non-finite initial derivative :class:`BlowUp` before any step, after ``on_step``
    has seen the initial state: DOP853 would take a NaN first step and never return
    from it.
    """
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValidationError(f"initial state {y0.tolist()} is not finite")
    method = MaxNormDOP853 if per_component else DOP853
    solver = method(
        rhs, t0, y0, t_bound,
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
        if stop is not None and stop(solver.t, solver.y, solver.f):
            break
    solution = DenseSolution([t0, *(seg.t for seg in segments)], segments) if dense else None
    return solution, solver.t, solver.y.copy()
