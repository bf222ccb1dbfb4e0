"""Scalar-equation numerics: the Runge-Kutta route, the operator route,
displacement scans, and the bounds that keep the operator route honest."""

from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput

from abelcenter import (
    BlowUp,
    DenominatorTooSmall,
    DisplacementReport,
    HomogPoly,
    MaxStepsExceeded,
    NoConvergence,
    NotContractive,
    PlanarSystem,
    PlanarTrajectory,
    ScanClassification,
    SolverConfig,
    Trajectory,
    ValidationError,
    abel_from_planar,
    cos2pit_problem,
    default_rho_grid,
    displacement_scan,
    evenness_defect,
    integrate_abel,
    operator_bound_check,
    picard_fixed_point,
    picard_operator,
    poly_problem,
    planar_trajectory_to_csv,
    report_to_csv,
    return_map,
    rho_admissible_bound,
    trajectory_to_csv,
)
from abelcenter import _ivp, abel_solver, reduction
from abelcenter._ivp import MaxNormDOP853, solve_dense
from abelcenter.abel_solver import _abel_rhs, _cumulative_simpson
from conftest import make_zero_radial


def closed_form(rho: float, ts: np.ndarray) -> np.ndarray:
    """Exact solution of x' = t x^2, x(-1) = rho."""
    return rho / (1.0 - rho * (ts**2 - 1.0) / 2.0)


# ----------------------------------------------------------------------
# admissible radius


def test_bound_for_zero_problem():
    assert rho_admissible_bound(poly_problem([], [])) == 0.5


def test_bound_for_unit_coefficients(tt_problem):
    # F = G = a = 1: min(1/2, 1/(4*(1+1))) = 1/8
    assert rho_admissible_bound(tt_problem) == pytest.approx(0.125)


def test_bound_for_cubic_reduction(cubic_problem):
    F = float(Fraction(27, 64))
    G = 2.25
    expected = min(0.5, 1.0 / (4.0 * math.pi * (F + G)))
    assert rho_admissible_bound(cubic_problem) == pytest.approx(expected, rel=1e-14)


def test_bound_scales_with_ball_radius(tt_problem):
    # M = 0.1: min(0.05, 1/(4*(0.1+1)))
    assert rho_admissible_bound(tt_problem, 0.1) == pytest.approx(0.05)
    with pytest.raises(ValidationError):
        rho_admissible_bound(tt_problem, 0.0)


def test_bound_requires_sup_declarations():
    from abelcenter import AbelProblem

    with pytest.raises(ValidationError):
        rho_admissible_bound(AbelProblem(f=lambda t: t, g=lambda t: t, half_width=1.0))


# ----------------------------------------------------------------------
# Runge-Kutta route


def test_zero_initial_value_stays_zero(cubic_problem, config):
    traj = integrate_abel(cubic_problem, 0.0, config)
    assert np.all(traj.values == 0.0)


def test_against_closed_form_solution(t_problem, config):
    traj = integrate_abel(t_problem, 0.1, config)
    assert np.max(np.abs(traj.values - closed_form(0.1, traj.nodes))) < 1e-9


def test_trajectory_grid_shape(t_problem, config):
    traj = integrate_abel(t_problem, 0.05, config)
    assert traj.nodes.shape == (config.grid_points,)
    assert traj.nodes[0] == -1.0 and traj.nodes[-1] == 1.0
    assert traj.half_width == 1.0
    assert traj.order >= 4


def test_warning_outside_admissible_radius(t_problem):
    # f = 0, g = t: the admissible radius is min(1/2, 1/4) = 1/4
    with pytest.warns(UserWarning, match="admissible radius"):
        integrate_abel(t_problem, 0.3)


@pytest.mark.filterwarnings("ignore:initial value")
def test_blowup_is_reported():
    problem = poly_problem([], [5.0])
    with pytest.raises(BlowUp):
        integrate_abel(problem, 0.5)


def test_step_budget_is_enforced(cubic_problem):
    tight = SolverConfig(max_steps=5)
    with pytest.raises(MaxStepsExceeded):
        integrate_abel(cubic_problem, 0.01, tight)


def test_return_map_identity_for_even_antiderivative(t_problem, config):
    # int_{-1}^{1} t dt = 0, so every solution closes: Pi(rho) = rho
    for rho in (0.01, 0.05, 0.1, 0.2):
        assert return_map(t_problem, rho, config) == pytest.approx(rho, abs=1e-12)


def test_return_map_grows_for_focus(focus_problem, config):
    assert return_map(focus_problem, 0.01, config) > 0.01


def _eps_center(rhos, config):
    return config.abs_tol * 1e3 + config.rel_tol * 1e2 * np.asarray(rhos)


def test_return_map_steps_resolve_high_harmonics(config):
    # P = 3x^3y^3, Q = -2x^4y^2 is a parity center; without a step cap one
    # DOP853 step strode past an oscillation of f and gave |d| = 2.9e-9
    problem = abel_from_planar(
        PlanarSystem(n=6, P=HomogPoly.monomial(6, 3, 3), Q=HomogPoly.monomial(6, 2, -2))
    )
    rhos = default_rho_grid(problem, config)
    ds = np.array([return_map(problem, r, config) - r for r in rhos])
    assert np.all(np.abs(ds) < _eps_center(rhos, config))


def test_dense_solution_evaluates_each_point_on_its_own_segment():
    def rhs(t, y):
        return (-y[0] + math.sin(3.0 * t), y[0] * y[1])

    config = SolverConfig(rel_tol=1e-8, abs_tol=1e-10, max_steps=10_000)
    sol, t_end, _ = solve_dense(rhs, 0.0, [1.0, 0.5], 6.0, config)
    segments = sol.interpolants
    assert t_end == sol.t_max == 6.0 and len(segments) > 5
    ends = [seg.t for seg in segments]
    rng = np.random.default_rng(3)
    points = np.concatenate(
        [rng.uniform(-1.0, 7.0, 40), ends, [seg.t_old for seg in segments], [-0.5, 0.0, 6.5]]
    )
    rng.shuffle(points)

    def own_segment(t):
        # the first segment that ends at or after t, the last one beyond t_end
        return _scipy_step(next((seg for seg in segments if seg.t >= t), segments[-1]))

    expected = np.stack([own_segment(t)(t) for t in points], axis=1)
    assert np.array_equal(sol(points), expected)
    assert np.array_equal(sol(float(points[0])), expected[:, 0])
    assert sol(float(points[0])).shape == (2,)


def _scipy_step(step):
    """scipy's interpolant over one step, built from the step's data."""
    return Dop853DenseOutput(step.t_old, step.t, step.y_old, step.F)


# ----------------------------------------------------------------------
# the in-package DOP853, DenseSolution and Simpson rule against scipy's


def test_dense_solution_sends_each_step_end_to_the_step_it_ends():
    def tag(index):
        """A step's interpolant that returns the step's index at every point."""
        return Dop853DenseOutput(index, index + 1, np.array([float(index)]), np.zeros((7, 1)))

    ts, tags = [0.0, 1.0, 2.0, 3.0], [tag(0), tag(1), tag(2)]
    points = np.array([3.5, 2.0, 1.0, 0.0, -1.0, 0.5, 1.5, 3.0])
    expected = [2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0]
    for solution in (_ivp.DenseSolution(ts, tags), OdeSolution(ts, tags)):
        assert solution(points)[0].tolist() == expected
        assert [solution(float(t))[0] for t in points] == expected


def _per_point(solution, points):
    """Each point through scipy's interpolant of its own step, by the OdeSolution rule."""
    last = len(solution.interpolants) - 1
    segments = np.clip(np.searchsorted(solution.ts, points) - 1, 0, last)
    steps = [_scipy_step(step) for step in solution.interpolants]
    return np.stack([steps[s](float(t)) for s, t in zip(segments, points)], 1)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_dense_solution_arrays_are_per_point_calls_bit_for_bit(m):
    _, ts, _, segments = _step_through(_ivp.DOP853, m, dense=True)
    solver = _ivp.DOP853(_spike_rhs(m), 0.0, np.linspace(1.0, -1.0, m), 3.0)
    solver.step()
    one_step = _ivp.DenseSolution([0.0, solver.t], [solver.dense_output()])
    for solution, end in ((_ivp.DenseSolution(ts, segments), 3.0), (one_step, solver.t)):
        rng = np.random.default_rng(m)
        points = np.concatenate([
            np.linspace(-0.5, end + 0.5, 301), solution.ts, solution.ts[::2],  # ends repeated
            rng.uniform(-1e3, 1e3, 20), [-0.0],
        ])
        rng.shuffle(points)
        ours, reference = solution(points), _per_point(solution, points)
        assert ours.shape == (m, points.size)
        assert ours.tobytes() == reference.tobytes()
        assert solution(np.array([])).shape == (m, 0)  # the per-step path raised IndexError


def test_dense_solution_array_peak_memory_is_within_the_per_step_paths():
    # the per-step path (argsort, split, hstack, reorder) peaked at 80 bytes a point
    # for m = 3; gathering all of F's rows at once costs 168 bytes a point more
    _, ts, _, segments = _step_through(_ivp.DOP853, 3, dense=True)
    solution = _ivp.DenseSolution(ts, segments)
    points = np.random.default_rng(0).uniform(0.0, 3.0, 2**18)
    solution(points[:8])
    tracemalloc.start()
    try:
        solution(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * points.size + 2**16


class ScipyMaxNormDOP853(DOP853):
    """scipy's DOP853 under the per-component error norm of MaxNormDOP853."""

    _estimate_error_norm = MaxNormDOP853._estimate_error_norm


def test_tableau_is_scipys_own():
    from scipy.integrate._ivp import dop853_coefficients as tableau

    _ivp.DOP853(lambda t, y: -y, 0.0, [1.0], 1.0)  # the first solver loads the tableau
    n, solver = tableau.N_STAGES, _ivp.DOP853
    assert solver.n_stages == n
    assert [s for s, _, _ in solver.stages] == list(range(1, n))
    assert [s for s, _, _ in solver.extra_stages] == list(range(n + 1, tableau.N_STAGES_EXTENDED))
    for s, a, c in solver.stages + solver.extra_stages:
        assert np.array_equal(a, tableau.A[s, :s]) and c == tableau.C[s]
        assert not tableau.A[s, s:].any()  # explicit: nothing on or after the diagonal
    for name in ("B", "E3", "E5", "D"):
        assert np.array_equal(getattr(solver, name), getattr(tableau, name)), name


def _spike_rhs(m):
    """m weakly coupled decaying components, forced by a narrow spike at t = 1."""
    rates = np.linspace(1.0, 2.0, m)

    def rhs(t, y):
        return -rates * y + 1e-2 / (1e-4 + (t - 1.0) ** 2) + 0.1 * np.sin(5.0 * t) * np.roll(y, 1)

    return rhs


def _step_through(solver_class, m, dense, t0=0.0, t_bound=3.0):
    y0 = np.linspace(1.0, -1.0, m)
    solver = solver_class(_spike_rhs(m), t0, y0, t_bound, rtol=1e-8, atol=1e-10)
    ts, ys, segments = [solver.t], [solver.y], []
    # capped, so a solver that stops advancing fails the callers' status check, not hangs
    while solver.status == "running" and len(ts) <= 10_000:
        solver.step()
        ts.append(solver.t)
        ys.append(solver.y)
        if dense:
            segments.append(solver.dense_output())
    return solver, ts, np.array(ys), segments


@pytest.mark.parametrize("dense", [False, True], ids=["endpoint", "dense"])
@pytest.mark.parametrize("per_component", [False, True], ids=["rms", "max"])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_dop853_steps_bit_for_bit_like_scipys(m, per_component, dense):
    classes = (MaxNormDOP853, ScipyMaxNormDOP853) if per_component else (_ivp.DOP853, DOP853)
    # the scalar equation's solves start at a negative time, -a
    for t0, t_bound in ((0.0, 3.0), (-math.pi, math.pi)):
        ours, ts, ys, segments = _step_through(classes[0], m, dense, t0, t_bound)
        theirs, ts_ref, ys_ref, segments_ref = _step_through(classes[1], m, dense, t0, t_bound)
        assert ours.status == theirs.status == "finished"
        assert ts == ts_ref and ts[-1] == t_bound and np.array_equal(ys, ys_ref)
        assert ours.nfev == theirs.nfev
        steps = len(ts) - 1
        attempts = (ours.nfev - 2 - 3 * steps * dense) / 12  # 2 calls choose the first step
        assert attempts > steps  # the spike makes the controller reject steps
        if dense:
            points = np.concatenate([np.linspace(t0 - 0.5, t_bound + 0.5, 2048), ts])
            np.random.default_rng(m).shuffle(points)
            ours_dense = _ivp.DenseSolution(ts, segments)
            theirs_dense = OdeSolution(ts_ref, segments_ref)
            assert np.array_equal(ours_dense(points), theirs_dense(points))
            for t in points[::64]:
                assert np.array_equal(ours_dense(float(t)), theirs_dense(float(t)))


def _solve_until_turn(config, per_component):
    """One solve_dense run to t_bound = inf, stopped after a full turn."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (-y[1] + y[0] ** 3, y[0] + y[1] ** 3, 1.0 + 0.5 * math.cos(y[2]) * y[0])

    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        sol, t_end, y_end = solve_dense(
            rhs, 0.0, [0.3, 0.1, 0.0], np.inf, config,
            per_component=per_component, stop=lambda t, y, dy: y[2] >= 2.0 * math.pi,
        )
    points = np.linspace(-0.1, t_end + 0.1, 2048)
    return [str(w.message) for w in warned], t_end, y_end, len(calls), sol(points)


@pytest.mark.parametrize("per_component", [False, True], ids=["rms", "max"])
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-20])
def test_solve_dense_runs_as_on_scipys_classes(monkeypatch, rel_tol, per_component):
    # 1e-20 is below the floor of 100 eps that both raise rtol to, with a warning
    config = SolverConfig(rel_tol=rel_tol, abs_tol=1e-12)
    ours = _solve_until_turn(config, per_component)
    monkeypatch.setattr(_ivp, "DOP853", DOP853)
    monkeypatch.setattr(_ivp, "MaxNormDOP853", ScipyMaxNormDOP853)
    theirs = _solve_until_turn(config, per_component)
    assert ours[0] == theirs[0] and len(ours[0]) == (rel_tol < 1e-14)
    assert ours[1] == theirs[1] > 2.0
    assert np.array_equal(ours[2], theirs[2]) and ours[3] == theirs[3]
    assert np.array_equal(ours[4], theirs[4])


@pytest.mark.parametrize("m", [1, 3, 8])
def test_rms_error_estimate_is_scipys_bit_for_bit(m):
    rng = np.random.default_rng(m)
    ours = _ivp.DOP853(lambda t, y: -y, 0.0, np.ones(m), 1.0)
    theirs = DOP853(lambda t, y: -y, 0.0, np.ones(m), 1.0)
    for _ in range(200):
        K = rng.normal(size=(DOP853.n_stages + 1, m)) * 10.0 ** rng.uniform(-8, 2, size=m)
        h = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, 0))  # as the step passes it
        scale = 10.0 ** rng.uniform(-12, -8, size=m)
        error_norm = ours._estimate_error_norm(K, h, scale)
        assert type(error_norm) is float
        assert error_norm == theirs._estimate_error_norm(K, h, scale)
    K = np.zeros((DOP853.n_stages + 1, m))
    assert ours._estimate_error_norm(K, 0.1, np.ones(m)) == 0.0
    assert theirs._estimate_error_norm(K, 0.1, np.ones(m)) == 0.0
    # |e5|^2 and 0.01 |e3|^2 underflow to 0 while |e3|^2 does not: numpy's 0 / 0
    K[0, 0] = 1e-162 / ours.E5[0]
    with np.errstate(invalid="ignore"):
        assert math.isnan(ours._estimate_error_norm(K, 0.1, np.ones(m)))
        assert math.isnan(theirs._estimate_error_norm(K, 0.1, np.ones(m)))


@pytest.mark.parametrize("per_component", [False, True], ids=["rms", "max"])
@pytest.mark.parametrize(
    "m, t_bound", [(1, np.float64(1.0)), (8, np.float64(1.0)), (3, np.inf)], ids=["m1", "m8", "inf"]
)
def test_step_loop_scalars_are_python_floats(monkeypatch, m, t_bound, per_component):
    # numpy scalars cost several times a float's arithmetic at every stage
    solvers, times = [], []
    for name in ("DOP853", "MaxNormDOP853"):

        class Recorded(getattr(_ivp, name)):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(self)

        monkeypatch.setattr(_ivp, name, Recorded)

    def rhs(t, y):
        times.append(t)
        return -y + np.cos(3.0 * t)

    config = SolverConfig(rel_tol=1e-10, abs_tol=1e-12)
    stop = (lambda t, y, dy: t >= 2.0) if t_bound == np.inf else None
    _, t_end, _ = solve_dense(rhs, np.float64(-1.0), np.linspace(1.0, 2.0, m), t_bound, config,
                              per_component=per_component, stop=stop,
                              on_step=lambda t, y: times.append(t))
    [solver] = solvers
    assert len(times) > 100 and {type(t) for t in times} == {float}
    assert all(type(v) is float for v in (t_end, solver.t, solver.h_abs, solver.t_old))


@pytest.mark.parametrize("n", [8, 9, 2048, 2049])
def test_cumulative_simpson_is_scipys_bit_for_bit(n):
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(n)
    grids = [np.linspace(-w, w, n) for w in (1e-3, 1.0, math.pi)]
    for t in [*grids, np.sort(rng.uniform(-1.0, 1.0, n))]:
        y = rng.normal(size=n) + np.sin(3.0 * t)
        ours = _cumulative_simpson(y, t)
        assert ours.tobytes() == cumulative_simpson(y, x=t, initial=0.0).tobytes()


# ----------------------------------------------------------------------
# one vector solve per scan


def test_max_norm_error_estimate_matches_scipy_for_one_component():
    # MaxNormDOP853 overrides a private scipy method; for a scalar state it
    # must reproduce scipy's own norm
    rng = np.random.default_rng(7)
    ours = MaxNormDOP853(lambda t, y: -y, 0.0, [1.0], 1.0)
    theirs = DOP853(lambda t, y: -y, 0.0, [1.0], 1.0)
    for _ in range(200):
        K = rng.normal(size=(DOP853.n_stages + 1, 1)) * 10.0 ** rng.uniform(-8, 2)
        h = 10.0 ** rng.uniform(-4, 0)
        scale = 10.0 ** rng.uniform(-12, -8, size=1)
        expected = theirs._estimate_error_norm(K, h, scale)
        assert ours._estimate_error_norm(K, h, scale) == pytest.approx(expected, rel=1e-15)
    assert ours._estimate_error_norm(np.zeros((DOP853.n_stages + 1, 1)), 0.1, np.ones(1)) == 0.0


def test_max_norm_error_estimate_is_worst_component():
    ours = MaxNormDOP853(lambda t, y: -y, 0.0, [1.0, 1.0], 1.0)
    single = MaxNormDOP853(lambda t, y: -y, 0.0, [1.0], 1.0)
    rng = np.random.default_rng(8)
    K = rng.normal(size=(DOP853.n_stages + 1, 2))
    K[:, 1] *= 1e-6
    scale = np.full(2, 1e-10)
    worst = single._estimate_error_norm(K[:, :1], 0.1, scale[:1])
    assert ours._estimate_error_norm(K, 0.1, scale) == pytest.approx(worst, rel=1e-15)


def _numpy_max_norm(K, h, scale, E5, E3):
    """The per-component max norm as numpy arrays compute it."""
    err5 = K.T.dot(E5) / scale
    err3 = K.T.dot(E3) / scale
    err5_2 = err5 * err5
    denom = np.sqrt(err5_2 + 0.01 * (err3 * err3))
    ratio = np.divide(err5_2, denom, out=np.zeros(denom.shape), where=denom > 0)
    return abs(h) * float(ratio.max())


def test_max_norm_error_estimate_is_the_numpy_expression_bit_for_bit():
    # the float loop against the array expression, on K with zeros, infinities,
    # NaNs and entries whose squares overflow or underflow
    rng = np.random.default_rng(23)
    ours = MaxNormDOP853(lambda t, y: -y, 0.0, np.ones(8), 1.0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300])
    rows, outcomes = DOP853.n_stages + 1, Counter()
    for trial in range(12_000):
        m = trial % 8 + 1
        K = rng.normal(size=(rows, m)) * 10.0 ** rng.uniform(-200, 200, size=m)
        mask = rng.random((rows, m)) < rng.choice([0.0, 0.02, 0.2])
        K[mask] = rng.choice(special, size=int(mask.sum()))
        h = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, 0))
        scale = 10.0 ** rng.uniform(-12, 0, size=m)
        with np.errstate(all="ignore"):  # the dots, numpy's on both sides, warn at inf - inf
            want = _numpy_max_norm(K, h, scale, ours.E5, ours.E3)
            got = ours._estimate_error_norm(K, h, scale)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want)), (K, h, scale)
        outcomes["nan" if math.isnan(got) else "zero" if got == 0 else "positive"] += 1
    assert set(outcomes) == {"nan", "zero", "positive"}


@pytest.mark.parametrize("name", ["focus_problem", "cubic_problem", "cos2pit_even_problem"])
def test_scan_returns_match_single_return_maps(name, config, request):
    problem = request.getfixturevalue(name)
    rhos = default_rho_grid(problem, config)
    report = displacement_scan(problem, rhos, config)
    singles = np.array([return_map(problem, r, config) for r in rhos])
    assert np.all(np.abs(report.returns - singles) < _eps_center(rhos, config))


def test_scan_warns_once_per_rho_outside_radius(t_problem, config):
    # the admissible radius of f = 0, g = t is 1/4
    with pytest.warns(UserWarning) as record:
        displacement_scan(t_problem, [0.1, 0.3, 0.2, 0.4], config)
    messages = [str(w.message) for w in record]
    assert len(messages) == 2
    assert all("admissible radius" in m for m in messages)
    assert any("0.3 " in m for m in messages) and any("0.4 " in m for m in messages)


@pytest.mark.filterwarnings("ignore:initial value")
def test_scan_blowup_names_the_escaping_rho():
    # x' = 5 x^2 from x(-1) = rho blows up on [-1, 1] only for rho >= 0.1
    problem = poly_problem([], [5.0])
    with pytest.raises(BlowUp, match=r"rho=0\.5$"):
        displacement_scan(problem, [0.01, 0.02, 0.05, 0.5])


@pytest.mark.filterwarnings("ignore:initial value", "ignore::RuntimeWarning")
def test_scan_blowup_at_a_non_finite_start_names_the_rho():
    # 5 * (1e300)^2 overflows, so the derivative at the start is not finite
    problem = poly_problem([], [5.0])
    with pytest.raises(BlowUp, match=r"rho=1e\+300$"):
        displacement_scan(problem, [0.01, 1e300])


def test_scan_step_budget_covers_the_whole_grid(cubic_problem):
    with pytest.raises(MaxStepsExceeded):
        displacement_scan(cubic_problem, [0.005, 0.01], SolverConfig(max_steps=5))


def test_scan_shares_coefficient_evaluations(config):
    # counts calls, not time: one vector solve evaluates f and g once per
    # stage for the whole grid, where separate solves pay per rho
    calls = [0]

    def counted(fn):
        def wrapper(t):
            calls[0] += 1
            return fn(t)

        return wrapper

    base = cos2pit_problem([0.5, 1, 0.3], [0.2, 1, 0, 0.5])
    problem = dataclasses.replace(base, f=counted(base.f), g=counted(base.g))
    rhos = default_rho_grid(problem, config)
    displacement_scan(problem, rhos, config)
    scan_calls, calls[0] = calls[0], 0
    for r in rhos:
        return_map(problem, r, config)
    assert scan_calls <= calls[0] / 4


@given(
    st.lists(st.floats(-1e3, 1e3), max_size=6),
    st.floats(-4.0, 4.0),
)
@settings(max_examples=200)
def test_poly_scalar_calls_match_polyval(coeffs, t):
    problem = poly_problem(coeffs, [])
    for x in (t, -t, np.float64(t)):
        want = np.polynomial.polynomial.polyval(np.asarray(x), np.asarray(coeffs or [0.0]))
        assert float(problem.f(x)).hex() == float(want).hex()
        assert float(problem.g(x)).hex() == 0.0.hex()
    ts = np.array([-t, t])
    assert np.array_equal(problem.f(ts), np.polynomial.polynomial.polyval(ts, coeffs or [0.0]))


def test_poly_sup_bound_beyond_floats_is_inf():
    # a**2 overflows a float here; a zero coefficient adds nothing to the bound
    problem = poly_problem(["0", "0", "1"], ["1", "0", "0"], 1e200)
    assert problem.f_sup == math.inf and problem.g_sup == 1.0
    with pytest.raises(ValidationError, match="not both finite"):
        problem.bounds()


def test_subnormal_half_width_is_rejected():
    assert poly_problem([0, 1], [1], sys.float_info.min).half_width == sys.float_info.min
    with pytest.raises(ValidationError, match="half_width"):
        poly_problem([0, 1], [1], 1e-320)


# ----------------------------------------------------------------------
# displacement scans


@pytest.mark.filterwarnings("ignore:initial value")
def test_cubic_scan_reports_center_evidence(cubic_problem, config):
    report = displacement_scan(cubic_problem, [0.005, 0.01, 0.02, 0.04], config)
    assert report.classification is ScanClassification.CENTER_EVIDENCE
    assert np.max(np.abs(report.displacements)) < 1e-10


def test_focus_scan_reports_power_law(focus_problem, config):
    report = displacement_scan(focus_problem, default_rho_grid(focus_problem), config)
    assert report.classification is ScanClassification.FOCUS_EVIDENCE
    assert 1.8 <= report.exponent <= 2.2
    assert report.coefficient > 0
    assert report.fit_r2 > 0.999
    assert np.all(report.displacements > 0)


def test_zero_problem_scan_has_no_fit():
    report = displacement_scan(poly_problem([], []), [0.01, 0.02])
    assert report.classification is ScanClassification.CENTER_EVIDENCE
    assert math.isnan(report.exponent)
    data = report.to_json_dict()
    assert data == {
        "classification": "center_evidence",
        "k": None,
        "c": None,
        "fit_r2": None,
    }


def test_scan_sorts_its_grid(t_problem, config):
    report = displacement_scan(t_problem, [0.1, 0.01, 0.05], config)
    assert np.all(np.diff(report.rhos) > 0)


def test_scan_rejects_bad_grids(t_problem):
    with pytest.raises(ValidationError):
        displacement_scan(t_problem, [])
    with pytest.raises(ValidationError):
        displacement_scan(t_problem, [0.01, -0.02])


@pytest.mark.parametrize("grid", [0.01, "0.01", None, np.array(0.01)],
                         ids=["float", "str", "None", "0-d"])
def test_scan_grid_must_be_an_iterable_of_numbers(t_problem, grid):
    # a string would be iterated character by character
    with pytest.raises(ValidationError, match="rho_grid"):
        displacement_scan(t_problem, grid)


def test_scan_rejects_repeated_rhos(focus_problem):
    # a least-squares fit through one distinct rho is meaningless
    with pytest.raises(ValidationError, match="rho grid entries must be distinct"):
        displacement_scan(focus_problem, [0.02, 0.01, 0.02])


def test_scan_classification_is_tolerance_stable(cubic_problem):
    grids = [0.005, 0.01, 0.02]
    coarse = displacement_scan(cubic_problem, grids, SolverConfig(rel_tol=1e-10))
    fine = displacement_scan(cubic_problem, grids, SolverConfig(rel_tol=1e-12))
    assert coarse.classification is fine.classification


def test_focus_json_payload(focus_problem, config):
    data = displacement_scan(
        focus_problem, default_rho_grid(focus_problem), config
    ).to_json_dict()
    assert data["classification"] == "focus_evidence"
    assert 1.8 <= data["k"] <= 2.2
    assert data["fit_r2"] > 0.999


# ----------------------------------------------------------------------
# default grid


def test_default_grid_spans_standard_range(cos2pit_even_problem):
    grid = default_rho_grid(cos2pit_even_problem)
    assert grid.shape == (8,)
    assert grid[0] == pytest.approx(0.005)
    assert grid[-1] == pytest.approx(0.08)
    assert np.all(np.diff(grid) > 0)


def test_default_grid_respects_admissibility(focus_problem):
    bound = rho_admissible_bound(focus_problem)
    grid = default_rho_grid(focus_problem)
    assert grid[-1] == pytest.approx(0.8 * bound)
    assert grid[0] == pytest.approx(0.005)
    assert grid[-1] < 0.08


def test_default_grid_degenerate_branch():
    # a strongly nonlinear zero-radial system pushes the cap below 0.005
    from abelcenter import abel_from_planar

    problem = abel_from_planar(make_zero_radial(5, 0, 20))
    bound = rho_admissible_bound(problem)
    grid = default_rho_grid(problem)
    assert grid[-1] == pytest.approx(0.8 * bound)
    assert grid[-1] < 0.005
    assert grid[0] == pytest.approx(grid[-1] / 16.0)
    assert grid.shape == (8,) and np.all(np.diff(grid) > 0)


# ----------------------------------------------------------------------
# operator route


def _constant_trajectory(problem, rho, config):
    nodes = np.linspace(-problem.half_width, problem.half_width, config.grid_points)
    return Trajectory(nodes=nodes, values=np.full_like(nodes, rho), order=0)


def test_operator_closed_form_image(t_problem, config):
    # f = 0 makes the operator independent of x; the image is the solution
    rho = 0.1
    image = picard_operator(t_problem, rho, _constant_trajectory(t_problem, rho, config), config)
    assert np.max(np.abs(image.values - closed_form(rho, image.nodes))) < 1e-12


def test_operator_hand_computed_image(tt_problem, config):
    # f = g = t and x = rho constant: Omega(x)(t) = rho / (1 - rho (rho+1)(t^2-1)/2)
    rho = 0.1
    image = picard_operator(tt_problem, rho, _constant_trajectory(tt_problem, rho, config), config)
    expected = rho / (1.0 - rho * (rho + 1.0) * (image.nodes**2 - 1.0) / 2.0)
    assert np.max(np.abs(image.values - expected)) < 1e-12


def test_operator_on_zero_problem_is_constant(config):
    problem = poly_problem([], [])
    nodes = np.linspace(-1, 1, config.grid_points)
    x = Trajectory(nodes=nodes, values=0.3 * np.sin(3 * nodes), order=0)
    image = picard_operator(problem, 0.2, x, config)
    assert np.max(np.abs(image.values - 0.2)) == 0.0


def test_operator_denominator_guard(config):
    problem = poly_problem([], [5.0])
    with pytest.raises(DenominatorTooSmall):
        picard_operator(problem, 0.5, _constant_trajectory(problem, 0.5, config), config)
    # a NaN input value makes a NaN denominator, which is no safe one either
    x = _constant_trajectory(problem, 0.01, config)
    nan_x = Trajectory(nodes=x.nodes, values=np.where(x.nodes > 0, math.nan, x.values), order=0)
    with pytest.raises(DenominatorTooSmall, match="reached nan"):
        picard_operator(problem, 0.01, nan_x, config)


def test_operator_rejects_mismatched_grid(t_problem, config):
    nodes = np.linspace(-0.5, 0.5, config.grid_points)
    x = Trajectory(nodes=nodes, values=np.zeros_like(nodes), order=0)
    with pytest.raises(ValidationError):
        picard_operator(t_problem, 0.1, x, config)


@pytest.mark.parametrize(
    "nodes", [[-1.0, 1.0], [-1.0, 0.5, 0.0, 1.0]], ids=["2-nodes", "unsorted"]
)
def test_operator_rejects_grids_the_simpson_rule_cannot_use(t_problem, config, nodes):
    x = Trajectory(nodes=np.array(nodes), values=np.zeros(len(nodes)), order=0)
    with pytest.raises(ValidationError, match="strictly increasing"):
        picard_operator(t_problem, 0.1, x, config)


def test_fixed_point_of_zero_problem(config):
    traj = picard_fixed_point(poly_problem([], []), 0.2, config)
    assert np.all(traj.values == 0.2)


def test_fixed_point_matches_closed_form(t_problem, config):
    traj = picard_fixed_point(t_problem, 0.1, config)
    assert np.max(np.abs(traj.values - closed_form(0.1, traj.nodes))) < 1e-10


def test_fixed_point_matches_rk_route(cubic_problem, config):
    rho = 0.01
    fixed = picard_fixed_point(cubic_problem, rho, config)
    rk = integrate_abel(cubic_problem, rho, config)
    assert np.max(np.abs(fixed.values - rk.values)) < 1e-8


def test_fixed_point_samples_coefficients_once(tt_problem, config):
    calls = Counter()

    def counted(name, fn):
        def call(t):
            calls[name] += 1
            return fn(t)

        return call

    problem = dataclasses.replace(
        tt_problem, f=counted("f", tt_problem.f), g=counted("g", tt_problem.g)
    )
    fixed = picard_fixed_point(problem, 0.1, config)
    assert calls == {"f": 1, "g": 1}
    # the same iterates as applying Omega to the problem itself
    x, iters = _constant_trajectory(tt_problem, 0.1, config), 0
    while True:
        x_next, iters = picard_operator(tt_problem, 0.1, x, config), iters + 1
        delta = np.max(np.abs(x_next.values - x.values))
        x = x_next
        if delta < config.picard_tol:
            break
    assert iters > 2
    assert np.array_equal(fixed.values, x.values)


def test_fixed_point_satisfies_equation(t_problem, config):
    traj = picard_fixed_point(t_problem, 0.1, config)
    t, x = traj.nodes, traj.values
    h = t[1] - t[0]
    dx = (x[2:] - x[:-2]) / (2 * h)
    rhs = t[1:-1] * x[1:-1] ** 2
    assert np.max(np.abs(dx - rhs)) < 1e-6


def test_fixed_point_rejects_negative_rho(t_problem):
    with pytest.raises(ValidationError):
        picard_fixed_point(t_problem, -0.01)


def test_fixed_point_requires_contraction(tt_problem):
    with pytest.raises(NotContractive):
        picard_fixed_point(tt_problem, 0.2)  # bound is 1/8


def test_fixed_point_iteration_budget(t_problem):
    starved = SolverConfig(picard_max_iter=1)
    with pytest.raises(NoConvergence):
        picard_fixed_point(t_problem, 0.1, starved)


# ----------------------------------------------------------------------
# evenness


def test_evenness_of_constants(config):
    traj = _constant_trajectory(poly_problem([], []), 0.3, config)
    assert evenness_defect(traj) == 0.0


def test_evenness_of_identity_map():
    nodes = np.linspace(-1, 1, 101)
    traj = Trajectory(nodes=nodes, values=nodes.copy(), order=1)
    assert evenness_defect(traj) == pytest.approx(2.0)


def test_evenness_requires_symmetric_grid():
    nodes = np.linspace(-1, 2, 100)
    with pytest.raises(ValidationError):
        evenness_defect(Trajectory(nodes=nodes, values=np.zeros(100), order=0))


def test_closed_solutions_of_odd_problems_are_even(tt_problem, cubic_problem, config):
    assert evenness_defect(integrate_abel(tt_problem, 0.05, config)) < 1e-9
    assert evenness_defect(picard_fixed_point(cubic_problem, 0.01, config)) < 1e-9


def test_operator_preserves_evenness_for_odd_coefficients(tt_problem, config):
    nodes = np.linspace(-1, 1, config.grid_points)
    even_input = Trajectory(
        nodes=nodes, values=0.3 * np.cos(math.pi * nodes), order=0
    )
    image = picard_operator(tt_problem, 0.05, even_input, config)
    assert evenness_defect(image) < 1e-9


# ----------------------------------------------------------------------
# operator bound probes


def test_bound_probe_on_odd_problem(tt_problem, config):
    rho = 0.5 * rho_admissible_bound(tt_problem)
    report = operator_bound_check(tt_problem, rho, config, sample_count=8, seed=3)
    assert report.sup_ceiling == pytest.approx(2 * rho)
    F, _ = tt_problem.bounds()
    assert report.lipschitz_ceiling == pytest.approx(8 * rho**2 * F)
    assert report.max_sup <= report.sup_ceiling * (1 + 1e-6)
    assert report.max_lipschitz_ratio <= report.lipschitz_ceiling * (1 + 1e-3)
    assert report.samples == 8


def test_bound_probe_zero_problem(config):
    report = operator_bound_check(poly_problem([], []), 0.2, config, sample_count=4)
    assert report.max_sup == pytest.approx(0.2)
    assert report.max_lipschitz_ratio == 0.0


def test_bound_probe_zero_rho(tt_problem, config):
    report = operator_bound_check(tt_problem, 0.0, config, sample_count=4)
    assert report.max_sup == 0.0


def test_bound_probe_validation(tt_problem, config):
    with pytest.raises(ValidationError):
        operator_bound_check(tt_problem, 0.2, config)  # beyond the bound


@pytest.mark.parametrize("sample_count", [2.5, 3.0, "4", 1])
def test_bound_probe_needs_an_integer_sample_count(tt_problem, config, sample_count):
    # the same rule as crosscheck_cherkas's samples: numbers.Integral, at least 2
    with pytest.raises(ValidationError, match="sample_count"):
        operator_bound_check(tt_problem, 0.01, config, sample_count=sample_count)


@pytest.mark.parametrize("seed", [2.5, "3", -1, True])
def test_bound_probe_needs_a_non_negative_integer_seed(tt_problem, config, seed):
    with pytest.raises(ValidationError, match="seed"):
        operator_bound_check(tt_problem, 0.01, config, sample_count=4, seed=seed)


def test_bound_probe_deterministic(tt_problem, config):
    a = operator_bound_check(tt_problem, 0.05, config, sample_count=6, seed=11)
    b = operator_bound_check(tt_problem, 0.05, config, sample_count=6, seed=11)
    assert a.max_sup == b.max_sup
    assert a.max_lipschitz_ratio == b.max_lipschitz_ratio


# ----------------------------------------------------------------------
# configuration and containers


def test_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(grid_points=4)
    with pytest.raises(ValidationError):
        SolverConfig(rel_tol=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(ball_radius=-1.0)
    for bad in ({"grid_points": 8.5}, {"max_steps": 2.5}, {"picard_max_iter": 3.5},
                {"max_steps": True}, {"rel_tol": "1e-10"},
                {"rel_tol": 10**400}, {"ball_radius": 10**400}):
        with pytest.raises(ValidationError):
            SolverConfig(**bad)


@pytest.mark.parametrize(
    "solve",
    [
        lambda problem: return_map(problem, math.nan),
        lambda problem: displacement_scan(problem, [math.inf]),
        lambda problem: picard_fixed_point(problem, math.nan),
    ],
    ids=["return_map-nan", "scan-inf", "picard-nan"],
)
@pytest.mark.filterwarnings("ignore:initial value")
def test_non_finite_initial_values_raise_validation_error(tt_problem, solve):
    with pytest.raises(ValidationError, match="not finite"):
        solve(tt_problem)


def test_trajectory_validation():
    with pytest.raises(ValidationError):
        Trajectory(nodes=np.zeros(4), values=np.zeros(5), order=0)


def test_trajectory_sup_norm():
    nodes = np.linspace(-1, 1, 11)
    traj = Trajectory(nodes=nodes, values=nodes**2 - 0.5, order=2)
    assert traj.sup_norm() == pytest.approx(0.5)


# ----------------------------------------------------------------------
# exports


_CSV_VALUES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, -2.5, 123456789.0, math.pi,
    math.inf, -math.inf, math.nan,
])


def _row_by_row_csv(header, *columns):
    """The reference writer: one f-string per numpy scalar."""
    rows = [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    return "".join(line + "\n" for line in [header, *rows])


@pytest.mark.parametrize("size", [0, 1, 13, 200])
def test_csv_writers_match_row_by_row_formatting(size):
    rng = np.random.default_rng(size)
    cols = [
        np.concatenate([_CSV_VALUES, rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200)])
        for _ in range(4)
    ]
    for c in cols:
        rng.shuffle(c)
    t, x, y, th = (c[:size] for c in cols)
    traj = Trajectory(nodes=t, values=x, order=0)
    assert trajectory_to_csv(traj) == _row_by_row_csv("t,x", t, x)
    report = DisplacementReport(
        t, x, y, ScanClassification.INDETERMINATE, math.nan, math.nan, math.nan
    )
    assert report_to_csv(report) == _row_by_row_csv("rho,pi_rho,d_rho", t, x, y)
    planar = PlanarTrajectory(times=t, xs=x, ys=y, thetas=th)
    assert planar_trajectory_to_csv(planar) == _row_by_row_csv("t,x,y,theta", t, x, y, th)


def test_csv_is_the_per_row_format_in_one_operation():
    edges = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    columns = [np.array(edges), np.array(edges[::-1]), np.array(edges[2:] + edges[:2])]
    row = "%.17g,%.17g,%.17g\n"
    per_row = "".join(row % values for values in zip(*(c.tolist() for c in columns)))
    text = abel_solver._csv("a,b,c", *columns)
    assert text == "a,b,c\n" + per_row
    assert "%.17g" % 0.1 != repr(0.1) and "0.10000000000000001" in text
    assert "-0," in text and "4.9406564584124654e-324" in text


def test_trajectory_csv_format(t_problem, config):
    traj = integrate_abel(t_problem, 0.1, config)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == config.grid_points + 1
    t0, x0 = (float(v) for v in lines[1].split(","))
    assert t0 == -1.0 and x0 == pytest.approx(0.1, abs=1e-15)


def test_report_csv_format(t_problem, config):
    report = displacement_scan(t_problem, [0.01, 0.02], config)
    lines = report_to_csv(report).strip().split("\n")
    assert lines[0] == "rho,pi_rho,d_rho"
    assert len(lines) == 3
    rho, pi, d = (float(v) for v in lines[1].split(","))
    assert rho == 0.01
    assert pi == pytest.approx(report.returns[0])
    assert d == pytest.approx(report.displacements[0])


@pytest.mark.parametrize("m", [1, 8])
def test_abel_rhs_is_the_two_evaluator_formula_bit_for_bit(m, cubic_system):
    rng = np.random.default_rng(m)
    P, Q = (HomogPoly(tuple(rng.integers(-4, 5, 7).tolist())) for _ in "PQ")
    problems = [abel_from_planar(cubic_system), abel_from_planar(PlanarSystem(n=6, P=P, Q=Q)),
                cos2pit_problem([0.5, 1, 0.3], [0.2, 1, 0, 0.5])]
    for problem in problems:
        rhs = _abel_rhs(problem)
        f_ev, g_ev = reduction._scalar_evaluator(problem.f), reduction._scalar_evaluator(problem.g)
        for t in rng.uniform(-math.pi, math.pi, 50).tolist():
            y = rng.uniform(-0.1, 0.1, m)
            want = (f_ev(t) * y + g_ev(t)) * y * y
            assert np.array_equal(rhs(t, y), want)
            assert np.array_equal(rhs(t, y), want)  # the memo's answer at the same t


def test_abel_rhs_is_the_numpy_expression_at_non_finite_and_huge_states(cubic_system):
    # 1e200 overflows in x^2, 0 * inf and inf - inf are NaN: the floats give
    # numpy's values, and no RuntimeWarning
    rng = np.random.default_rng(5)
    problems = [abel_from_planar(cubic_system), poly_problem([], [5.0]),
                cos2pit_problem([0.5, 1, 0.3], [0.2, 1, 0, 0.5])]
    states = np.array([np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-200, 0.0, -0.0, 0.05])
    for problem in problems:
        rhs, fg = _abel_rhs(problem), reduction._pair_evaluator(problem.f, problem.g)
        for t in [0.0, *rng.uniform(-1.0, 1.0, 20).tolist()]:
            f, g = fg(t)
            for y in (states, rng.permutation(states)[:3], states[3:4]):
                with np.errstate(all="ignore"):
                    want = (f * y + g) * y * y
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = rhs(t, y)
                assert np.array_equal(got, want, equal_nan=True)


def _scan_guard(monkeypatch, problem, rhos, config):
    """The on_step guard that _solve_abel hands to solve_dense for ``rhos``."""
    kwargs = {}

    def recorded(rhs, t0, y0, t_bound, config, **options):
        kwargs.update(options)
        return None, t_bound, np.asarray(y0)

    monkeypatch.setattr(abel_solver, "solve_dense", recorded)
    abel_solver._solve_abel(problem, rhos, config, dense=False)
    return kwargs["on_step"]


def test_scan_guard_names_the_rho_numpy_argmin_names(monkeypatch, config):
    rhos = np.linspace(0.01, 0.08, 8)
    guard = _scan_guard(monkeypatch, poly_problem([], [1.0]), rhos, config)
    escape = 10.0 * config.ball_radius
    rng = np.random.default_rng(31)
    # in range (the bound itself included), beyond it, infinite, NaN
    kinds = [lambda: rng.uniform(-escape, escape), lambda: escape, lambda: -escape,
             lambda: rng.choice([-1, 1]) * escape * 10.0 ** rng.uniform(1e-12, 300),
             lambda: rng.choice([-np.inf, np.inf]), lambda: np.nan]
    raised = 0
    for _ in range(2000):
        choice = rng.choice(len(kinds), size=8, p=[0.8, 0.03, 0.03, 0.05, 0.04, 0.05])
        y = np.array([kinds[k]() for k in choice])
        within = np.abs(y) <= escape
        if within.all():
            guard(0.25, y)
            continue
        rho = rhos[np.argmin(within)]
        message = f"|x(0.25)| exceeded {escape:.3g} starting from rho={rho:.6g}"
        with pytest.raises(BlowUp) as caught:
            guard(0.25, y)
        assert str(caught.value) == message
        raised += 1
    assert 500 < raised < 1500


def test_return_map_evaluates_coefficients_once_per_stage_time(config, monkeypatch):
    # DOP853's last stage (c = 1) and the end slope share t + h, so the RHS
    # runs 12 times per step attempt on 11 distinct times; nfev is unchanged
    calls = Counter()

    def counted(name, fn):
        def wrapper(t):
            calls[name] += 1
            return fn(t)

        return wrapper

    base = cos2pit_problem([0.5, 1, 0.3], [0.2, 1, 0, 0.5])
    problem = dataclasses.replace(base, f=counted("f", base.f), g=counted("g", base.g))
    times, solves = [], []

    def recorded(rhs, *args, **kwargs):
        def timed(t, y):
            times.append(t)
            return rhs(t, y)

        solves.append((args, kwargs))
        return _ivp.solve_dense(timed, *args, **kwargs)

    monkeypatch.setattr(abel_solver, "solve_dense", recorded)
    d = return_map(problem, 0.05, config)
    [(args, kwargs)] = solves
    assert calls["f"] == calls["g"] == len(set(times)) < len(times)
    assert sum(a != b for a, b in zip(times, times[1:])) + 1 == len(set(times))

    def plain(t, y):  # the two evaluators, no memo
        plain.nfev += 1
        return (base.f(t) * y + base.g(t)) * y * y

    plain.nfev = 0
    _, _, y_end = _ivp.solve_dense(plain, *args, **kwargs)
    assert plain.nfev == len(times) and y_end[0] == d
