"""Planar orbit integration and the three-way reduction cross-checks."""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853

from abelcenter import (
    AbelProblem,
    BlowUp,
    HomogPoly,
    LeftMonotoneRegion,
    PlanarSystem,
    SolverConfig,
    SolverError,
    Trajectory,
    TrigPoly,
    ValidationError,
    cherkas_forward,
    cherkas_inverse,
    cos2pit_problem,
    crosscheck_cherkas,
    displacement_scan,
    integrate_abel,
    integrate_planar,
    operator_bound_check,
    picard_fixed_point,
    picard_operator,
    planar_trajectory_to_csv,
    poly_problem,
    polar_return_map,
    return_map,
    rho_admissible_bound,
)
from abelcenter import _ivp, planar_solver, reduction
from abelcenter._ivp import solve_dense
from abelcenter.planar_solver import _polar_solution
from abelcenter.reduction import compute_AB
from conftest import make_zero_radial, parity_corpus

TWO_PI = 2.0 * math.pi


def cubic_identity_system() -> PlanarSystem:
    """P = x^3 + x y^2, Q = x^2 y + y^3: radial speed exactly r^3."""
    return PlanarSystem(
        n=3,
        P=HomogPoly((1, 0, 1, 0)),
        Q=HomogPoly((0, 1, 0, 1)),
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda system: polar_return_map(system, math.nan),
        lambda system: crosscheck_cherkas(system, math.nan),
        lambda system: integrate_planar(system, math.nan, 0.0),
        lambda system: crosscheck_cherkas(system, 0.05, samples=2.5),
    ],
    ids=["polar-nan", "crosscheck-nan", "integrate-nan", "crosscheck-float-samples"],
)
def test_non_finite_or_fractional_inputs_raise_validation_error(cubic_system, call):
    with pytest.raises(ValidationError):
        call(cubic_system)


@pytest.mark.parametrize(
    "call",
    [
        lambda problem, system: return_map(problem, 10**400),
        lambda problem, system: integrate_abel(problem, 10**400),
        lambda problem, system: displacement_scan(problem, [0.01, 10**400]),
        lambda problem, system: picard_fixed_point(problem, 10**400),
        lambda problem, system: polar_return_map(system, 10**400),
        lambda problem, system: integrate_planar(system, 10**400, 0.0),
        lambda problem, system: crosscheck_cherkas(system, 10**400),
    ],
    ids=["return_map", "integrate_abel", "scan", "picard", "polar", "integrate_planar",
         "crosscheck"],
)
def test_initial_values_beyond_floats_raise_validation_error(cubic_system, call):
    with pytest.raises(ValidationError, match="float range"):
        call(poly_problem([0, 1], [0, 1]), cubic_system)


def _zero_trajectory(problem) -> Trajectory:
    nodes = np.linspace(-problem.half_width, problem.half_width, 9)
    return Trajectory(nodes=nodes, values=np.zeros(9), order=0)


# (id, argument name, call with the argument set to v), p a scalar problem, s a planar system
_GATED_ARGUMENTS = [
    ("AbelProblem", "half_width", lambda p, s, v: AbelProblem(f=p.f, g=p.g, half_width=v)),
    ("AbelProblem-f_sup", "f_sup",
     lambda p, s, v: AbelProblem(f=p.f, g=p.g, f_sup=v, g_sup=1.0).bounds()),
    ("AbelProblem-g_sup", "g_sup",
     lambda p, s, v: AbelProblem(f=p.f, g=p.g, f_sup=1.0, g_sup=v).bounds()),
    ("rho_admissible_bound", "ball_radius", lambda p, s, v: rho_admissible_bound(p, v)),
    ("return_map", "rho", lambda p, s, v: return_map(p, v)),
    ("integrate_abel", "rho", lambda p, s, v: integrate_abel(p, v)),
    ("displacement_scan", "rho", lambda p, s, v: displacement_scan(p, [0.01, v])),
    ("picard_operator", "rho", lambda p, s, v: picard_operator(p, v, _zero_trajectory(p))),
    ("picard_fixed_point", "rho", lambda p, s, v: picard_fixed_point(p, v)),
    ("operator_bound_check", "rho", lambda p, s, v: operator_bound_check(p, v)),
    ("integrate_planar-x0", "x0", lambda p, s, v: integrate_planar(s, v, 0.0)),
    ("integrate_planar-y0", "y0", lambda p, s, v: integrate_planar(s, 0.05, v)),
    ("polar_return_map", "r0", lambda p, s, v: polar_return_map(s, v)),
    ("crosscheck_cherkas", "r0", lambda p, s, v: crosscheck_cherkas(s, v)),
    ("cherkas_forward-r", "r", lambda p, s, v: cherkas_forward(v, 0.0, compute_AB(s)[1], 3)),
    ("cherkas_forward-theta", "theta",
     lambda p, s, v: cherkas_forward(0.05, v, compute_AB(s)[1], 3)),
    ("cherkas_inverse-gamma", "gamma",
     lambda p, s, v: cherkas_inverse(v, 0.0, compute_AB(s)[1], 3)),
    ("cherkas_inverse-theta", "theta",
     lambda p, s, v: cherkas_inverse(0.0025, v, compute_AB(s)[1], 3)),
]


@pytest.mark.parametrize(
    "value, message",
    [(None, None), ("abc", None), (True, None), (np.True_, None), (np.array(True), None),
     (10**400, "float range")],
    ids=["None", "abc", "True", "np.True_", "np.array(True)", "10**400"],
)
@pytest.mark.parametrize("name, call", [entry[1:] for entry in _GATED_ARGUMENTS],
                         ids=[entry[0] for entry in _GATED_ARGUMENTS])
def test_real_arguments_pass_one_float_gate(cubic_system, name, call, value, message):
    # every real-number argument is converted before it is compared or used
    with pytest.raises(ValidationError, match=rf"\b{name}\b") as raised:
        call(poly_problem([0, 1], [0, 1]), cubic_system, value)
    assert message is None or message in str(raised.value)


# the entries of _GATED_ARGUMENTS that refuse a non-finite value by the argument's name; the
# others refuse one too, in messages that do not name it ("initial state ... is not finite")
_FINITE_ARGUMENTS = [entry for entry in _GATED_ARGUMENTS if entry[0] in {
    "AbelProblem", "rho_admissible_bound", "picard_operator", "picard_fixed_point",
    "operator_bound_check", "cherkas_forward-r", "cherkas_forward-theta",
    "cherkas_inverse-gamma", "cherkas_inverse-theta"}]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, call", [entry[1:] for entry in _FINITE_ARGUMENTS],
                         ids=[entry[0] for entry in _FINITE_ARGUMENTS])
def test_finite_arguments_refuse_non_finite_values(cubic_system, name, call, value):
    # refused by name, before a NaN result or a bare math domain error can come out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"\b{name}\b"):
            call(poly_problem([0, 1], [0, 1]), cubic_system, value)


# (id, argument name, its floor, an accepted value, call with the argument set to v)
_COUNT_ARGUMENTS = [
    ("SolverConfig-max_steps", "max_steps", 1, 10, lambda p, s, v: SolverConfig(max_steps=v)),
    ("SolverConfig-picard_max_iter", "picard_max_iter", 1, 10,
     lambda p, s, v: SolverConfig(picard_max_iter=v)),
    ("SolverConfig-grid_points", "grid_points", 8, 8,
     lambda p, s, v: SolverConfig(grid_points=v)),
    ("crosscheck_cherkas", "samples", 2, 8, lambda p, s, v: crosscheck_cherkas(s, 0.05, samples=v)),
    ("operator_bound_check-sample_count", "sample_count", 2, 2,
     lambda p, s, v: operator_bound_check(p, 0.01, sample_count=v)),
    ("operator_bound_check-seed", "seed", 0, 3,
     lambda p, s, v: operator_bound_check(p, 0.01, sample_count=2, seed=v)),
    ("PlanarSystem", "n", 2, 3, lambda p, s, v: PlanarSystem(n=v, P=s.P, Q=s.Q)),
    ("PlanarSystem.from_json_dict", "n", 2, 3,
     lambda p, s, v: PlanarSystem.from_json_dict({**s.to_json_dict(), "n": v})),
    ("HomogPoly.monomial", "y_power", 0, 1, lambda p, s, v: HomogPoly.monomial(3, v)),
    ("HomogPoly.monomial-degree", "degree", 0, 3, lambda p, s, v: HomogPoly.monomial(v, 0)),
    ("HomogPoly.zero", "degree", 0, 3, lambda p, s, v: HomogPoly.zero(v)),
    ("TrigPoly.cosine", "k", 0, 2, lambda p, s, v: TrigPoly.cosine(v)),
    ("TrigPoly.sine", "k", 1, 2, lambda p, s, v: TrigPoly.sine(v)),
    ("cherkas_forward", "n", 2, 3, lambda p, s, v: cherkas_forward(0.05, 0.0, compute_AB(s)[1], v)),
    ("cherkas_inverse", "n", 2, 3,
     lambda p, s, v: cherkas_inverse(0.0025, 0.0, compute_AB(s)[1], v)),
]


@pytest.mark.parametrize("value", [2.5, True, np.True_, "8", "floor - 1"],
                         ids=["2.5", "True", "np.True_", "str", "below-floor"])
@pytest.mark.parametrize("name, low, call", [(e[1], e[2], e[4]) for e in _COUNT_ARGUMENTS],
                         ids=[entry[0] for entry in _COUNT_ARGUMENTS])
def test_count_arguments_pass_one_count_gate(cubic_system, name, low, call, value):
    value = low - 1 if value == "floor - 1" else value
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer in \[{low}, "):
        call(poly_problem([0, 1], [0, 1]), cubic_system, value)


@pytest.mark.parametrize("ok, call", [entry[3:] for entry in _COUNT_ARGUMENTS],
                         ids=[entry[0] for entry in _COUNT_ARGUMENTS])
def test_numpy_integer_counts_act_as_ints(cubic_system, ok, call):
    problem = poly_problem([0, 1], [0, 1])
    assert call(problem, cubic_system, np.int64(ok)) == call(problem, cubic_system, ok)


def test_numeric_strings_convert_as_float_does():
    problem = poly_problem([0, 1], [0, 1])
    assert return_map(problem, "0.01") == return_map(problem, 0.01)
    from_string, from_float = picard_fixed_point(problem, "0.01"), picard_fixed_point(problem, 0.01)
    assert np.array_equal(from_string.values, from_float.values)
    assert cos2pit_problem([0, 1], [0, 1], "0.5").half_width == 0.5


# ----------------------------------------------------------------------
# full-turn integration


def test_rotation_orbit_is_circle(rotation_system, config):
    traj = integrate_planar(rotation_system, 0.3, 0.0, config)
    assert abs(traj.return_radius - 0.3) < 1e-10
    assert abs(traj.times[-1] - TWO_PI) < 1e-12
    assert abs(traj.thetas[-1] - traj.thetas[0] - TWO_PI) < 1e-11
    assert np.max(np.abs(traj.radii() - 0.3)) < 1e-10


def test_rotation_from_off_axis_start(rotation_system, config):
    traj = integrate_planar(rotation_system, 0.1, -0.2, config)
    r0 = math.hypot(0.1, -0.2)
    assert abs(traj.return_radius - r0) < 1e-10


def test_cubic_center_orbit_closes(cubic_system, config):
    traj = integrate_planar(cubic_system, 0.05, 0.0, config)
    assert abs(traj.return_radius - 0.05) < 1e-8
    assert np.all(np.diff(traj.thetas) > 0)
    assert traj.times.shape == (config.grid_points,)


def test_zero_radial_orbits_are_circles(config):
    for system in (make_zero_radial(1, 1), make_zero_radial(3, 3)):
        traj = integrate_planar(system, 0.3, 0.0, config)
        assert np.max(np.abs(traj.radii() - 0.3)) < 1e-9


def test_focus_orbit_spirals_outward(focus_system, config):
    traj = integrate_planar(focus_system, 0.1, 0.0, config)
    assert traj.return_radius > 0.1


def test_winding_angle_accumulates(cubic_system, config):
    traj = integrate_planar(cubic_system, 0.05, 0.0, config)
    assert traj.thetas[0] == pytest.approx(0.0, abs=1e-15)
    assert traj.thetas[-1] == pytest.approx(TWO_PI, abs=1e-11)


# ----------------------------------------------------------------------
# polar route and agreement


def test_polar_return_fixes_origin(cubic_system, config):
    assert polar_return_map(cubic_system, 0.0, config) == 0.0


def test_polar_return_of_zero_radial_is_identity(config):
    assert polar_return_map(make_zero_radial(3, 1), 0.4, config) == pytest.approx(
        0.4, abs=1e-10
    )


def test_cartesian_and_polar_routes_agree(cubic_system, focus_system, config):
    for system, r0 in ((cubic_system, 0.05), (focus_system, 0.1)):
        cart = integrate_planar(system, r0, 0.0, config).return_radius
        polar = polar_return_map(system, r0, config)
        assert abs(cart - polar) < 1e-7


def test_routes_agree_on_random_corpus(config):
    for system in parity_corpus(6):
        for r0 in (0.02, 0.1):
            cart = integrate_planar(system, r0, 0.0, config).return_radius
            polar = polar_return_map(system, r0, config)
            assert abs(cart - polar) < 1e-7


def test_focus_growth_agrees_between_routes(focus_system, config):
    polar = polar_return_map(focus_system, 0.1, config)
    assert polar > 0.1


# ----------------------------------------------------------------------
# transformed-equation crosscheck


def test_crosscheck_on_benchmarks(cubic_system, focus_system, rotation_system, config):
    assert crosscheck_cherkas(cubic_system, 0.05, config) < 1e-9
    assert crosscheck_cherkas(focus_system, 0.05, config) < 1e-9
    assert crosscheck_cherkas(rotation_system, 0.05, config) < 1e-12


def test_crosscheck_expands_the_circle_functions_once(cubic_system, config, monkeypatch):
    calls = []
    compute = reduction.compute_AB

    def counted(system):
        calls.append(system)
        return compute(system)

    monkeypatch.setattr(reduction, "compute_AB", counted)
    monkeypatch.setattr(planar_solver, "compute_AB", counted)
    assert crosscheck_cherkas(cubic_system, 0.05, config) < 1e-9
    assert len(calls) == 1


def test_crosscheck_returns_a_float():
    payload = json.loads((Path(__file__).parent / "golden" / "cubic" / "system.json").read_text())
    defect = crosscheck_cherkas(PlanarSystem.from_json_dict(payload), 0.05)
    assert type(defect) is float and 0.0 < defect < 1e-9


def test_crosscheck_zero_radial(config):
    assert crosscheck_cherkas(make_zero_radial(3, 1), 0.3, config) < 1e-9


def test_crosscheck_sample_validation(cubic_system, config):
    with pytest.raises(ValidationError):
        crosscheck_cherkas(cubic_system, 0.05, config, samples=1)


# ----------------------------------------------------------------------
# domain guards


def test_initial_point_outside_monotone_region():
    system = PlanarSystem(
        n=2, P=HomogPoly.zero(2), Q=HomogPoly.monomial(2, 0, -3)
    )
    with pytest.raises(LeftMonotoneRegion):
        integrate_planar(system, 0.5, 0.0)


def test_orbit_leaves_monotone_region_mid_turn():
    system = PlanarSystem(
        n=3,
        P=HomogPoly.monomial(3, 0, 1),
        Q=HomogPoly.monomial(3, 0, -3),
    )
    with pytest.raises(LeftMonotoneRegion):
        integrate_planar(system, 0.55, 0.0)


def test_angular_speed_test_reads_the_step_end_slope(cubic_system, config, monkeypatch):
    # the Cartesian RHS evaluates P once; outside the solve it runs for the initial
    # angular-speed check and the 4 Newton steps on the section crossing
    calls = {"P": 0, "rhs": 0}

    class CountingPoly(HomogPoly):
        def eval(self, x, y):
            calls["P"] += 1
            return super().eval(x, y)

    def counting_solve_dense(rhs, *args, **kwargs):
        def counted(t, y):
            calls["rhs"] += 1
            return rhs(t, y)

        return solve_dense(counted, *args, **kwargs)

    expected = integrate_planar(cubic_system, 0.05, 0.0, config).return_radius
    monkeypatch.setattr(planar_solver, "solve_dense", counting_solve_dense)
    system = PlanarSystem(n=3, P=CountingPoly(cubic_system.P.coeffs), Q=cubic_system.Q)
    assert integrate_planar(system, 0.05, 0.0, config).return_radius == expected
    assert calls["rhs"] > 100 and calls["P"] == calls["rhs"] + 5


def test_polar_route_detects_monotone_region_exit():
    # p = 3y: the angular speed 1 - 1.5 sin(theta) first turns negative
    # past theta ~ 0.73, well after integration has started
    system = make_zero_radial(1, 1, 3)
    with pytest.raises(LeftMonotoneRegion):
        polar_return_map(system, 0.5)


def test_blowup_in_cartesian_route():
    with pytest.raises(BlowUp):
        integrate_planar(cubic_identity_system(), 1.5, 0.0)


def test_blowup_in_polar_route():
    with pytest.raises(BlowUp):
        polar_return_map(cubic_identity_system(), 1.5)


class _NaNStep:
    """Leaves a NaN state after every step, as an overflowing step would."""

    def _step_impl(self):
        result = super()._step_impl()
        self.y = np.full_like(self.y, np.nan)
        return result


@pytest.fixture
def nan_steps(monkeypatch):
    monkeypatch.setattr(_ivp, "DOP853", type("NaNDOP853", (_NaNStep, DOP853), {}))
    max_norm = type("NaNMaxNormDOP853", (_NaNStep, _ivp.MaxNormDOP853), {})
    monkeypatch.setattr(_ivp, "MaxNormDOP853", max_norm)


@pytest.mark.parametrize(
    "solve",
    [
        lambda system: crosscheck_cherkas(system, 0.05),
        lambda system: polar_return_map(system, 0.05),
        lambda system: integrate_planar(system, 0.05, 0.0),
    ],
    ids=["crosscheck", "polar", "cartesian"],
)
def test_non_finite_state_raises_blowup(nan_steps, cubic_system, solve):
    with pytest.raises(BlowUp, match="non-finite state at t="):
        solve(cubic_system)


def test_scan_guard_names_the_rho_before_the_core_check(nan_steps, cubic_problem):
    with pytest.raises(BlowUp, match=r"rho=0\.01$"):
        displacement_scan(cubic_problem, [0.02, 0.01])


class _NaNAngleDOP853(DOP853):
    """Interpolants whose angle component is NaN: the section search cannot converge."""

    def dense_output(self):
        interpolant = super().dense_output()
        interpolant.F = interpolant.F.copy()
        interpolant.F[:, 2] = np.nan
        return interpolant


def test_nan_section_defect_raises_solver_error(cubic_system, monkeypatch):
    monkeypatch.setattr(_ivp, "DOP853", _NaNAngleDOP853)
    with pytest.raises(SolverError, match="section crossing located only to nan"):
        integrate_planar(cubic_system, 0.05, 0.0)


def test_section_crossing_lies_in_the_last_step(cubic_system, focus_system, config, monkeypatch):
    solves = []

    def recorded(*args, **kwargs):
        solves.append(_ivp.solve_dense(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(planar_solver, "solve_dense", recorded)
    for system in (cubic_system, focus_system, *parity_corpus(6)):
        for x0, y0 in ((0.05, 0.0), (0.02, -0.07)):
            traj = integrate_planar(system, x0, y0, config)
            dense, t_end, _ = solves.pop()
            t_star = traj.times[-1]
            assert dense.interpolants[-1].t_old <= t_star <= t_end
            target = math.atan2(y0, x0) + TWO_PI
            assert abs(traj.thetas[-1] - target) <= planar_solver._SECTION_TOL


def test_origin_start_is_rejected(cubic_system):
    with pytest.raises(ValidationError):
        integrate_planar(cubic_system, 0.0, 0.0)
    with pytest.raises(ValidationError):
        polar_return_map(cubic_system, -0.1)


@pytest.mark.parametrize(
    "solve",
    [
        lambda system: integrate_planar(system, 0.05, 0.0),
        lambda system: polar_return_map(system, 0.05),
    ],
    ids=["cartesian", "polar"],
)
def test_coefficient_beyond_floats_raises_validation_error(solve):
    P = HomogPoly.from_json_list(["1e400", "0", "0"])
    system = PlanarSystem(n=2, P=P, Q=HomogPoly.zero(2))
    with pytest.raises(ValidationError, match="float range"):
        solve(system)


def test_polar_return_map_builds_no_interpolants(cubic_system, focus_system, config, monkeypatch):
    built = []
    dense_output = _ivp.DOP853.dense_output

    def counted(self):
        built.append(self.t)
        return dense_output(self)

    monkeypatch.setattr(_ivp.DOP853, "dense_output", counted)
    for system in (cubic_system, focus_system):
        for r0 in (0.01, 0.05):
            r_end = polar_return_map(system, r0, config)
            assert not built
            dense, r_dense = _polar_solution(system.n, *compute_AB(system), r0, config)
            assert built and r_end == r_dense
            assert dense(TWO_PI)[0] == r_dense
            built.clear()


# ----------------------------------------------------------------------
# export


def test_planar_csv_format(rotation_system, config):
    traj = integrate_planar(rotation_system, 0.2, 0.0, config)
    lines = planar_trajectory_to_csv(traj).strip().split("\n")
    assert lines[0] == "t,x,y,theta"
    assert len(lines) == config.grid_points + 1
    t0, x0, y0, th0 = (float(v) for v in lines[1].split(","))
    assert (t0, x0, y0) == (0.0, 0.2, 0.0)
    assert th0 == pytest.approx(0.0, abs=1e-15)


def test_polar_rhs_is_the_two_evaluator_formula_bit_for_bit(cubic_system, config, monkeypatch):
    rhss = []

    def recorded(rhs, *args, **kwargs):
        rhss.append(rhs)
        return _ivp.solve_dense(rhs, *args, **kwargs)

    monkeypatch.setattr(planar_solver, "solve_dense", recorded)
    rng = np.random.default_rng(7)
    for system in (cubic_system, *parity_corpus(4)):
        A, B = compute_AB(system)
        a_ev, b_ev = reduction._scalar_evaluator(A), reduction._scalar_evaluator(B)
        _polar_solution(system.n, A, B, 0.05, config, dense=False)
        rhs, n = rhss.pop(), system.n
        for theta, r in zip(rng.uniform(0.0, TWO_PI, 50).tolist(), rng.uniform(0.0, 0.1, 50)):
            want = (a_ev(theta) * r**n / (1.0 + b_ev(theta) * r ** (n - 1)),)
            assert rhs(theta, np.array([r])) == rhs(theta, np.array([r])) == want


# ----------------------------------------------------------------------
# the orbit solves on scipy's DOP853 classes


def _trajectory_bytes(system, r0):
    traj = integrate_planar(system, r0, 0.0)
    return [a.tobytes() for a in (traj.times, traj.xs, traj.ys, traj.thetas)]


def _orbit_outputs(cases):
    """Each solve's output or error message, and the set of warnings all of them print."""
    outputs = []
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        for case in cases:
            for solve in (_trajectory_bytes, polar_return_map, crosscheck_cherkas):
                try:
                    outputs.append(solve(*case))
                except SolverError as exc:
                    outputs.append(repr(exc))
    return outputs, sorted({str(w.message) for w in warned})


def _on_scipys_classes(monkeypatch):
    scipy_max_norm = type("ScipyMaxNormDOP853", (DOP853,),
                          {"_estimate_error_norm": _ivp.MaxNormDOP853._estimate_error_norm})
    monkeypatch.setattr(_ivp, "DOP853", DOP853)
    monkeypatch.setattr(_ivp, "MaxNormDOP853", scipy_max_norm)


def _nonfinite_stages(monkeypatch, system, r0) -> int:
    """How many Cartesian right-hand sides of ``integrate_planar`` are not finite."""
    nonfinite = []

    def recorded(rhs, *args, **kwargs):
        def checked(t, y):
            dy = rhs(t, y)
            nonfinite.append(not all(map(math.isfinite, dy)))
            return dy

        return solve_dense(checked, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(planar_solver, "solve_dense", recorded)
        integrate_planar(system, r0, 0.0)
    return sum(nonfinite)


def test_orbit_solves_run_as_on_scipys_classes(cubic_system, focus_system, monkeypatch):
    # at r0 = 2.13 a rejected Cartesian stage of this n = 9 system overflows,
    # and DOP853 rejects the step on numpy's inf
    overflowing = PlanarSystem(
        n=9,
        P=HomogPoly.from_json_list(["1/3", "-2", "0", "-1/2", "1/2", "-1", "-1", "-3", "1", "1"]),
        Q=HomogPoly.from_json_list(["0", "3", "-1/3", "2/3", "1/2", "0", "0", "1", "-1/3", "-1"]),
    )
    cases = [(s, r0) for s in (cubic_system, focus_system, *parity_corpus(3)) for r0 in (0.05, 0.4)]
    cases.append((overflowing, 2.13))
    ours = _orbit_outputs(cases)
    assert _nonfinite_stages(monkeypatch, overflowing, 2.13) > 0
    _on_scipys_classes(monkeypatch)
    assert _orbit_outputs(cases) == ours


def test_rejected_overflowing_stages_print_no_warning(monkeypatch):
    # at r0 = 3.8173 DOP853 rejects stages of this n = 8 system that overflow
    # (inf and NaN right-hand sides), and the orbit still closes normally
    system = PlanarSystem(n=8, P=HomogPoly((0, -2, 0, -1, 0, 1, 3, -3, 0)),
                          Q=HomogPoly((0, 2, 3, 1, -2, -2, 1, 2, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _nonfinite_stages(monkeypatch, system, 3.817335334692811) > 0


def test_zero_over_zero_error_norm_rejects_the_step_as_on_scipys_class(monkeypatch):
    # at r0 = 1e-86 some attempts' |e5|^2 and 0.01 |e3|^2 underflow to 0 while
    # |e3|^2 does not: numpy's 0 / 0 is NaN, which rejects the step
    system = PlanarSystem(n=2, P=HomogPoly((1, 0, 0)), Q=HomogPoly.zero(2))
    ours = _orbit_outputs([(system, 1e-86)])
    assert "invalid value encountered in scalar divide" in ours[1]
    _on_scipys_classes(monkeypatch)
    assert _orbit_outputs([(system, 1e-86)]) == ours
