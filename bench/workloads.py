"""The three benchmark workloads: seeded inputs, timed items and their oracles.

Every workload is a list of *blocks*.  A block holds the same mix of item
kinds and degrees for every seed; only the random coefficients change.
That keeps the work in a block, and so the throughput of a run, close to
the same from one seed to the next.

Each item is a callable (the timed part) plus an oracle (untimed) that
checks the output against mathematics the program does not use: monomial
parity indices, a float quadrature of ``cos P + sin Q`` on the circle, the
sign of the first focal quantity, and agreement between independent
solution routes within tolerances taken from ``SolverConfig``.  No oracle
compares with stored output of an earlier commit.

Importing this module needs ``abelcenter`` on ``sys.path``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from abelcenter import abel_solver, certifier, cli, families, planar_solver, reduction
from abelcenter.reduction import HomogPoly, PlanarSystem

WORKLOADS = ("exact-sweep", "scan-corpus", "validate-jobs")

# solver settings every item runs with; the oracle tolerances derive from them
CONFIG = abel_solver.SolverConfig()
NOISE_FLOOR = 100.0 * CONFIG.abs_tol  # as in abel_solver.displacement_scan


def eps_center(rho: float) -> float:
    """Center threshold of a displacement scan at ``rho`` (see DisplacementReport)."""
    return CONFIG.abs_tol * 1e3 + CONFIG.rel_tol * 1e2 * rho


# agreement of two adaptive solves of one orbit: both routes keep a local
# error of rel_tol*|y| + abs_tol per step over a few hundred steps
def route_tol(scale: float) -> float:
    return 1e3 * (CONFIG.rel_tol * scale + CONFIG.abs_tol)


# the Picard route integrates with composite Simpson on grid_points nodes;
# its error is O(h^4) in the step h of that grid, scaled by the solution size
def picard_tol(rho: float, half_width: float) -> float:
    h = 2.0 * half_width / (CONFIG.grid_points - 1)
    return 10.0 * rho * h**4 + route_tol(rho) + CONFIG.picard_tol


@dataclass
class Item:
    """One unit of timed work and the check that judges its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    prepare: Optional[Callable[[], None]] = None  # untimed, before each run


# ----------------------------------------------------------------------
# generators: answers known by construction

_SMALL = (-3, -2, -1, 1, 2, 3)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_SMALL), rng.choice((1, 2, 3, 4)))


def dense_system(rng: random.Random, n: int) -> PlanarSystem:
    """Every coefficient of P and Q a nonzero small rational."""
    P = HomogPoly(tuple(_rational(rng) for _ in range(n + 1)))
    Q = HomogPoly(tuple(_rational(rng) for _ in range(n + 1)))
    return PlanarSystem(n=n, P=P, Q=Q)


def parity_system(rng: random.Random, n: int) -> PlanarSystem:
    """P a monomial with odd y-power, Q one with even y-power: a center."""
    m1 = rng.choice(range(1, n + 1, 2))
    m2 = rng.choice(range(0, n + 1, 2))
    return PlanarSystem(
        n=n,
        P=HomogPoly.monomial(n, m1, rng.choice(_SMALL)),
        Q=HomogPoly.monomial(n, m2, rng.choice(_SMALL)),
    )


def _circle_moment(a: int, b: int) -> Fraction:
    """Exact mean of cos^a sin^b over a period."""
    if a % 2 or b % 2:
        return Fraction(0)
    num = math.prod(range(a - 1, 0, -2)) * math.prod(range(b - 1, 0, -2))
    return Fraction(num, math.prod(range(a + b, 0, -2)))


def exact_mean_A(system: PlanarSystem) -> Fraction:
    n = system.n
    return sum(
        (p * _circle_moment(n - j + 1, j) + q * _circle_moment(n - j, j + 1)
         for j, (p, q) in enumerate(zip(system.P.coeffs, system.Q.coeffs))),
        Fraction(0),
    )


def coeff_l1(system: PlanarSystem) -> float:
    """sum |P_j| + |Q_j|: bounds |A|, |B| and |P|, |Q| on the unit circle."""
    return float(sum(abs(c) for c in system.P.coeffs + system.Q.coeffs))


def focus_system(rng: random.Random, n: int) -> PlanarSystem:
    """Dense odd-degree system whose mean of A clearly differs from zero.

    The margin keeps the leading term of the displacement in charge of
    its sign across the whole default scan grid.
    """
    while True:
        system = dense_system(rng, n)
        if abs(exact_mean_A(system)) >= 0.05 * coeff_l1(system):
            return system


def monotone_r0(system: PlanarSystem) -> float:
    """A start radius where 1 + B r^(n-1) >= 3/4 on the whole circle."""
    return min(0.1, 0.5 * (0.25 / coeff_l1(system)) ** (1.0 / (system.n - 1)))


# ----------------------------------------------------------------------
# oracle helpers (float mathematics independent of the exact layer)


def circle_AB(system: PlanarSystem, t):
    """A(t), B(t) from the polynomials themselves; ``t`` may be complex."""
    c, s = cmath.cos(t), cmath.sin(t)
    p, q = system.P.eval(c, s), system.Q.eval(c, s)
    return c * p + s * q, c * q - s * p


def quadrature_mean_A(system: PlanarSystem) -> float:
    """Trapezoid mean of A over 64 nodes: exact for trig degree n+1 < 64."""
    m = 64
    return sum(circle_AB(system, 2 * math.pi * k / m)[0].real for k in range(m)) / m


def expected_planar_center(system: PlanarSystem) -> bool:
    """P(cos, sin) odd and Q(cos, sin) even, read off the monomial indices."""
    p_odd = all(j % 2 == 1 for j, c in enumerate(system.P.coeffs) if c)
    q_even = all(j % 2 == 0 for j, c in enumerate(system.Q.coeffs) if c)
    return p_odd and q_even


def trig_json_eval(data: dict, t: float) -> float:
    a = [float(Fraction(v)) for v in data["a"]]
    b = [float(Fraction(v)) for v in data["b"]]
    return sum(c * math.cos(k * t) for k, c in enumerate(a)) + sum(
        c * math.sin((k + 1) * t) for k, c in enumerate(b)
    )


_SAMPLE_TS = (-2.9, -1.3, 0.4, 1.7, 3.0)


def check_mean_A(system: PlanarSystem, mean_A: Fraction) -> Optional[str]:
    quad = quadrature_mean_A(system)
    if abs(float(mean_A) - quad) > 1e-12 * coeff_l1(system):
        return f"mean_A {mean_A} != quadrature {quad:.17g}"
    return None


def check_reduction(system: PlanarSystem, f_at, g_at, mean_A: Fraction) -> Optional[str]:
    """f = -(n-1)AB, g = (n-1)A - B' pointwise, and mean_A by quadrature.

    B' comes from a complex step, so no exact arithmetic is shared.
    """
    error = check_mean_A(system, mean_A)
    if error:
        return error
    scale = coeff_l1(system)
    m = system.n - 1
    tol = 1e-11 * (1.0 + m) * (1.0 + scale) ** 2
    step = 1e-30
    for t in _SAMPLE_TS:
        A, B = circle_AB(system, t)
        dB = circle_AB(system, complex(t, step))[1].imag / step
        f_ref, g_ref = -m * A.real * B.real, m * A.real - dB
        if abs(f_at(t) - f_ref) > tol or abs(g_at(t) - g_ref) > tol:
            return f"f or g off at t={t}: {f_at(t)!r} vs {f_ref!r}, {g_at(t)!r} vs {g_ref!r}"
    return None


def check_verdict(system: PlanarSystem, verdict: str) -> Optional[str]:
    """Certificate verdict against the parity indices and the quadrature mean."""
    if expected_planar_center(system):
        want = "certified_center"
    else:
        quad = abs(quadrature_mean_A(system))
        scale = coeff_l1(system)
        if quad > 1e-9 * scale:
            want = "certified_focus"
        elif quad < 1e-13 * scale:
            want = "inconclusive"
        else:  # too close to zero for a float decision; mean_A was checked
            return None
    if verdict != want:
        return f"verdict {verdict}, expected {want}"
    return None


def check_displacements(rhos, ds, center: bool, sign: float) -> Optional[str]:
    """A center keeps every |d| below eps_center; a focus has d of sign ``sign``."""
    for rho, d in zip(rhos, ds):
        if not math.isfinite(d):
            return f"displacement at rho={rho:.6g} is not finite"
        if center and abs(d) >= eps_center(rho):
            return f"center has |d({rho:.6g})| = {abs(d):.3e} >= eps_center"
        if not center and sign and abs(d) > NOISE_FLOOR and d * sign < 0:
            return f"focus displacement d({rho:.6g}) = {d:.3e} has the wrong sign"
    return None


# ----------------------------------------------------------------------
# exact-sweep


def _exact_item(system: PlanarSystem) -> Item:
    def run():
        return certifier.classify_planar(system), reduction.abel_from_planar(system)

    def check(out):
        cert, problem = out
        return check_verdict(system, cert.verdict.value) or check_reduction(
            system, problem.f.eval, problem.g.eval, Fraction(cert.evidence["mean_A"])
        )

    return Item("exact", run, check)


def build_exact_sweep(rng: random.Random, blocks: int) -> list[list[Item]]:
    """Per block: dense systems with every n in 2..16 once, plus parity-built
    monomial centers with n = 2, 5, 8, 11, 14, in random order."""
    out = []
    for _ in range(blocks):
        systems = [dense_system(rng, n) for n in range(2, 17)]
        systems += [parity_system(rng, n) for n in range(2, 17, 3)]
        rng.shuffle(systems)
        out.append([_exact_item(s) for s in systems])
    return out


# ----------------------------------------------------------------------
# scan-corpus


def _scan_item(system: PlanarSystem, group: str) -> Item:
    want = {"center": "certified_center", "focus": "certified_focus",
            "even": "inconclusive"}[group]

    def run():
        cert = certifier.classify_planar(system)
        problem = reduction.abel_from_planar(system)
        grid = abel_solver.default_rho_grid(problem, CONFIG)
        return cert, abel_solver.displacement_scan(problem, grid, CONFIG)

    def check(out):
        cert, report = out
        if cert.verdict.value != want:
            return f"verdict {cert.verdict.value}, expected {want}"
        error = check_mean_A(system, Fraction(cert.evidence["mean_A"]))
        if error:
            return error
        sign = math.copysign(1.0, quadrature_mean_A(system)) if group == "focus" else 0.0
        return check_displacements(
            report.rhos, report.displacements, group == "center", sign
        )

    return Item(f"scan.{group}", run, check)


def build_scan_corpus(rng: random.Random, blocks: int) -> list[list[Item]]:
    """Per block, six items of each group: parity centers with n = 2, 4, 6
    twice; focus systems with n = 3, 5 three times; even-degree dense
    systems with n = 2, 4 three times."""
    out = []
    for _ in range(blocks):
        items = [_scan_item(parity_system(rng, n), "center") for n in (2, 4, 6) * 2]
        items += [_scan_item(focus_system(rng, n), "focus") for n in (3, 5) * 3]
        items += [_scan_item(dense_system(rng, n), "even") for n in (2, 4) * 3]
        rng.shuffle(items)
        out.append(items)
    return out


# ----------------------------------------------------------------------
# validate-jobs


class JobDir:
    """Job files and output directories under one benchmark-owned directory."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def job(self, spec: dict) -> tuple[Path, Path]:
        self.count += 1
        spec_path = self.root / f"job{self.count}.json"
        spec_path.write_text(json.dumps(spec))
        return spec_path, self.root / f"out{self.count}"


@dataclass
class JobResult:
    status: int
    out: Path
    stderr: str


def _cli_item(kind: str, spec_path: Path, out: Path, check) -> Item:
    """Run ``abelcenter.cli.main`` in-process on one job file."""
    argv = ["--spec", str(spec_path), "--out", str(out)]

    def prepare():
        shutil.rmtree(out, ignore_errors=True)

    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        return JobResult(status, out, err.getvalue())

    def checked(result: JobResult):
        if result.status != 0:
            return f"exit status {result.status}: {result.stderr.strip()[:200]}"
        try:
            return check(result.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    return Item(kind, run, checked, prepare=prepare)


def _read_csv(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _picard_check(problem_of, rho: float, half_width: float, even: bool):
    """Picard endpoint against the Runge-Kutta return map at the same rho."""
    reference = {}

    def check(out: Path):
        data = json.loads((out / "picard.json").read_text())
        rows = _read_csv(out / "picard.csv")
        if len(rows) != CONFIG.grid_points:
            return f"picard.csv has {len(rows)} rows"
        if "x" not in reference:
            reference["x"] = abel_solver.return_map(problem_of(), rho, CONFIG)
        gap = abs(rows[-1][1] - reference["x"])
        tol = picard_tol(rho, half_width)
        if gap > tol:
            return f"picard endpoint off the return map by {gap:.3e} > {tol:.3e}"
        if even and data["evenness_defect"] > tol:
            return f"evenness defect {data['evenness_defect']:.3e} > {tol:.3e}"
        return None

    return check


def _planar_items(jobs: JobDir, system: PlanarSystem) -> list[Item]:
    payload = system.to_json_dict()
    r0 = monotone_r0(system)
    items = []

    def crosscheck(out: Path):
        defect = json.loads((out / "crosscheck.json").read_text())["defect"]
        if not defect <= route_tol(r0):
            return f"crosscheck defect {defect:.3e} > {route_tol(r0):.3e}"
        return None

    spec, out = jobs.job({"kind": "planar", "command": "crosscheck",
                          "payload": payload, "config": {"r0": r0}})
    items.append(_cli_item("cli.crosscheck", spec, out, crosscheck))

    def reduce(out: Path):
        data = json.loads((out / "reduction.json").read_text())
        return check_reduction(
            system,
            lambda t: trig_json_eval(data["f"], t),
            lambda t: trig_json_eval(data["g"], t),
            Fraction(data["mean_A"]),
        )

    spec, out = jobs.job({"kind": "planar", "command": "reduce", "payload": payload})
    items.append(_cli_item("cli.reduce", spec, out, reduce))

    # default rho: half the admissible radius, which the CLI computes
    def picard(out: Path):
        rho = json.loads((out / "picard.json").read_text())["rho"]
        return _picard_check(
            lambda: reduction.abel_from_planar(system), rho, math.pi, False
        )(out)

    spec, out = jobs.job({"kind": "planar", "command": "picard", "payload": payload})
    items.append(_cli_item("cli.picard", spec, out, picard))

    def run_integrate():
        traj = planar_solver.integrate_planar(system, r0, 0.0, CONFIG)
        return traj, planar_solver.polar_return_map(system, r0, CONFIG)

    def check_integrate(out):
        traj, polar = out
        gap = abs(traj.return_radius - polar)
        if gap > route_tol(r0):
            return f"integrate_planar vs polar_return_map gap {gap:.3e}"
        if not all(b > a for a, b in zip(traj.thetas, traj.thetas[1:])):
            return "winding angle is not increasing"
        return None

    items.append(Item("integrate_planar", run_integrate, check_integrate))
    return items


def _family_coeffs(rng: random.Random, family: str, center: bool):
    """Coefficient lists of f and g, plus the sign of the integral of g.

    Centers get odd coefficients (sines for cos2pit, odd powers for poly).
    Foci get a g whose constant term dominates, so int g has its sign.
    """
    # cos2pit lists are [c0, cos, sin, cos, sin]; poly lists are powers 0..3
    width, odd_slots = (5, (2, 4)) if family == "cos2pit" else (4, (1, 3))

    def coeffs(slots):
        return [_rational(rng) / 2 if i in slots else Fraction(0) for i in range(width)]

    if center:
        return coeffs(odd_slots), coeffs(odd_slots), 0.0
    f = coeffs(range(width))
    g = [c / 4 for c in coeffs(range(width))]
    g[0] = Fraction(rng.choice((-1, 1)) * rng.choice((2, 3)), 2)
    return f, g, math.copysign(1.0, g[0])


def _family_radius(family: str, f, g) -> tuple[float, float]:
    """(half width, admissible radius min(M/2, 1/(4a(FM+G)))) with M = 1."""
    a = 0.5 if family == "cos2pit" else 1.0
    if family == "cos2pit":
        F, G = (float(sum(abs(c) for c in v)) for v in (f, g))
    else:
        F, G = (float(sum(abs(c) * a**i for i, c in enumerate(v))) for v in (f, g))
    return a, min(0.5, 1.0 / (4.0 * a * (F + G)))


def _family_items(jobs: JobDir, rng: random.Random, family: str, center: bool) -> list[Item]:
    f, g, sign = _family_coeffs(rng, family, center)
    a, radius = _family_radius(family, f, g)
    payload = {"family": family, "f": [str(c) for c in f], "g": [str(c) for c in g],
               "half_width": a}
    build = families.cos2pit_problem if family == "cos2pit" else families.poly_problem
    items = []

    def certify(out: Path):
        verdict = json.loads((out / "certificate.json").read_text())["verdict"]
        want = "certified_center" if center else "inconclusive"
        return None if verdict == want else f"verdict {verdict}, expected {want}"

    spec, out = jobs.job({"kind": "abel", "command": "certify", "payload": payload})
    items.append(_cli_item("cli.certify", spec, out, certify))

    grid = [0.5 * radius * 2.0 ** (-k / 2) for k in range(8)]

    def scan(out: Path):
        json.loads((out / "scan.json").read_text())
        rows = _read_csv(out / "scan.csv")
        if len(rows) != len(grid):
            return f"scan.csv has {len(rows)} rows, expected {len(grid)}"
        return check_displacements([r[0] for r in rows], [r[2] for r in rows], center, sign)

    spec, out = jobs.job({"kind": "abel", "command": "scan", "payload": payload,
                          "config": {"rho_grid": grid}})
    items.append(_cli_item("cli.scan", spec, out, scan))

    rho = 0.5 * radius
    spec, out = jobs.job({"kind": "abel", "command": "picard", "payload": payload,
                          "config": {"rho": rho}})
    check = _picard_check(lambda: build([str(c) for c in f], [str(c) for c in g], a),
                          rho, a, center)
    items.append(_cli_item("cli.picard", spec, out, check))
    return items


def build_validate_jobs(rng: random.Random, blocks: int, job_root: Path) -> list[list[Item]]:
    """Per block: three planar systems (a parity center of degree 2 or 4, a
    cubic focus, an even-degree dense system), each with a crosscheck,
    reduce and picard job plus an integrate_planar item; and four scalar
    family problems (cos2pit and poly, each a center and a focus), each
    with a certify, scan and picard job."""
    jobs = JobDir(job_root)
    out = []
    for _ in range(blocks):
        items = []
        for system in (parity_system(rng, rng.choice((2, 4))), focus_system(rng, 3),
                       dense_system(rng, 2)):
            items += _planar_items(jobs, system)
        for family in ("cos2pit", "poly"):
            for center in (True, False):
                items += _family_items(jobs, rng, family, center)
        rng.shuffle(items)
        out.append(items)
    return out


def build(name: str, seed: int, blocks: int, job_root: Path) -> list[list[Item]]:
    rng = random.Random(f"{name}:{seed}")
    if name == "exact-sweep":
        return build_exact_sweep(rng, blocks)
    if name == "scan-corpus":
        return build_scan_corpus(rng, blocks)
    if name == "validate-jobs":
        return build_validate_jobs(rng, blocks, job_root)
    raise ValueError(f"unknown workload {name!r}")
