"""Command-line front end.

A job is described by a JSON file::

    {
      "kind": "planar",                  // or "abel"
      "command": "certify",              // certify | reduce | scan | crosscheck | picard
      "payload": { ... },                // see below
      "config": { "rel_tol": 1e-10 }     // optional overrides
    }

Planar payloads give the system exactly:
``{"n": 3, "P": ["0","2","0","0"], "Q": ["0","0","1","0"]}`` (rational
strings, coefficient j multiplying x^(n-j) y^j).  Scalar payloads either
give exact trigonometric coefficients
``{"f": {"a": [...], "b": [...]}, "g": {...}, "half_width": 3.14...}``
(the format ``reduce`` emits, so its output re-ingests directly) or name
a closed-form family of :mod:`~abelcenter.families`, whose builders set
the default ``half_width`` and check the coefficient lists:
``{"family": "cos2pit", "f": [0, 1], "g": [0, 1], "half_width": 0.5}``.

Config keys mirror the solver configuration (``rel_tol``, ``abs_tol``,
``max_steps``, ``picard_tol``, ``picard_max_iter``, ``ball_radius``,
``grid_points``) plus command inputs: ``rho_grid`` (scan), ``rho``
(picard), ``r0`` and ``samples`` (crosscheck).  Values must be finite
numbers, integers for the counts, and ``rel_tol`` may not go below
DOP853's floor of 100 machine epsilons.  Command-line flags win over file
config and are checked by the same rules, whatever the command.  Exit
status: 0 success, 2 validation failure, 3 solver failure.  Reports are
deterministic: identical job plus config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import abel_solver, certifier, planar_solver
from ._ivp import _RTOL_FLOOR
from .abel_solver import SolverConfig
from .errors import SolverError, ValidationError
from .families import _half_width, cos2pit_problem, poly_problem
from .reduction import AbelProblem, PlanarSystem, abel_from_planar
from .trigpoly import TrigPoly

__all__ = ["main", "build_parser", "run_job"]

_COMMANDS = ("certify", "reduce", "scan", "crosscheck", "picard")
_KINDS = ("planar", "abel")
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}
_EXTRA_CONFIG = {"rho_grid", "rho", "r0", "samples"}
_INT_CONFIG = {"max_steps", "picard_max_iter", "grid_points", "samples"}


def _finite(value) -> bool:
    """A JSON number, not a bool, that is a finite float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelcenter",
        description="Center/focus certification and return-map numerics "
        "for planar systems and scalar cubic equations.",
    )
    parser.add_argument("--spec", required=True, help="path to the job JSON file")
    parser.add_argument("--out", required=True, help="output directory for reports")
    parser.add_argument("--rel-tol", type=float, help="integrator relative tolerance")
    parser.add_argument("--abs-tol", type=float, help="integrator absolute tolerance")
    parser.add_argument(
        "--rho-grid",
        help="comma-separated initial values for scan (e.g. 0.005,0.01,0.02)",
    )
    parser.add_argument(
        "--m", type=float, dest="ball_radius", help="trust-ball radius for the operator route"
    )
    return parser


# building the argparse parser is not free; every main() call reuses one
_parser = functools.cache(build_parser)


def _load_jobspec(args: argparse.Namespace) -> dict:
    """The job file ``args.spec`` with the flags merged into its config, all checked."""
    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read job spec: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"job spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("job spec must be a JSON object")
    for key, allowed in (("kind", _KINDS), ("command", _COMMANDS)):
        if spec.get(key) not in allowed:
            raise ValidationError(f"{key} must be one of {allowed}, got {spec.get(key)!r}")
    payload = spec.get("payload")
    if not isinstance(payload, dict):
        raise ValidationError("payload must be a JSON object")
    config = spec.get("config", {})
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    flags = {k: v for k, v in vars(args).items() if k not in ("spec", "out") and v is not None}
    if "rho_grid" in flags:
        try:
            flags["rho_grid"] = [float(v) for v in flags["rho_grid"].split(",") if v.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad --rho-grid: {exc}") from exc
    spec["config"] = config = {**config, **flags}
    unknown = set(config) - _CONFIG_FIELDS - _EXTRA_CONFIG
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        if key == "rho_grid":
            ok = isinstance(value, list) and value and all(map(_finite, value))
        else:
            ok = type(value) is int if key in _INT_CONFIG else _finite(value)
        if not ok:
            raise ValidationError(f"malformed config value {key}={value!r}")
    if config.get("rel_tol", _RTOL_FLOOR) < _RTOL_FLOOR:
        raise ValidationError(
            f"rel_tol={config['rel_tol']!r} is below DOP853's floor 100*eps = {_RTOL_FLOOR}"
        )
    return spec


def _trig_from_payload(data, label: str) -> TrigPoly:
    try:
        return TrigPoly.from_json_dict(data)
    except (ValidationError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed trig coefficients for {label}: {exc}") from exc


def _trig_problem(f, g, half_width=math.pi) -> AbelProblem:
    f, g = _trig_from_payload(f, "f"), _trig_from_payload(g, "g")
    return AbelProblem(f=f, g=g, half_width=_half_width(half_width))


def _problem_from_payload(payload: dict) -> AbelProblem:
    """The scalar problem of an abel payload; each builder applies its own default width."""
    family = payload.get("family")
    if family not in (None, "cos2pit", "poly"):
        raise ValidationError(f"unknown family {family!r} (expected cos2pit or poly)")
    # built per call, so a wrapper installed on a module name (bench/tracing.py) is seen
    build = {None: _trig_problem, "cos2pit": cos2pit_problem, "poly": poly_problem}[family]
    width = {"half_width": payload["half_width"]} if "half_width" in payload else {}
    return build(payload.get("f"), payload.get("g"), **width)


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _write_json(out_dir: Path, name: str, obj) -> None:
    _write(out_dir, name, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def run_job(spec: dict, out_dir: Path) -> int:
    """Execute a job spec checked by ``_load_jobspec``; returns the process exit status."""
    kind, command, config = spec["kind"], spec["command"], spec.get("config", {})
    solver = SolverConfig(**{k: v for k, v in config.items() if k in _CONFIG_FIELDS})
    if kind == "abel" and command in ("reduce", "crosscheck"):
        raise ValidationError(f"{command} applies to planar jobs only")
    system = PlanarSystem.from_json_dict(spec["payload"]) if kind == "planar" else None
    if system is None:
        problem = _problem_from_payload(spec["payload"])
    elif command in ("reduce", "scan", "picard"):
        problem = abel_from_planar(system)

    if command == "certify":
        cert = (
            certifier.classify_planar(system)
            if system is not None
            else certifier.classify_abel(problem)
        )
        _write_json(out_dir, "certificate.json", cert.to_json_dict())
        print(f"verdict: {cert.verdict.value} (basis: {cert.basis.value})")
        return 0

    if command == "reduce":
        origin = problem.origin
        _write_json(
            out_dir,
            "reduction.json",
            {
                "n": origin.n,
                "A": origin.A.to_json_dict(),
                "B": origin.B.to_json_dict(),
                "f": problem.f.to_json_dict(),
                "g": problem.g.to_json_dict(),
                "half_width": problem.half_width,
                "parities": {
                    "A": origin.A.parity().value,
                    "B": origin.B.parity().value,
                    "f": problem.f_parity.value,
                    "g": problem.g_parity.value,
                },
                "mean_A": str(origin.A.mean_value()),
            },
        )
        print(f"reduced degree-{origin.n} system; mean_A = {origin.A.mean_value()}")
        return 0

    if command == "scan":
        grid = config.get("rho_grid")
        if grid is None:
            grid = abel_solver.default_rho_grid(problem, solver).tolist()
        report = abel_solver.displacement_scan(problem, [float(v) for v in grid], solver)
        _write(out_dir, "scan.csv", abel_solver.report_to_csv(report))
        _write_json(out_dir, "scan.json", report.to_json_dict())
        print(f"classification: {report.classification.value}")
        return 0

    if command == "crosscheck":
        r0 = float(config.get("r0", 0.05))
        samples = config.get("samples", 64)
        defect = planar_solver.crosscheck_cherkas(system, r0, solver, samples=samples)
        _write_json(
            out_dir, "crosscheck.json", {"r0": r0, "defect": defect, "samples": samples}
        )
        print(f"crosscheck defect: {defect:.6g}")
        return 0

    # picard
    if "rho" in config:
        rho = float(config["rho"])
    elif "rho_grid" in config:
        rho = float(config["rho_grid"][0])
    else:
        bound = abel_solver.rho_admissible_bound(problem, solver.ball_radius)
        rho = 0.5 * bound
        if not rho > 0:
            raise ValidationError(f"the admissible radius {bound:.6g} leaves no rho")
    fixed = abel_solver.picard_fixed_point(problem, rho, solver)
    defect = abel_solver.evenness_defect(fixed)
    _write(out_dir, "picard.csv", abel_solver.trajectory_to_csv(fixed))
    _write_json(out_dir, "picard.json", {"rho": rho, "evenness_defect": defect})
    print(f"evenness defect at rho={rho:.6g}: {defect:.6g}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run_job(_load_jobspec(args), Path(args.out))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
