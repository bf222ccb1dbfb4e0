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
a closed-form family:
``{"family": "cos2pit", "f": [0, 1], "g": [0, 1], "half_width": 0.5}``.

Config keys mirror the solver configuration (``rel_tol``, ``abs_tol``,
``max_steps``, ``picard_tol``, ``picard_max_iter``, ``ball_radius``,
``grid_points``) plus command inputs: ``rho_grid`` (scan), ``rho``
(picard), ``r0`` and ``samples`` (crosscheck).  Values must be finite
numbers, integers for the counts.  Command-line flags win
over file config.  Exit status: 0 success, 2 validation failure, 3
solver failure.  Reports are deterministic: identical job plus config
produces byte-identical files.
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


def _load_jobspec(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read job spec: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"job spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("job spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"kind must be one of {_KINDS}, got {kind!r}")
    command = spec.get("command")
    if command not in _COMMANDS:
        raise ValidationError(f"command must be one of {_COMMANDS}, got {command!r}")
    payload = spec.get("payload")
    if not isinstance(payload, dict):
        raise ValidationError("payload must be a JSON object")
    config = spec.get("config", {})
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
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
    return spec


def _trig_from_payload(data, label: str) -> TrigPoly:
    if not isinstance(data, dict):
        raise ValidationError(f"{label} must be an object with 'a' and 'b' lists")
    try:
        return TrigPoly.from_json_dict(data)
    except (ValidationError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed trig coefficients for {label}: {exc}") from exc


def _problem_from_payload(payload: dict) -> AbelProblem:
    family = payload.get("family")
    default = 0.5 if family == "cos2pit" else 1.0 if family == "poly" else math.pi
    half_width = _half_width(payload.get("half_width", default))
    if family is not None:
        if "f" not in payload or "g" not in payload:
            raise ValidationError("family payloads need 'f' and 'g' coefficient lists")
        if not isinstance(payload["f"], list) or not isinstance(payload["g"], list):
            raise ValidationError("family coefficients must be lists")
        if family == "cos2pit":
            return cos2pit_problem(payload["f"], payload["g"], half_width)
        if family == "poly":
            return poly_problem(payload["f"], payload["g"], half_width)
        raise ValidationError(f"unknown family {family!r} (expected cos2pit or poly)")
    if "f" not in payload or "g" not in payload:
        raise ValidationError("scalar payloads need 'f' and 'g'")
    f = _trig_from_payload(payload["f"], "f")
    g = _trig_from_payload(payload["g"], "g")
    return AbelProblem(f=f, g=g, half_width=half_width)


def _solver_config(spec_config: dict, args) -> SolverConfig:
    kwargs = {k: spec_config[k] for k in _CONFIG_FIELDS if k in spec_config}
    for name in ("rel_tol", "abs_tol", "ball_radius"):
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    return SolverConfig(**kwargs)


def _rho_grid(spec_config: dict, args) -> list[float] | None:
    if args.rho_grid is not None:
        try:
            grid = [float(v) for v in args.rho_grid.split(",") if v.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad --rho-grid: {exc}") from exc
        if not all(map(_finite, grid)):
            raise ValidationError(f"--rho-grid values must be finite, got {grid}")
        return grid
    grid = spec_config.get("rho_grid")
    return None if grid is None else [float(v) for v in grid]


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _write_json(out_dir: Path, name: str, obj) -> None:
    _write(out_dir, name, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def run_job(spec: dict, out_dir: Path, args) -> int:
    """Execute a validated job spec; returns the process exit status."""
    kind, command = spec["kind"], spec["command"]
    config = _solver_config(spec.get("config", {}), args)
    spec_config = spec.get("config", {})

    if kind == "planar":
        system = PlanarSystem.from_json_dict(spec["payload"])
    else:
        system = None
        problem = _problem_from_payload(spec["payload"])

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
        if system is None:
            raise ValidationError("reduce applies to planar jobs only")
        reduced = abel_from_planar(system)
        origin = reduced.origin
        _write_json(
            out_dir,
            "reduction.json",
            {
                "n": origin.n,
                "A": origin.A.to_json_dict(),
                "B": origin.B.to_json_dict(),
                "f": reduced.f.to_json_dict(),
                "g": reduced.g.to_json_dict(),
                "half_width": reduced.half_width,
                "parities": {
                    "A": origin.A.parity().value,
                    "B": origin.B.parity().value,
                    "f": reduced.f_parity.value,
                    "g": reduced.g_parity.value,
                },
                "mean_A": str(origin.A.mean_value()),
            },
        )
        print(f"reduced degree-{origin.n} system; mean_A = {origin.A.mean_value()}")
        return 0

    if command == "scan":
        prob = problem if system is None else abel_from_planar(system)
        grid = _rho_grid(spec_config, args)
        if grid is None:
            grid = abel_solver.default_rho_grid(prob, config).tolist()
        report = abel_solver.displacement_scan(prob, grid, config)
        _write(out_dir, "scan.csv", abel_solver.report_to_csv(report))
        _write_json(out_dir, "scan.json", report.to_json_dict())
        print(f"classification: {report.classification.value}")
        return 0

    if command == "crosscheck":
        if system is None:
            raise ValidationError("crosscheck applies to planar jobs only")
        r0 = float(spec_config.get("r0", 0.05))
        samples = spec_config.get("samples", 64)
        defect = planar_solver.crosscheck_cherkas(system, r0, config, samples=samples)
        _write_json(
            out_dir, "crosscheck.json", {"r0": r0, "defect": defect, "samples": samples}
        )
        print(f"crosscheck defect: {defect:.6g}")
        return 0

    if command == "picard":
        prob = problem if system is None else abel_from_planar(system)
        if "rho" in spec_config:
            rho = float(spec_config["rho"])
        elif grid := _rho_grid(spec_config, args):
            rho = grid[0]
        else:
            bound = abel_solver.rho_admissible_bound(prob, config.ball_radius)
            rho = 0.5 * bound
            if not rho > 0:
                raise ValidationError(f"the admissible radius {bound:.6g} leaves no rho")
        fixed = abel_solver.picard_fixed_point(prob, rho, config)
        defect = abel_solver.evenness_defect(fixed)
        _write(out_dir, "picard.csv", abel_solver.trajectory_to_csv(fixed))
        _write_json(out_dir, "picard.json", {"rho": rho, "evenness_defect": defect})
        print(f"evenness defect at rho={rho:.6g}: {defect:.6g}")
        return 0

    raise ValidationError(f"unhandled command {command!r}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = _load_jobspec(args.spec)
        return run_job(spec, Path(args.out), args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
