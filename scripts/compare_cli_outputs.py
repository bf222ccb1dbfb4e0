#!/usr/bin/env python3
"""Run the golden CLI jobs and library calls on two source trees and compare what they produce.

Usage::

    python3 scripts/compare_cli_outputs.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``abelcenter`` package, such as the
``src/`` of a checkout.  One worker process per tree imports the package
from it and runs every golden job in-process through ``cli.main``: each
planar system under ``tests/golden/`` with each of the five commands, and
each scalar payload under ``tests/golden_abel/`` with ``certify``, ``scan``
and ``picard`` (63 jobs).  For every job the output files, the standard
output, the exit status and the warnings are compared.  Library paths
that no command runs are compared too, for each golden planar system (54
more jobs): the bytes of the four arrays of ``integrate_planar(system, 0.05, 0.0)``
and of the off-axis ``integrate_planar(system, 0.03, -0.04)``, the ``repr``
of ``polar_return_map(system, 0.05)``, the bytes of the two arrays of
``integrate_abel(abel_from_planar(system), rho)`` with rho the top of
``default_rho_grid``, and, for that scalar problem, the ``repr`` of its
``bounds()``, its ``rho_admissible_bound`` and the ``g_integral`` of
``moment_conditions`` on the first two rho of ``default_rho_grid``, with
the bytes of that report's ``f_moments``, and the ``repr`` of
``operator_bound_check(problem, 0.5 * rho_admissible_bound(problem))``; or,
where one raises, the exception's type and message.  Two more library jobs
cover the lattice atlas: the ``classify_planar(system).to_json_dict()`` of
every nonzero planar system of degree 2 and of degree 3 whose coefficients
lie in {-1, 0, 1} (728 and 6,560 systems), one JSON line per system, so that
a certificate changed anywhere in the atlas shows as a difference.  One
more records the message with which ``classify_abel`` refuses a sampled
problem whose declared parity its spot check disproves, 120 jobs in all.
A job's warnings are recorded,
every one of them, as the sorted list of its (category name, message)
pairs, so a warning that one tree issues and the other does not, such as
numpy's ``RuntimeWarning`` on overflow, shows as a difference; standard
error is not compared, since it carries file paths and line numbers.  Each
difference is printed; the exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLANAR_COMMANDS = ("certify", "reduce", "scan", "crosscheck", "picard")
ABEL_COMMANDS = ("certify", "scan", "picard")
LIBRARY_CALLS = ("integrate_planar", "integrate_planar_off_axis", "polar_return_map",
                 "integrate_abel", "bounds", "operator_bound_check")
# the starting point (x0, y0) of each integrate_planar job
PLANAR_STARTS = {"integrate_planar": (0.05, 0.0), "integrate_planar_off_axis": (0.03, -0.04)}
# the degrees of the lattice atlas: every system with coefficients in {-1, 0, 1}
LATTICE_DEGREES = (2, 3)


def jobs() -> list[tuple[str, dict]]:
    """(name, job spec) of every golden job, in a fixed order."""
    out = []
    for kind, folder, payload_file, commands in (
        ("planar", "golden", "system.json", PLANAR_COMMANDS),
        ("abel", "golden_abel", "payload.json", ABEL_COMMANDS),
    ):
        for case in sorted(p for p in (ROOT / "tests" / folder).iterdir() if p.is_dir()):
            payload = json.loads((case / payload_file).read_text())
            for command in commands:
                spec = {"kind": kind, "command": command, "payload": payload}
                out.append((f"{folder}/{case.name}/{command}", spec))
    return out


def library_calls() -> list[tuple[str, str, dict | int | None]]:
    """(name, function, planar payload, lattice degree or None) of every library job, in
    a fixed order."""
    cases = sorted(p for p in (ROOT / "tests" / "golden").iterdir() if p.is_dir())
    golden = [(f"golden/{case.name}/{function}", function,
               json.loads((case / "system.json").read_text()))
              for case in cases for function in LIBRARY_CALLS]
    lattice = [(f"lattice/degree-{n}/classify_planar", "classify_planar", n)
               for n in LATTICE_DEGREES]
    return golden + lattice + [("sampled/false-parity/classify_abel", "spot_check", None)]


def lattice_systems(n: int):
    """Every nonzero planar system of degree n whose coefficients lie in {-1, 0, 1}."""
    from abelcenter.reduction import HomogPoly, PlanarSystem

    for coeffs in itertools.product((-1, 0, 1), repeat=2 * (n + 1)):
        if any(coeffs):
            yield PlanarSystem(n=n, P=HomogPoly(coeffs[:n + 1]), Q=HomogPoly(coeffs[n + 1:]))


def call(function: str, payload: dict | int | None, out: Path):
    """One library job: integrate_planar (from either start) and integrate_abel write their
    arrays to ``out``, polar_return_map returns its repr, bounds returns the repr of the
    scalar problem's sup bounds, admissible radius and g integral and writes its moments
    to ``out``, operator_bound_check returns the repr of the scalar problem's report at
    half the admissible radius, classify_planar writes the certificate of every lattice
    system of degree ``payload`` to ``out``, and spot_check classifies f = t + 1/2 declared
    odd; each returns the exception it raises as a string."""
    import abelcenter
    from abelcenter import abel_solver, planar_solver
    from abelcenter.certifier import classify_planar
    from abelcenter.reduction import PlanarSystem, abel_from_planar

    try:
        if function == "classify_planar":
            out.mkdir()
            lines = [json.dumps(classify_planar(system).to_json_dict()) + "\n"
                     for system in lattice_systems(payload)]
            (out / "certificates.jsonl").write_text("".join(lines))
            return 0
        if function == "spot_check":  # the spot check refuses f's declaration
            problem = abelcenter.AbelProblem(f=lambda t: t + 0.5, g=lambda t: t, half_width=1.0,
                                             f_parity=abelcenter.Parity.ODD)
            return repr(abelcenter.classify_abel(problem))
        system = PlanarSystem.from_json_dict(payload)
        if function == "polar_return_map":
            return repr(planar_solver.polar_return_map(system, 0.05))
        if function == "operator_bound_check":
            problem = abelcenter.abel_from_planar(system)
            rho = 0.5 * abelcenter.rho_admissible_bound(problem)
            return repr(abelcenter.operator_bound_check(problem, rho))
        status = 0
        if function == "integrate_abel":
            problem = abel_from_planar(system)
            rho = float(abel_solver.default_rho_grid(problem)[-1])
            traj = abel_solver.integrate_abel(problem, rho)
            arrays = {"nodes": traj.nodes, "values": traj.values}
        elif function == "bounds":  # through the package's names, which both trees export
            problem = abelcenter.abel_from_planar(system)
            rhos = abelcenter.default_rho_grid(problem)[:2]
            report = abelcenter.moment_conditions(problem, rhos)
            status = repr((problem.bounds(), abelcenter.rho_admissible_bound(problem),
                           report.g_integral))
            arrays = {"f_moments": report.f_moments}
        else:
            traj = planar_solver.integrate_planar(system, *PLANAR_STARTS[function])
            arrays = {name: getattr(traj, name) for name in ("times", "xs", "ys", "thetas")}
        out.mkdir()
        for name, array in arrays.items():
            (out / f"{name}.bin").write_bytes(array.tobytes())
        return status
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


@contextlib.contextmanager
def recorded_warnings():
    """A list that holds, once the block ends, every warning issued in it as sorted
    [category name, message] pairs."""
    pairs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield pairs
    pairs.extend(sorted([w.category.__name__, str(w.message)] for w in caught))


def work(src: str, out: Path) -> None:
    """Run every job with the package under ``src``; write outputs and results.json to ``out``."""
    sys.path.insert(0, src)
    from abelcenter import cli

    os.chdir(out)  # relative paths, so that no message depends on the tree
    results = {}
    for name, function, payload in library_calls():
        job = Path("jobs", name)
        job.mkdir(parents=True)
        with recorded_warnings() as warned:
            status = call(function, payload, job / "out")
        results[name] = {"status": status, "stdout": "", "warnings": warned}
    for name, spec in jobs():
        job = Path("jobs", name)
        job.mkdir(parents=True)
        (job / "job.json").write_text(json.dumps(spec))
        stdout = io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()),
              recorded_warnings() as warned):
            try:
                status = cli.main(["--spec", str(job / "job.json"), "--out", str(job / "out")])
            except Exception as exc:  # a traceback in the CLI is a result to compare too
                status = f"raised {type(exc).__name__}: {exc}"
        results[name] = {"status": status, "stdout": stdout.getvalue(), "warnings": warned}
    Path("results.json").write_text(json.dumps(results, indent=1))


def outputs(job: Path) -> dict[str, bytes]:
    """The files a job wrote, by name."""
    out = job / "out"
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def differences(old: Path, new: Path) -> tuple[int, list[str]]:
    """(number of jobs, one line per difference) between two workers' output trees."""
    old_results = json.loads((old / "results.json").read_text())
    new_results = json.loads((new / "results.json").read_text())
    lines = []
    for name in sorted(old_results.keys() | new_results.keys()):
        a, b = old_results.get(name), new_results.get(name)
        if a is None or b is None:
            lines.append(f"{name}: run on one tree only")
            continue
        for key in ("status", "stdout", "warnings"):
            if a[key] != b[key]:
                lines.append(f"{name}: {key} {a[key]!r} != {b[key]!r}")
        files_a, files_b = outputs(old / "jobs" / name), outputs(new / "jobs" / name)
        for file in sorted(files_a.keys() | files_b.keys()):
            if file not in files_a or file not in files_b:
                lines.append(f"{name}: {file} written on one tree only")
            elif files_a[file] != files_b[file]:
                lines.append(f"{name}: {file} differs")
    return len(old_results), lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # the worker process: --worker SRC OUT
        work(argv[1], Path(argv[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="directory holding the old abelcenter package")
    parser.add_argument("new_src", help="directory holding the new abelcenter package")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = [Path(tmp, side) for side in ("old", "new")]
        workers = []
        for src, tree in zip((args.old_src, args.new_src), trees):
            tree.mkdir()
            command = [sys.executable, "-W", "ignore", __file__,
                       "--worker", str(Path(src).resolve()), str(tree)]
            workers.append(subprocess.Popen(command))
        if [worker.wait() for worker in workers] != [0, 0]:
            print("a worker failed", file=sys.stderr)
            return 1
        count, lines = differences(*trees)
    for line in lines:
        print(line)
    changed = len({line.split(":")[0] for line in lines})
    print(f"{count} jobs: {count - changed} identical, {changed} different")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
