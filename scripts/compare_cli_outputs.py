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
output, the exit status and the warnings are compared.  Two library paths
that no command runs are compared too, for each golden planar system (36
more jobs, 99 in all): the bytes of the four arrays of ``integrate_planar(system, 0.05, 0.0)``
and of the off-axis ``integrate_planar(system, 0.03, -0.04)``, the ``repr``
of ``polar_return_map(system, 0.05)`` and the bytes of the two arrays of
``integrate_abel(abel_from_planar(system), rho)`` with rho the top of
``default_rho_grid``, or, where one raises, the exception's type and
message.  A job's warnings are recorded, every one of them, as the sorted
list of its (category name, message) pairs, so a warning that one tree
issues and the other does not, such as numpy's ``RuntimeWarning`` on
overflow, shows as a difference; standard error is not compared, since it
carries file paths and line numbers.  Each difference is printed; the exit
status is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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
                 "integrate_abel")
# the starting point (x0, y0) of each integrate_planar job
PLANAR_STARTS = {"integrate_planar": (0.05, 0.0), "integrate_planar_off_axis": (0.03, -0.04)}


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


def library_calls() -> list[tuple[str, str, dict]]:
    """(name, function, planar payload) of every library job, in a fixed order."""
    cases = sorted(p for p in (ROOT / "tests" / "golden").iterdir() if p.is_dir())
    return [(f"golden/{case.name}/{function}", function,
             json.loads((case / "system.json").read_text()))
            for case in cases for function in LIBRARY_CALLS]


def call(function: str, payload: dict, out: Path):
    """One library job: integrate_planar (from either start) and integrate_abel write their
    arrays to ``out``, polar_return_map returns its repr; each returns the exception it
    raises as a string."""
    from abelcenter import abel_solver, planar_solver
    from abelcenter.reduction import PlanarSystem, abel_from_planar

    try:
        system = PlanarSystem.from_json_dict(payload)
        if function == "polar_return_map":
            return repr(planar_solver.polar_return_map(system, 0.05))
        if function == "integrate_abel":
            problem = abel_from_planar(system)
            rho = float(abel_solver.default_rho_grid(problem)[-1])
            traj = abel_solver.integrate_abel(problem, rho)
            arrays = {"nodes": traj.nodes, "values": traj.values}
        else:
            traj = planar_solver.integrate_planar(system, *PLANAR_STARTS[function])
            arrays = {name: getattr(traj, name) for name in ("times", "xs", "ys", "thetas")}
        out.mkdir()
        for name, array in arrays.items():
            (out / f"{name}.bin").write_bytes(array.tobytes())
        return 0
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
