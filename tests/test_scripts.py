"""The scripts under ``scripts/`` run end to end and print their rows."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "ignore", str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_center_corpus_script_certifies_and_scans_each_system():
    proc = run_script("run_center_corpus.py", "--count", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line for line in lines if line.startswith("n=")]
    assert len(rows) == 3
    bases = set()
    for row in rows:
        basis, verdict, scan, max_d = row.split()[-4:]
        bases.add(basis)
        assert (verdict, scan) == ("certified_center", "center_evidence")
        assert float(max_d) < 1e-10
    assert bases == {"planar_parity", "odd_coefficients"}
    assert lines[-1].startswith("worst displacement over the corpus:")


def test_crosscheck_script_agrees_across_the_three_routes():
    proc = run_script("run_crosscheck.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["system", "scalar", "defect", "cartesian", "vs", "polar"]
    names = ["cubic benchmark", "cubic focus", "quadratic rotation", "zero radial speed"]
    assert [row[:22].strip() for row in rows] == names
    for row in rows:
        defect, gap = (float(v) for v in row[22:].split())
        assert defect < 1e-9 and gap < 1e-9


def load_compare_cli_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_cli_outputs", ROOT / "scripts" / "compare_cli_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_compare_cli_outputs_finds_a_tree_identical_to_itself(capsys):
    # in-process, so the only subprocesses are the script's two workers
    script = load_compare_cli_outputs()
    src = str(ROOT / "src")
    assert script.main([src, src]) == 0
    assert capsys.readouterr().out.splitlines() == ["120 jobs: 120 identical, 0 different"]


def test_compare_cli_outputs_records_every_warning_of_a_job():
    # numpy's overflow warning counts, and a repeat is not folded into one
    script = load_compare_cli_outputs()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as in the workers, run with -W ignore
        with script.recorded_warnings() as warned:
            np.float64(1e308) * 10.0
            for _ in range(2):
                warnings.warn("initial value 0.3 is outside", UserWarning)
    assert warned == [["RuntimeWarning", "overflow encountered in scalar multiply"],
                      ["UserWarning", "initial value 0.3 is outside"],
                      ["UserWarning", "initial value 0.3 is outside"]]
