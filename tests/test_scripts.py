"""The scripts under ``scripts/`` run end to end and print their rows."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
    for row in rows:
        verdict, scan, max_d = row.split()[-3:]
        assert (verdict, scan) == ("certified_center", "center_evidence")
        assert float(max_d) < 1e-10
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
