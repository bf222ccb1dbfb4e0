"""Byte-for-byte golden outputs of the exact layer.

Each directory under ``tests/golden/`` holds one planar system
(``system.json``) and the ``reduction.json`` and ``certificate.json`` that
``reduce`` and ``certify`` wrote for it before the integer-kernel rewrite
of ``trigpoly`` and ``reduction``.  The systems cover the cubic, focus and
rotation benchmarks, two parity-built centers and dense systems with
n = 2, 6, 11, 16.  Any change to an exact coefficient, parity, mean or
cube ratio shows up here as a byte difference.

Each directory under ``tests/golden_abel/`` holds one scalar payload
(``payload.json``: a cos2pit, poly or trigonometric payload, with and
without ``half_width``) and the ``certificate.json`` that ``certify`` wrote
for it before the CLI read payloads through the family builders' defaults.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from abelcenter import PlanarSystem, TrigPoly, abel_from_planar, classify_planar, cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(d.name for d in GOLDEN.iterdir() if d.is_dir())
GOLDEN_ABEL = Path(__file__).parent / "golden_abel"
ABEL_CASES = sorted(d.name for d in GOLDEN_ABEL.iterdir() if d.is_dir())
OUTPUTS = {"reduce": "reduction.json", "certify": "certificate.json"}


def test_golden_set_is_complete():
    assert len(CASES) >= 8
    for name in CASES:
        assert {p.name for p in (GOLDEN / name).iterdir()} == {"system.json", *OUTPUTS.values()}


@pytest.mark.parametrize("command", sorted(OUTPUTS))
@pytest.mark.parametrize("name", CASES)
def test_golden_bytes(tmp_path, capsys, name, command):
    payload = json.loads((GOLDEN / name / "system.json").read_text())
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"kind": "planar", "command": command, "payload": payload}))
    assert cli.main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    produced = (tmp_path / "out" / OUTPUTS[command]).read_bytes()
    assert produced == (GOLDEN / name / OUTPUTS[command]).read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_exact_problems_read_their_sup_bounds_in_bounds_alone(monkeypatch, name):
    # certifying and reducing are exact: the float sup bounds wait for a numeric route
    system = PlanarSystem.from_json_dict(json.loads((GOLDEN / name / "system.json").read_text()))
    calls, linf_bound = [], TrigPoly.linf_bound
    monkeypatch.setattr(TrigPoly, "linf_bound", lambda p: calls.append(p) or linf_bound(p))
    classify_planar(system)
    problem = abel_from_planar(system)
    assert calls == []
    assert problem.bounds() == (linf_bound(problem.f), linf_bound(problem.g))
    assert calls == [problem.f, problem.g]


def test_golden_abel_set_is_complete():
    families = {json.loads((GOLDEN_ABEL / n / "payload.json").read_text()).get("family", "trig")
                for n in ABEL_CASES}
    assert families == {"cos2pit", "poly", "trig"} and len(ABEL_CASES) >= 6
    for name in ABEL_CASES:
        assert {p.name for p in (GOLDEN_ABEL / name).iterdir()} == {
            "payload.json", "certificate.json"}


@pytest.mark.parametrize("name", ABEL_CASES)
def test_golden_abel_certificate_bytes(tmp_path, name):
    payload = json.loads((GOLDEN_ABEL / name / "payload.json").read_text())
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"kind": "abel", "command": "certify", "payload": payload}))
    assert cli.main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    produced = (tmp_path / "out" / "certificate.json").read_bytes()
    assert produced == (GOLDEN_ABEL / name / "certificate.json").read_bytes()
