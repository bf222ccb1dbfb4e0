"""Byte-for-byte golden outputs of the exact layer.

Each directory under ``tests/golden/`` holds one planar system
(``system.json``) and the ``reduction.json`` and ``certificate.json`` that
``reduce`` and ``certify`` wrote for it before the integer-kernel rewrite
of ``trigpoly`` and ``reduction``.  The systems cover the cubic, focus and
rotation benchmarks, two parity-built centers and dense systems with
n = 2, 6, 11, 16.  Any change to an exact coefficient, parity, mean or
cube ratio shows up here as a byte difference.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from abelcenter import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(d.name for d in GOLDEN.iterdir() if d.is_dir())
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
