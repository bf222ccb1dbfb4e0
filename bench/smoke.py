"""Short run of every workload that checks the result schema and the oracles.

Usage, from the root of a checkout::

    python3 bench/smoke.py

Runs each workload for 2 seconds untraced and traced, and checks that the
last output line has exactly the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; that the metrics are exactly those ``BENCHMARK.json``
declares for the mode, with their units; and that every oracle passed.  It
also checks that a directory holding only ``BENCHMARK.json`` and the
benchmark fails without printing a result.  Not part of the test suite,
because it takes about a minute.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace)]
    return subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> str | None:
    if proc.returncode != 0:
        return f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        return f"oracles failed: {proc.stderr.strip()[-1000:]}"
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != want[name]:
            return f"metric {name}: {entry}"
        if not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
            return f"metric {name} is not a finite number: {entry['value']!r}"
    return None


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            problem = check_result(run(ROOT, workload, trace), declared)
            print(f"{workload} trace={trace}: {problem or 'ok'}")
            if problem:
                problems.append(problem)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), SPEC["workloads"][0]["name"], 0)
        bare_ok = proc.returncode != 0 and not proc.stdout.strip()
        print(f"benchmark alone: {'fails as it should' if bare_ok else 'did not fail'}")
        if not bare_ok:
            problems.append("the benchmark ran without the package")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
