"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 35 --trace 0

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Each run is also recorded, with the failures item by item
and the machine it ran on, in ``.bench_out/runs/``; ``compare.py`` reads
two such directories.  Traced runs write their spans to ``.bench_out/spans/``.

The measuring happens in ``worker.py``.  ``setup_s`` is the median over
SETUP_SAMPLES fresh worker processes (probes that stop at READY, then the
measuring one) of the time from process start to the first timed item, as
measured: unlike item times it is not scaled by
``calibrate.py``, because import work did not follow the calibration loop.
This script imports only the standard library and exits with status 2,
printing no result, when the checkout holds no ``src/abelcenter``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact-sweep", "scan-corpus", "validate-jobs")
SETUP_SAMPLES = 3
# a worker gets this long beyond --seconds before it is stopped
GRACE_S = 60.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    pass


def run_worker(args, extra: list[str], timeout: float) -> tuple[float, list[str]]:
    """Start a worker; returns (seconds from start to READY, stdout lines)."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if not ready:
        raise RunError("worker never reported READY")
    return float(ready[0].split()[1]) - start, lines


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "abelcenter" / "__init__.py").is_file():
        print(f"no abelcenter package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    spans = ROOT / ".bench_out" / "spans" / f"{name}.jsonl"
    try:
        setups = [run_worker(args, ["--probe"], GRACE_S)[0]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        setup, lines = run_worker(args, ["--spans", str(spans)], args.seconds + GRACE_S)
        setups.append(setup)
        result = json.loads(lines[-1])
    except (RunError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setups, "measured": result.get("measured"),
        "items_per_pass": result["items_per_pass"], "failures": result["failures"],
        "meta": {**result["meta"], **machine()}, "result": summary,
    }
    runs = ROOT / ".bench_out" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in result["failures"]:
        print(f"FAILED item {failure['item']} ({failure['kind']}) x{failure['count']}: "
              f"{failure['cause']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
