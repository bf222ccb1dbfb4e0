"""Benchmark worker: builds one workload, reports READY, then measures it.

Started by ``run.py`` as a fresh interpreter, so that the time from
process start to READY is the set-up a user pays: the ``abelcenter``
import, building the inputs and one untimed warm-up item.  With
``--probe`` the worker stops at READY.  Otherwise it measures for
``--seconds`` and prints one JSON object as its last line.
"""

from __future__ import annotations

import os

# pinned before numpy loads, so BLAS never starts threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import abelcenter  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# blocks per workload: one pass over all items takes 3 to 9 s
BLOCKS = {"exact-sweep": 6, "scan-corpus": 6, "validate-jobs": 8}


def run_item(item: workloads.Item, tracer: tracing.Tracer | None, item_id: int):
    """Time one item and judge it.

    Returns (seconds, calibration seconds just before, failure cause or None).
    """
    if item.prepare is not None:
        item.prepare()
    calibration = calibrate.calibration_loop()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.item, tracer.enabled = item_id, True
            sid = tracer.open("item", item.kind)
        start = time.perf_counter()
        try:
            out, error = item.run(), None
        except Exception as exc:  # every raised error is a counted failure
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(sid)
            tracer.enabled = False
    if error is None:
        try:
            error = item.check(out)
        except Exception as exc:
            error = f"oracle raised {type(exc).__name__}: {exc}"
    if error is None and caught:
        error = f"warning: {caught[0].message}"
    return elapsed, calibration, error


class Failures:
    """Failed items with their causes, one entry per item and cause."""

    def __init__(self):
        self.entries: dict[tuple, dict] = {}
        self.total = 0

    def add(self, item_id: int, item: workloads.Item, cause: str) -> None:
        self.total += 1
        entry = self.entries.setdefault(
            (item_id, cause), {"item": item_id, "kind": item.kind, "cause": cause, "count": 0}
        )
        entry["count"] += 1

    def report(self) -> list[dict]:
        return list(self.entries.values())


def scaled_ms(elapsed: list[float], calibrations: list[float]) -> list[float]:
    """Item times in ms at the reference speed (see calibrate.py)."""
    factors = calibrate.speed_factors(calibrations)
    return [1e3 * t / f for t, f in zip(elapsed, factors)]


def measure(items, seconds: float, failures: Failures) -> dict:
    """Cycle through the items for ``seconds``; end-to-end metrics."""
    elapsed, calibrations = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        idx = k % len(items)
        t, cal, error = run_item(items[idx], None, idx)
        elapsed.append(t)
        calibrations.append(cal)
        if error:
            failures.add(idx, items[idx], error)
        k += 1
    ms = sorted(scaled_ms(elapsed, calibrations))
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        "attempted": len(ms),
        "metrics": {
            "items_per_s": {"value": len(ms) / (sum(ms) / 1e3), "unit": "1/s"},
            "item_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "item_ms_p90": {"value": p90, "unit": "ms"},
            "ok_share": {"value": 1.0 - failures.total / len(ms), "unit": "share"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        },
        "measured": {
            "items_per_s": len(elapsed) / sum(elapsed),
            "speed_factor": statistics.median(calibrations) / calibrate.REFERENCE_S,
        },
    }


def measure_traced(items, seconds: float, failures: Failures, spans_path: Path) -> dict:
    """Alternate untraced and traced whole passes; per-layer metrics.

    Passes are whole so that counts cover the same items on every run.
    A new pass starts only while the previous pass would still fit.
    Per-layer times are as measured; the traced and untraced rates behind
    the overhead are at the reference speed.
    """
    tracer = tracing.Tracer()
    kinds = {i: item.kind for i, item in enumerate(items)}
    elapsed, calibrations, traced_flags = [], [], []
    layer_passes, span_passes = [], []
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        traced = k % 2 == 1
        pass_start = time.perf_counter()
        if traced:
            tracer.reset()
            uninstall = tracing.install(tracer)
        try:
            for idx, item in enumerate(items):
                t, cal, error = run_item(item, tracer if traced else None, idx)
                elapsed.append(t)
                calibrations.append(cal)
                traced_flags.append(traced)
                if error:
                    failures.add(idx, item, error)
        finally:
            if traced:
                uninstall()
        if traced:
            layer_passes.append(tracing.pass_metrics(tracer.spans, tracer.counts, kinds))
            span_passes.append(tracer.spans)
        now = time.perf_counter()
        if k >= 1 and now + (now - pass_start) > deadline:
            break
    tracing.write_spans(spans_path, span_passes)
    metrics = tracing.combine_passes(layer_passes)
    ms = scaled_ms(elapsed, calibrations)
    rate = {}
    for flag in (False, True):
        sample = [t for t, f in zip(ms, traced_flags) if f is flag]
        rate[flag] = len(sample) / (sum(sample) / 1e3)
    metrics["trace.items_per_s"] = rate[True]
    metrics["trace.untraced_items_per_s"] = rate[False]
    metrics["trace.overhead_pct"] = 100.0 * (rate[False] / rate[True] - 1.0)
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    return {
        "attempted": len(ms),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    if not Path(abelcenter.__file__).resolve().is_relative_to(SRC):
        print(f"abelcenter imported from {abelcenter.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_out"
    work_dir.mkdir(exist_ok=True)
    job_root = Path(tempfile.mkdtemp(prefix="jobs-", dir=work_dir))
    try:
        blocks = workloads.build(args.workload, args.seed, BLOCKS[args.workload], job_root)
        items = [item for block in blocks for item in block]
        failures = Failures()
        run_item(items[0], None, 0)  # warm-up, untimed; the timed loop judges it
        print(f"READY {time.monotonic():.9f}", flush=True)
        if args.probe:
            return 0
        if args.trace:
            result = measure_traced(items, args.seconds, failures, Path(args.spans))
        else:
            result = measure(items, args.seconds, failures)
    finally:
        shutil.rmtree(job_root, ignore_errors=True)
    result.update(
        failed=failures.total,
        failures=failures.report(),
        items_per_pass=len(items),
        meta={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
