"""Per-layer spans and counts, recorded from outside the package.

The package binds several functions by name at import (``solve_dense`` in
``abel_solver`` and ``planar_solver``; ``homog_to_trig``, ``compute_AB`` and
``abel_from_planar`` in ``certifier``; ``_scalar_evaluator`` in
``planar_solver``; ``abel_from_planar`` and the family builders in
``cli``).  :func:`install` therefore replaces a traced function under every
name that refers to it in every ``abelcenter`` module, and puts the
originals back on uninstall.  ``TrigPoly.__mul__`` and ``__rmul__`` are one
function and get one wrapper.  A traced name the package no longer has is
skipped, so a later refactor does not break the benchmark; its metrics then
read 0.

Spans are ``[name, start, end, parent, item, tag]`` lists kept in memory
and written out when the run ends.  A span's self time is its duration
minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from abelcenter.errors import SolverError

BANDS = ("n2-6", "n7-11", "n12-16")
CLI_COMMANDS = ("certify", "reduce", "scan", "crosscheck", "picard")


class Tracer:
    """Spans and counts of one pass over a workload."""

    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def open(self, name: str, tag=None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item, tag])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()


def _band(system) -> str:
    n = system.n
    return BANDS[0] if n <= 6 else BANDS[1] if n <= 11 else BANDS[2]


def _spanned(tracer: Tracer, name: str, fn, tag=None, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if count is not None:
            count(tracer.counts, *args)
        sid = tracer.open(name, tag(*args) if tag else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)

    return wrapper


def _mul_pairs(counts, a, b):
    counts["trigpoly.mul.coeff_pairs"] += len(a.cos) * len(getattr(b, "cos", (0,)))


def _traced_solve_dense(tracer: Tracer, fn):
    @functools.wraps(fn)
    def solve_dense(rhs, *args, on_step=None, **kwargs):
        if not tracer.enabled:
            return fn(rhs, *args, on_step=on_step, **kwargs)
        counts = tracer.counts

        def counted_rhs(t, y):
            counts["ivp.rhs_evals"] += 1
            return rhs(t, y)

        def counted_step(t, y):
            counts["ivp.steps"] += 1
            if on_step is not None:
                on_step(t, y)

        sid = tracer.open("ivp.solve_dense")
        try:
            return fn(counted_rhs, *args, on_step=counted_step, **kwargs)
        except SolverError:
            counts["ivp.errors"] += 1
            raise
        finally:
            tracer.close(sid)

    return solve_dense


def _counting(counts: Counter, key: str, fn):
    def counted(t):
        counts[key] += 1
        return fn(t)

    return counted


def _traced_scalar_evaluator(tracer: Tracer, fn):
    @functools.wraps(fn)
    def scalar_evaluator(coef):
        ev = fn(coef)
        if not tracer.enabled:
            return ev
        return _counting(tracer.counts, "reduction.scalar_evals", ev)

    return scalar_evaluator


def _traced_family(tracer: Tracer, fn):
    @functools.wraps(fn)
    def build(*args, **kwargs):
        problem = fn(*args, **kwargs)
        if tracer.enabled:
            problem.f = _counting(tracer.counts, "families.coef_calls", problem.f)
            problem.g = _counting(tracer.counts, "families.coef_calls", problem.g)
        return problem

    return build


def _traced_cli_main(tracer: Tracer, fn):
    @functools.wraps(fn)
    def main(argv=None):
        if not tracer.enabled:
            return fn(argv)
        sid = tracer.open("cli.main")
        try:
            status = fn(argv)
        finally:
            tracer.close(sid)
        if status != 0:
            tracer.counts["cli.exit_nonzero"] += 1
        out = Path(argv[argv.index("--out") + 1])
        if out.is_dir():
            tracer.counts["cli.bytes_written"] += sum(
                p.stat().st_size for p in out.iterdir() if p.is_file()
            )
        return status

    return main


def _dense_points(counts, _self, ts):
    counts["ivp.dense_points"] += int(np.size(ts))


def _targets(tracer: Tracer):
    """(module, dotted attribute, wrapper factory) for every traced function."""
    t = tracer

    def span(name, tag=None, count=None):
        return lambda fn: _spanned(t, name, fn, tag, count)

    return [
        ("trigpoly", "TrigPoly.__mul__", span("trigpoly.mul", count=_mul_pairs)),
        ("reduction", "homog_to_trig", span("reduction.homog_to_trig")),
        ("reduction", "compute_AB", span("reduction.compute_AB")),
        ("reduction", "abel_from_planar",
         span("reduction.abel_from_planar", tag=_band)),
        ("reduction", "_scalar_evaluator", lambda fn: _traced_scalar_evaluator(t, fn)),
        ("certifier", "classify_planar", span("certifier.classify_planar", tag=_band)),
        ("certifier", "classify_abel", span("certifier.classify_abel")),
        ("certifier", "wronskian_cube_ratio", span("certifier.wronskian_cube_ratio")),
        ("_ivp", "solve_dense", lambda fn: _traced_solve_dense(t, fn)),
        ("_ivp", "DenseSolution.__call__",
         span("ivp.dense_eval", count=_dense_points)),
        ("abel_solver", "return_map", span("abel_solver.return_map")),
        ("abel_solver", "displacement_scan", span("abel_solver.displacement_scan")),
        ("abel_solver", "picard_fixed_point", span("abel_solver.picard_fixed_point")),
        ("abel_solver", "picard_operator", span("abel_solver.picard_operator")),
        ("planar_solver", "crosscheck_cherkas", span("planar_solver.crosscheck_cherkas")),
        ("planar_solver", "integrate_planar", span("planar_solver.integrate_planar")),
        ("planar_solver", "polar_return_map", span("planar_solver.polar_return_map")),
        ("families", "cos2pit_problem", lambda fn: _traced_family(t, fn)),
        ("families", "poly_problem", lambda fn: _traced_family(t, fn)),
        ("cli", "main", lambda fn: _traced_cli_main(t, fn)),
    ]


def install(tracer: Tracer):
    """Wrap every traced function at all its bind sites; returns the undo."""
    modules = [m for name, m in sys.modules.items()
               if name == "abelcenter" or name.startswith("abelcenter.")]
    saved = []
    for mod_name, dotted, factory in _targets(tracer):
        owner = sys.modules.get(f"abelcenter.{mod_name}")
        *cls_path, attr = dotted.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapper = factory(original)
        holders = [owner] if cls_path else modules
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    saved.append((holder, name, value))
                    setattr(holder, name, wrapper)

    def uninstall():
        for holder, name, value in reversed(saved):
            setattr(holder, name, value)

    return uninstall


# ----------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

# (metric, unit, better); the list BENCHMARK.json's per_layer mirrors
LAYER_METRICS = [
    ("trigpoly.mul.calls", "count", "lower"),
    ("trigpoly.mul.coeff_pairs", "count", "lower"),
    ("trigpoly.mul.ms", "ms", "lower"),
    ("reduction.homog_to_trig.calls", "count", "lower"),
    ("reduction.compute_AB.calls", "count", "lower"),
    ("reduction.abel_from_planar.ms", "ms", "lower"),
    *[(f"reduction.abel_from_planar.ms.{b}", "ms", "lower") for b in BANDS],
    ("reduction.scalar_evals", "count", "lower"),
    ("certifier.classify_planar.ms", "ms", "lower"),
    *[(f"certifier.classify_planar.ms.{b}", "ms", "lower") for b in BANDS],
    ("certifier.classify_planar.self_ms", "ms", "lower"),
    ("certifier.wronskian_cube_ratio.ms", "ms", "lower"),
    ("certifier.classify_abel.ms", "ms", "lower"),
    ("ivp.solves", "count", "lower"),
    ("ivp.steps", "count", "lower"),
    ("ivp.rhs_evals", "count", "lower"),
    ("ivp.rhs_per_step", "ratio", "lower"),
    ("ivp.dense_points", "count", "lower"),
    ("ivp.ms", "ms", "lower"),
    ("ivp.dense_ms", "ms", "lower"),
    ("ivp.errors", "count", "lower"),
    ("abel_solver.return_map.calls", "count", "lower"),
    ("abel_solver.return_map.ms", "ms", "lower"),
    ("abel_solver.return_map.self_ms", "ms", "lower"),
    ("abel_solver.displacement_scan.ms", "ms", "lower"),
    ("abel_solver.picard.iters", "count", "lower"),
    ("abel_solver.picard_fixed_point.ms", "ms", "lower"),
    ("planar_solver.crosscheck_cherkas.ms", "ms", "lower"),
    ("planar_solver.integrate_planar.ms", "ms", "lower"),
    ("planar_solver.polar_return_map.ms", "ms", "lower"),
    ("families.coef_calls", "count", "lower"),
    *[(f"cli.{c}.ms", "ms", "lower") for c in CLI_COMMANDS],
    ("cli.self_ms", "ms", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.item_coverage_pct", "%", "higher"),
]

# counts that must repeat exactly for a fixed seed
COUNT_METRICS = [name for name, unit, _ in LAYER_METRICS if unit == "count"]


def pass_metrics(spans: list[list], counts: Counter, item_kinds: dict) -> dict:
    """Per-layer totals of one traced pass (times in ms over the pass).

    ``item_kinds`` maps an item id to its kind, so CLI spans can be split
    by command.  Root spans are the items themselves, named ``item``.
    """
    dur = [(s[2] - s[1]) * 1e3 for s in spans]
    child = defaultdict(float)
    for s, d in zip(spans, dur):
        if s[3] is not None:
            child[s[3]] += d
    total = defaultdict(float)
    calls = Counter()
    self_ms = defaultdict(float)
    for sid, (s, d) in enumerate(zip(spans, dur)):
        name, tag = s[0], s[5]
        total[name] += d
        calls[name] += 1
        self_ms[name] += d - child[sid]
        if tag is not None:
            total[f"{name}.{tag}"] += d
        if name == "cli.main":
            total[f"cli.{item_kinds[s[4]].split('.', 1)[1]}"] += d

    item_ms = total["item"]
    covered = sum(child[sid] for sid, s in enumerate(spans) if s[0] == "item")
    steps = counts["ivp.steps"]
    out = {
        "trigpoly.mul.calls": calls["trigpoly.mul"],
        "trigpoly.mul.coeff_pairs": counts["trigpoly.mul.coeff_pairs"],
        "trigpoly.mul.ms": total["trigpoly.mul"],
        "reduction.homog_to_trig.calls": calls["reduction.homog_to_trig"],
        "reduction.compute_AB.calls": calls["reduction.compute_AB"],
        "reduction.abel_from_planar.ms": total["reduction.abel_from_planar"],
        "reduction.scalar_evals": counts["reduction.scalar_evals"],
        "certifier.classify_planar.ms": total["certifier.classify_planar"],
        "certifier.classify_planar.self_ms": self_ms["certifier.classify_planar"],
        "certifier.wronskian_cube_ratio.ms": total["certifier.wronskian_cube_ratio"],
        "certifier.classify_abel.ms": total["certifier.classify_abel"],
        "ivp.solves": calls["ivp.solve_dense"],
        "ivp.steps": steps,
        "ivp.rhs_evals": counts["ivp.rhs_evals"],
        "ivp.rhs_per_step": counts["ivp.rhs_evals"] / steps if steps else 0.0,
        "ivp.dense_points": counts["ivp.dense_points"],
        "ivp.ms": total["ivp.solve_dense"],
        "ivp.dense_ms": total["ivp.dense_eval"],
        "ivp.errors": counts["ivp.errors"],
        "abel_solver.return_map.calls": calls["abel_solver.return_map"],
        "abel_solver.return_map.ms": total["abel_solver.return_map"],
        "abel_solver.return_map.self_ms": self_ms["abel_solver.return_map"],
        "abel_solver.displacement_scan.ms": total["abel_solver.displacement_scan"],
        "abel_solver.picard.iters": calls["abel_solver.picard_operator"],
        "abel_solver.picard_fixed_point.ms": total["abel_solver.picard_fixed_point"],
        "planar_solver.crosscheck_cherkas.ms": total["planar_solver.crosscheck_cherkas"],
        "planar_solver.integrate_planar.ms": total["planar_solver.integrate_planar"],
        "planar_solver.polar_return_map.ms": total["planar_solver.polar_return_map"],
        "families.coef_calls": counts["families.coef_calls"],
        "cli.self_ms": self_ms["cli.main"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
        "trace.item_coverage_pct": 100.0 * covered / item_ms if item_ms else 0.0,
    }
    for b in BANDS:
        out[f"reduction.abel_from_planar.ms.{b}"] = total[f"reduction.abel_from_planar.{b}"]
        out[f"certifier.classify_planar.ms.{b}"] = total[f"certifier.classify_planar.{b}"]
    for c in CLI_COMMANDS:
        out[f"cli.{c}.ms"] = total[f"cli.{c}"]
    return out


def combine_passes(passes: list[dict]) -> dict:
    """Counts from the first traced pass, times as the median over passes."""
    out = {}
    for name in passes[0]:
        if name in COUNT_METRICS:
            out[name] = passes[0][name]
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out


def write_spans(path: Path, passes: list[list[list]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for k, spans in enumerate(passes):
            for sid, (name, start, end, parent, item, tag) in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "item": item,
                                     "tag": tag}) + "\n")
