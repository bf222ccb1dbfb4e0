"""Compare two sets of benchmark runs, workload by workload.

Usage::

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run records as ``run.py`` writes them to
``.bench_out/runs/`` (copy that directory away between the two commits).
Runs are paired by workload and seed.  For every workload and end-to-end
metric of ``BENCHMARK.json`` one row gives both medians and quartiles,
the paired win rate of the change, and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the base's own quartile distance;
* ``worse``: the change's median is worse than the base's by more than
  the metric's bound;
* ``unresolved``: either set spreads wider than the bound, unless every
  run of the change beats every run of the base;
* ``no worse``: otherwise.

Then, from traced runs present in both sets, every per-layer count is
listed with both totals and their difference over the paired seeds, and
whether it was equal on every seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, seed, trace): record} for every run record in ``directory``."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["seed"], record["trace"])] = record
    return runs


def value(record: dict, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound: float) -> tuple[float, str]:
    """(paired win rate of the change, verdict) for one workload and metric."""
    sign = -1.0 if lower_better else 1.0
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    qb, qc = quartiles(base), quartiles(change)
    spread = max((qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0,
                 (qc[2] - qc[0]) / abs(qc[1]) if qc[1] else 0.0)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    worse_by = sign * (qb[1] - qc[1]) / abs(qb[1]) if qb[1] else 0.0
    if win_rate >= 0.9 and sign * (qc[1] - qb[1]) > qb[2] - qb[0]:
        return win_rate, "improved"
    if spread > bound and not all_better:
        return win_rate, "unresolved"
    if worse_by > bound:
        return win_rate, "worse"
    return win_rate, "no worse"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':>28} "
          f"{'change median [q1, q3]':>28} {'pairs':>5} {'win':>5}  verdict")
    for workload in workloads:
        seeds = sorted({k[1] for k in base if k[0] == workload and k[2] == 0}
                       | {k[1] for k in change if k[0] == workload and k[2] == 0})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: value(base[(workload, s, 0)], name) for s in seeds
                 if (workload, s, 0) in base}
            c = {s: value(change[(workload, s, 0)], name) for s in seeds
                 if (workload, s, 0) in change}
            if not b or not c:
                continue
            pairs = [(b[s], c[s]) for s in seeds if s in b and s in c]
            win, word = verdict(list(b.values()), list(c.values()), pairs,
                                metric["better"] == "lower", metric["bound"])
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                     for q in (quartiles(list(b.values())), quartiles(list(c.values())))]
            print(f"{workload:<14} {name:<12} {cells[0]:>28} {cells[1]:>28} "
                  f"{len(pairs):>5} {win:>5.2f}  {word}")

    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    print(f"\n{'workload':<14} {'per-layer count':<32} {'base':>12} {'change':>12} "
          f"{'delta':>10}  seeds  every seed equal")
    for workload in workloads:
        seeds = sorted(k[1] for k in base
                       if k[0] == workload and k[2] == 1 and (workload, k[1], 1) in change)
        if not seeds:
            continue
        for name in counts:
            b = [value(base[(workload, s, 1)], name) for s in seeds]
            c = [value(change[(workload, s, 1)], name) for s in seeds]
            print(f"{workload:<14} {name:<32} {sum(b):>12} {sum(c):>12} "
                  f"{sum(c) - sum(b):>+10}  {len(seeds):>5}  {'yes' if b == c else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
