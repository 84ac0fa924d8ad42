#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit and a change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --out DIR`` writes, from
runs of the two commits made alternately with the same settings. For
every (workload, end-to-end metric) the runs are paired in the order they
were made and judged by this rule:

- ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
- ``unresolved``: the parent's own spread (IQR over median) is wider than
  the metric's bound in ``BENCHMARK.json``, and not every change run
  reads better than every parent run;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``within-bound``: otherwise; ``too-few-pairs`` below 10 pairs.

Digests and simulated values must be identical for every (workload,
seed) on both sides. Per-layer metrics from traced runs are listed with
their medians only: they carry no bound. One row is printed per
(workload, metric); the exit code is 1 on a regression, a mismatch or a
failed run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from common import load_benchmark

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Per-layer metrics computed by the model, not measured on the host.
SIMULATED = ("arch.dram_bytes", "arch.noc_bytes", "sim.speedup_geomean")


def load(directory: Path) -> list:
    """Result files in the order the runs were made."""
    results = [json.loads(p.read_text())
               for p in Path(directory).glob("*.json")
               if not p.name.endswith(".trace.json")]
    return sorted(results, key=lambda r: r.get("stamp", 0))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The rule in the module docstring, for one metric on one workload."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "too-few-pairs"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    base = statistics.median(parent)
    q1, q3 = quartiles(parent)
    gained = sign * (statistics.median(change) - base)
    if wins >= WIN_SHARE * len(pairs) and gained > q3 - q1:
        return "gain"
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    if (q3 - q1) / abs(base) > bound and not all_better:
        return "unresolved"
    if -gained / abs(base) > bound:
        return "regression"
    return "within-bound"


def _summary(values: list) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent: list, change: list, bench: dict) -> list:
    """Rows of (workload, metric, parent, change, verdict)."""
    rows = []
    for side, results in (("parent", parent), ("change", change)):
        for r in results:
            if not r["correct"] or r["failed"]:
                rows.append((r["workload"], f"run seed={r['seed']}", side,
                             f"{r['failed']} failed", "FAILED"))
    rows += _exact_rows(parent, change)
    metrics = [(m, 0) for m in bench["end_to_end"]] + \
              [(m, 1) for m in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for metric, trace in metrics:
            name = metric["name"]
            if trace and name in SIMULATED:
                continue
            sides = [[r["metrics"][name]["value"] for r in results
                      if r["workload"] == workload and r["trace"] == trace]
                     for results in (parent, change)]
            if not all(sides):
                continue
            result = ("info" if trace else
                      verdict(*sides, metric["better"], metric["bound"]))
            rows.append((workload, name, _summary(sides[0]),
                         _summary(sides[1]), result))
    return rows


def _exact_rows(parent: list, change: list) -> list:
    """Digests and simulated values: identical per (workload, seed)."""
    seen: dict = {}
    for results in (parent, change):
        for r in results:
            exact = dict(r["exact"])
            if r["trace"]:
                exact.update({name: r["metrics"][name]["value"]
                              for name in SIMULATED})
            for name, value in exact.items():
                seen.setdefault((r["workload"], r["seed"], name),
                                set()).add(repr(value))
    return [(workload, f"{name} seed={seed}", "", " | ".join(sorted(values)),
             "match" if len(values) == 1 else "MISMATCH")
            for (workload, seed, name), values in sorted(seen.items())]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load(Path(argv[0])), load(Path(argv[1])),
                   load_benchmark())
    table = [("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "verdict")] + rows
    widths = [max(len(str(row[i])) for row in table) for i in range(4)]
    for row in table:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths + [0])))
    bad = {"regression", "MISMATCH", "FAILED"}
    return 1 if any(row[4] in bad for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
