#!/usr/bin/env python
"""Record this PR's perf trajectory point: ``BENCH_<n>.json``.

Measures the tier-1 workload matrix under both event kernels — suite
wall-clock, per-workload simulation seconds, and events/sec (scheduling
slots drained per second of host time) — and writes the committed
trajectory file every future PR compares against::

    PYTHONPATH=src python tools/bench_trajectory.py          # BENCH_6.json
    PYTHONPATH=src python tools/bench_trajectory.py --bench-id 7

The measurement core here is shared with the pinned profiling
microharness (``benchmarks/bench_hotpath.py``), which is also where the
CI perf-regression gate lives: it reruns the pinned subset and fails when
events/sec drops more than 20% below the committed baseline (see
:func:`perf_regressions`). ``docs/performance.md`` explains how to read
the file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: Serial-measurement engines, in reporting order.
ENGINES = ("reference", "fast")

#: The pinned profile/regression subset (also used by
#: benchmarks/bench_hotpath.py): the suite's heaviest event producers
#: plus one shared-read and one skew-heavy workload, so both runtimes'
#: hot frames (NoC, DRAM, stream pumps, dispatcher) show up. Keep this
#: stable across PRs — the perf gate compares like against like.
PINNED_WORKLOADS = ("spmm", "bfs", "stencil-amr", "micro-shared",
                    "wavefront")
PINNED_LANES = 8

#: events/sec may regress by at most this fraction before the bench CI
#: job fails (compared against the committed previous BENCH_*.json).
DEFAULT_TOLERANCE = 0.20


@contextmanager
def engine(name: str):
    """Select the event kernel (``REPRO_ENGINE``) inside the block."""
    old = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = name
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = old


def point_config(lanes: int = 8):
    """The MachineConfig a bench point runs — *exactly* the tier-1 path.

    tests/test_bench_harness.py pins this to ``default_delta_config``:
    the benchmarks must measure the same machine the test suite and the
    evaluation harness build, or the trajectory numbers are fiction.
    """
    from repro.arch.config import default_delta_config

    return default_delta_config(lanes=lanes)


def measure_point(workload_name: str, lanes: int = 8) -> dict:
    """One Delta-vs-static comparison, timed, with its event count."""
    from repro.eval.runner import compare
    from repro.sim import total_events_processed
    from repro.workloads.registry import get_workload

    events_before = total_events_processed()
    t0 = time.perf_counter()
    compare(get_workload(workload_name), point_config(lanes), verify=False)
    wall = time.perf_counter() - t0
    events = total_events_processed() - events_before
    return {
        "sim_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall) if wall > 0 else 0,
    }


def measure_matrix(engine_choice: str, lanes: int = 8,
                   workloads: Optional[Sequence[str]] = None,
                   rounds: int = 1) -> dict:
    """Serial sweep of the workload matrix under one engine.

    ``rounds`` > 1 keeps the best (fastest) sweep: event counts are
    deterministic, wall-clock is not, and best-of damps host scheduler
    noise — the perf-regression gate and the recorded ``pinned`` section
    both use best-of-3 so they compare like against like.
    """
    from repro.workloads.registry import workload_names

    names = list(workloads) if workloads else workload_names()
    best = None
    for _ in range(max(1, rounds)):
        per_workload = {}
        t0 = time.perf_counter()
        with engine(engine_choice):
            for name in names:
                per_workload[name] = measure_point(name, lanes)
        wall = time.perf_counter() - t0
        events = sum(p["events"] for p in per_workload.values())
        matrix = {
            "wall_clock_s": round(wall, 4),
            "events": events,
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "workloads": per_workload,
        }
        if best is None or matrix["wall_clock_s"] < best["wall_clock_s"]:
            best = matrix
    return best


#: The warm-cache measurement subset: two fast workloads are enough to
#: time the serve-from-disk path against the simulate path.
STORE_WORKLOADS = ("micro-skewed", "micro-shared")


def measure_store(lanes: int = 8,
                  workloads: Sequence[str] = STORE_WORKLOADS) -> dict:
    """Warm-cache effectiveness and eviction behavior of the unified store.

    A cold sweep fills a throwaway store, a warm sweep must be served
    entirely from it (hit rate 1.0), and then the size cap is pulled
    below the store's footprint to prove the eviction policy actually
    reclaims space — all observed through the same ``cache.*`` counters
    ``repro eval`` reports.
    """
    import tempfile

    from repro.eval.cache import EvalCache
    from repro.eval.parallel import run_suite_parallel
    from repro.store import ShardedStore
    from repro.util.counters import Counters
    from repro.workloads.registry import get_workload

    def points():
        return [get_workload(name) for name in workloads]

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        counters = Counters()
        cache = EvalCache(store=ShardedStore(Path(tmp), max_bytes=None,
                                             counters=counters))
        t0 = time.perf_counter()
        run_suite_parallel(lanes=lanes, workloads=points(), jobs=1,
                           cache=cache, verify=False)
        cold_s = time.perf_counter() - t0
        cold_hits = counters.get("cache.hits")
        cold_misses = counters.get("cache.misses")
        t0 = time.perf_counter()
        run_suite_parallel(lanes=lanes, workloads=points(), jobs=1,
                           cache=cache, verify=False)
        warm_s = time.perf_counter() - t0
        warm_hits = counters.get("cache.hits") - cold_hits
        warm_lookups = warm_hits + (counters.get("cache.misses")
                                    - cold_misses)
        footprint = cache.store.total_bytes()
        # Pull the cap below the footprint: the policy must evict back
        # under budget (and the counters must say so).
        cache.store.max_bytes = max(1, footprint // 2)
        evicted = cache.store.evict_to_budget()
        return {
            "workloads": list(workloads),
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 1) if warm_s else 0.0,
            "warm_hit_rate": round(warm_hits / warm_lookups, 3)
            if warm_lookups else 0.0,
            "footprint_bytes": footprint,
            "eviction": {
                "budget_bytes": cache.store.max_bytes,
                "evicted_entries": evicted,
                "evicted_bytes": round(counters.get("cache.evicted_bytes")),
                "within_budget":
                    cache.store.total_bytes() <= cache.store.max_bytes,
            },
        }


def build_payload(bench_id: int, lanes: int = 8,
                  workloads: Optional[Sequence[str]] = None,
                  jobs: Optional[int] = None) -> dict:
    """Measure both engines and assemble the BENCH_<n>.json payload."""
    from repro.eval.parallel import resolve_jobs

    suites = {name: measure_matrix(name, lanes, workloads)
              for name in ENGINES}
    fast, reference = suites["fast"], suites["reference"]
    payload = {
        "bench_id": f"BENCH_{bench_id}",
        "schema": 1,
        "description": (
            "Perf trajectory point: tier-1 workload matrix "
            "(Delta-vs-static compare per workload), serial, "
            "REPRO_ENGINE as keyed. events = scheduling slots drained, "
            "equal under both engines (they run the same component code "
            "and differ only in the event queue)."),
        "lanes": lanes,
        "suite": fast,
        "reference": reference,
        "speedup_vs_reference": round(
            reference["wall_clock_s"] / fast["wall_clock_s"], 3)
        if fast["wall_clock_s"] else 0.0,
        # The subset the CI perf gate re-measures (same mix and same
        # best-of-3 timing, so the events/sec comparison is
        # like-for-like).
        "pinned": measure_matrix("fast", PINNED_LANES, PINNED_WORKLOADS,
                                 rounds=3),
        # Warm-cache hit rate + eviction behavior of the unified store
        # (informational — the CI gate reads the sections above).
        "store": measure_store(lanes),
    }
    resolved = resolve_jobs(jobs)
    if resolved > 1:
        from repro.eval.runner import run_suite

        t0 = time.perf_counter()
        run_suite(lanes=lanes, jobs=resolved, verify=False)
        payload["suite_parallel"] = {
            "jobs": resolved,
            "wall_clock_s": round(time.perf_counter() - t0, 4),
        }
    return payload


# -- baselines and regression checking ----------------------------------

def trajectory_files(root: Path = REPO_ROOT) -> list[Path]:
    """Committed BENCH_*.json files, ordered by bench id."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _id, path in sorted(found)]


def latest_baseline(root: Path = REPO_ROOT) -> Optional[Path]:
    """The newest committed trajectory point, if any."""
    files = trajectory_files(root)
    return files[-1] if files else None


def perf_regressions(current: dict, baseline: dict,
                     tolerance: float = DEFAULT_TOLERANCE,
                     per_workload: bool = False) -> list[str]:
    """Named events/sec regressions of ``current`` vs ``baseline``.

    Compares the suite-level throughput (and, with ``per_workload``, each
    workload's) of two payload-shaped dicts; an entry regresses when its
    events/sec falls more than ``tolerance`` below the baseline's.
    Returns human-readable descriptions (empty = no regression). The CI
    gate checks the aggregate only — per-workload wall-clock on a shared
    runner is too noisy to gate individually.
    """
    problems = []

    def check(label: str, now: float, then: float) -> None:
        if then > 0 and now < then * (1.0 - tolerance):
            problems.append(
                f"{label}: {now:,.0f} events/s vs baseline {then:,.0f} "
                f"(-{(1 - now / then) * 100:.1f}%, tolerance "
                f"{tolerance * 100:.0f}%)")

    check("suite", current["suite"]["events_per_sec"],
          baseline["suite"]["events_per_sec"])
    if per_workload:
        base_workloads = baseline["suite"].get("workloads", {})
        for name, point in current["suite"].get("workloads", {}).items():
            then = base_workloads.get(name)
            if then:
                check(name, point["events_per_sec"],
                      then["events_per_sec"])
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-id", type=int, default=6,
                        help="trajectory point number (BENCH_<n>.json)")
    parser.add_argument("--lanes", type=int, default=8)
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset of workload names (default: all)")
    parser.add_argument("--repro-jobs", type=int, default=None, metavar="N",
                        help="also time a parallel suite run with N workers "
                             "(default: $REPRO_JOBS, else skipped)")
    parser.add_argument("--output", type=Path, default=None,
                        help="output path (default: BENCH_<n>.json at the "
                             "repo root)")
    args = parser.parse_args(argv)

    payload = build_payload(args.bench_id, lanes=args.lanes,
                            workloads=args.workloads, jobs=args.repro_jobs)
    output = args.output or REPO_ROOT / f"BENCH_{args.bench_id}.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    fast, ref = payload["suite"], payload["reference"]
    print(f"reference: {ref['wall_clock_s']:.2f}s "
          f"({ref['events_per_sec']:,} events/s)")
    print(f"fast:      {fast['wall_clock_s']:.2f}s "
          f"({fast['events_per_sec']:,} events/s)")
    print(f"speedup:   {payload['speedup_vs_reference']:.2f}x")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
