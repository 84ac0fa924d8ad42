"""Pinned hot-path microharness: profile the DES core, gate its speed.

Two roles:

1. **Profiler** (standalone): run the pinned workload subset under
   ``cProfile`` and print the top frames, so successive PRs attack the
   same, comparable profile::

       PYTHONPATH=src python benchmarks/bench_hotpath.py --profile
       PYTHONPATH=src python benchmarks/bench_hotpath.py --engine reference --profile

2. **Perf-regression gate** (pytest, the CI ``bench`` job): re-measure
   the pinned subset and compare events/sec against the newest committed
   ``BENCH_*.json``; fail on a >20% drop, skip when no baseline exists::

       PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py

The pin: the same workloads, lane count, and ``MachineConfig`` builder as
tier-1 and the trajectory recorder (tools/bench_trajectory.py) —
tests/test_bench_harness.py enforces the config identity. ``--repro-jobs``
/ ``REPRO_JOBS`` are honoured exactly as in :mod:`repro.eval.parallel`
(exported by benchmarks/conftest.py, resolved by ``resolve_jobs``).
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_trajectory  # noqa: E402  (tools/, path set up above)

#: The pinned subset is defined next to the trajectory recorder so the
#: gate re-measures exactly the mix the committed file recorded.
PINNED_WORKLOADS = bench_trajectory.PINNED_WORKLOADS
PINNED_LANES = bench_trajectory.PINNED_LANES

#: Best-of-N timing for the regression gate (events are deterministic,
#: wall-clock is not; best-of damps scheduler noise).
MEASURE_ROUNDS = 3


def measure_pinned(engine_choice: str = "fast") -> dict:
    """Best-of-N serial measurement of the pinned subset."""
    return bench_trajectory.measure_matrix(
        engine_choice, lanes=PINNED_LANES, workloads=PINNED_WORKLOADS,
        rounds=MEASURE_ROUNDS)


# ------------------------------------------------------ pytest gate

def test_hotpath_events_per_sec_no_regression():
    """The CI perf gate: fast-engine throughput vs the committed point.

    Throughput is compared on the pinned subset's events/sec against the
    ``pinned`` section of the newest committed ``BENCH_*.json`` — the
    same workload mix, so the comparison is like-for-like. Best-of-3
    timing and a 20% tolerance damp CI runner noise; the per-workload
    throughputs are checked under the same tolerance.
    """
    baseline_path = bench_trajectory.latest_baseline()
    if baseline_path is None:
        pytest.skip("no committed BENCH_*.json baseline yet")
    baseline = json.loads(baseline_path.read_text())
    baseline_pinned = baseline.get("pinned")
    if baseline_pinned is None:
        pytest.skip(f"{baseline_path.name} predates the pinned section")

    current = measure_pinned("fast")
    report = [f"baseline: {baseline_path.name} "
              f"({baseline_pinned['events_per_sec']:,} events/s pinned)",
              f"pinned subset now: {current['events_per_sec']:,} events/s "
              f"({current['wall_clock_s']:.2f}s, {current['events']:,} "
              "events)"]
    # Printed, not saved under results/: host wall-clock is no result of
    # the code, and a tracked file rewritten by every run dirties the tree.
    print("\n" + "\n".join(report))

    problems = bench_trajectory.perf_regressions(
        {"suite": current}, {"suite": baseline_pinned},
        tolerance=bench_trajectory.DEFAULT_TOLERANCE)
    assert not problems, (
        "hot-path throughput regressed vs "
        f"{baseline_path.name}:\n  " + "\n  ".join(problems))


def test_fast_engine_beats_reference_on_pinned_subset():
    """The fast kernel must actually be faster than its oracle."""
    fast = measure_pinned("fast")
    reference = measure_pinned("reference")
    assert fast["wall_clock_s"] < reference["wall_clock_s"], (
        f"fast engine ({fast['wall_clock_s']:.2f}s) not faster than "
        f"reference ({reference['wall_clock_s']:.2f}s)")


# ------------------------------------------------------ standalone profiler

def profile_pinned(engine_choice: str, top: int) -> str:
    """cProfile the pinned subset, return the top-frame table."""
    profiler = cProfile.Profile()
    with bench_trajectory.engine(engine_choice):
        profiler.enable()
        for name in PINNED_WORKLOADS:
            bench_trajectory.measure_point(name, PINNED_LANES)
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=("fast", "reference"),
                        default="fast")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top frames")
    parser.add_argument("--top", type=int, default=25,
                        help="frames to print with --profile")
    parser.add_argument("--repro-jobs", type=int, default=None, metavar="N",
                        help="worker processes for the suite timing pass "
                             "(default: $REPRO_JOBS, else serial; same "
                             "resolution as eval/parallel.py)")
    args = parser.parse_args(argv)

    if args.profile:
        print(profile_pinned(args.engine, args.top))
        return 0

    from repro.eval.parallel import resolve_jobs

    matrix = measure_pinned(args.engine)
    print(f"pinned subset [{args.engine}]: "
          f"{matrix['wall_clock_s']:.2f}s, {matrix['events']:,} events, "
          f"{matrix['events_per_sec']:,} events/s")
    for name, point in matrix["workloads"].items():
        print(f"  {name:<14} {point['sim_s']:>7.3f}s "
              f"{point['events_per_sec']:>12,} events/s")
    jobs = resolve_jobs(args.repro_jobs)
    if jobs > 1:
        from repro.eval.runner import run_suite

        with bench_trajectory.engine(args.engine):
            t0 = time.perf_counter()
            run_suite(lanes=PINNED_LANES, jobs=jobs, verify=False)
            wall = time.perf_counter() - t0
        print(f"full suite with --repro-jobs {jobs}: {wall:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
