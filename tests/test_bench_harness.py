"""The bench harness measures the machine tier-1 tests — pinned.

Three contracts keep the perf numbers honest:

- **Config identity**: the microharness and the trajectory recorder build
  exactly the ``MachineConfig`` the tier-1 suite and the evaluation
  harness build (``default_delta_config``), so BENCH_*.json points
  describe the code paths the tests exercise, not a bench-only machine.
- **Jobs plumbing**: ``--repro-jobs`` / ``REPRO_JOBS`` resolve through
  :func:`repro.eval.parallel.resolve_jobs` everywhere — same default,
  same precedence, same garbage handling.
- **Trajectory schema**: the committed ``BENCH_*.json`` carries the
  fields the CI regression gate reads, and the regression logic flags
  exactly the >tolerance throughput drops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_trajectory  # noqa: E402

from repro.arch.config import default_delta_config  # noqa: E402
from repro.eval.parallel import resolve_jobs  # noqa: E402
from repro.sim import (  # noqa: E402
    Environment,
    FastEnvironment,
    total_events_processed,
)
from repro.workloads.registry import workload_names  # noqa: E402


# ------------------------------------------------------ config identity

@pytest.mark.parametrize("lanes", [2, 8])
def test_bench_config_identical_to_tier1_path(lanes):
    """The bench path and the tier-1/eval path build the same machine."""
    assert bench_trajectory.point_config(lanes) == \
        default_delta_config(lanes=lanes)


def test_pinned_subset_is_registered_and_at_tier1_lanes():
    assert bench_trajectory.PINNED_LANES == 8  # the golden-report lane count
    registered = set(workload_names())
    for name in bench_trajectory.PINNED_WORKLOADS:
        assert name in registered, f"pinned workload {name!r} not registered"


# ------------------------------------------------------ jobs plumbing

def test_repro_jobs_env_resolution(monkeypatch):
    """REPRO_JOBS resolves identically for bench and eval callers."""
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert resolve_jobs(None) == 4
    assert resolve_jobs(0) == 4
    # An explicit jobs argument always wins over the environment.
    assert resolve_jobs(2) == 2
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert resolve_jobs(None) == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs(None) == 1


def test_microharness_accepts_repro_jobs_flag():
    """Both CLI entry points expose --repro-jobs like benchmarks/conftest."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import bench_hotpath
    finally:
        sys.path.pop(0)
    for module in (bench_hotpath, bench_trajectory):
        with pytest.raises(SystemExit) as excinfo:
            module.main(["--help"])
        assert excinfo.value.code in (0, None)
    # The parser itself rejects garbage instead of silently ignoring it.
    with pytest.raises(SystemExit):
        bench_hotpath.main(["--repro-jobs", "many"])


# ------------------------------------------------------ events metric

def test_total_events_processed_counts_both_kernels():
    for env_cls in (Environment, FastEnvironment):
        env = env_cls()

        def proc():
            for _ in range(5):
                yield env.timeout(1)

        env.process(proc())
        before = total_events_processed()
        env.run()
        assert total_events_processed() > before
        assert env.events_processed > 0


# ------------------------------------------------------ trajectory file

def test_committed_trajectory_schema():
    """The committed BENCH_*.json has everything the CI gate reads."""
    path = bench_trajectory.latest_baseline()
    assert path is not None, "no BENCH_*.json committed at the repo root"
    payload = json.loads(path.read_text())
    assert payload["bench_id"] == path.stem
    for section in ("suite", "reference", "pinned"):
        block = payload[section]
        assert block["events"] > 0
        assert block["events_per_sec"] > 0
        assert block["wall_clock_s"] > 0
        for point in block["workloads"].values():
            assert point["events"] > 0 and point["sim_s"] >= 0
    # The suite sections cover the full registry; pinned covers the pin.
    assert set(payload["suite"]["workloads"]) == set(workload_names())
    assert set(payload["reference"]["workloads"]) == set(workload_names())
    assert set(payload["pinned"]["workloads"]) == \
        set(bench_trajectory.PINNED_WORKLOADS)
    assert payload["speedup_vs_reference"] > 0
    # Event counts are deterministic. Both kernels now drain the same
    # slots; the committed BENCH_6–8 predate that, when the reference
    # kernel ran generator forms of the stream and NoC operations that
    # drained more slots, so the fast count may be lower but never higher.
    assert payload["suite"]["events"] <= payload["reference"]["events"]


def test_perf_regression_logic():
    def payload(suite_eps, workload_eps):
        return {"suite": {"events_per_sec": suite_eps,
                          "workloads": {"spmm":
                                        {"events_per_sec": workload_eps}}}}

    baseline = payload(100_000, 50_000)
    # Identical → clean; small dip within tolerance → clean.
    assert bench_trajectory.perf_regressions(baseline, baseline) == []
    assert bench_trajectory.perf_regressions(
        payload(85_000, 45_000), baseline) == []
    # >20% aggregate drop → named regression.
    problems = bench_trajectory.perf_regressions(
        payload(70_000, 50_000), baseline)
    assert len(problems) == 1 and "suite" in problems[0]
    # Per-workload checking is opt-in (the CI gate uses aggregate only).
    assert bench_trajectory.perf_regressions(
        payload(100_000, 30_000), baseline) == []
    problems = bench_trajectory.perf_regressions(
        payload(100_000, 30_000), baseline, per_workload=True)
    assert len(problems) == 1 and "spmm" in problems[0]
    # A zero/absent baseline never divides by zero or fails.
    assert bench_trajectory.perf_regressions(
        payload(100_000, 50_000), payload(0, 0)) == []
