"""Cross-module integration tests: whole-pipeline behaviours.

Each test exercises several subsystems together (machines + eval +
trace + energy + report sections) on fast micro workloads, checking the
invariants that individual unit tests cannot see.
"""

import dataclasses

import pytest

from repro.arch.config import (
    DramConfig,
    FeatureFlags,
    default_baseline_config,
    default_delta_config,
)
from repro.arch.energy import estimate_energy
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.core.program import expand_program
from repro.core.software import SoftwareRuntime
from repro.eval.runner import compare
from repro.workloads.synthetic import (
    ChainTasks,
    SharedReadTasks,
    SkewedTasks,
    SpawnTree,
    UniformTasks,
)


class TestCrossMachineConsistency:
    """The three machines must agree on everything functional."""

    @pytest.mark.parametrize("workload_factory", [
        lambda: UniformTasks(num_tasks=12),
        lambda: SkewedTasks(num_tasks=24),
        lambda: SharedReadTasks(num_tasks=12),
        lambda: ChainTasks(depth=4, trips=256),
        lambda: SpawnTree(depth=3),
    ], ids=["uniform", "skewed", "shared", "chain", "tree"])
    def test_same_task_count_everywhere(self, workload_factory):
        w = workload_factory()
        expected = expand_program(w.build_program()).task_count
        delta = Delta(default_delta_config(lanes=4)).run(w.build_program())
        static = StaticParallel(default_baseline_config(lanes=4)).run(
            w.build_program())
        software = SoftwareRuntime(default_delta_config(lanes=4)).run(
            w.build_program())
        assert delta.tasks_executed == expected
        assert static.tasks_executed == expected
        assert software.tasks_executed == expected
        for result in (delta, static, software):
            w.check(result.state)

    def test_busy_cycles_identical_across_machines(self):
        """Same tasks, same fabric: total busy cycles must match exactly
        (scheduling moves work around, never changes its amount)."""
        w = SkewedTasks(num_tasks=24)
        delta = Delta(default_delta_config(lanes=4)).run(w.build_program())
        static = StaticParallel(default_baseline_config(lanes=4)).run(
            w.build_program())
        assert sum(delta.lane_busy) == pytest.approx(sum(static.lane_busy))

    def test_counter_conservation_dispatch(self):
        w = SpawnTree(depth=3)
        result = Delta(default_delta_config(lanes=4)).run(w.build_program())
        c = result.counters
        assert c.get("dispatch.submitted") == c.get("dispatch.completed")
        assert c.get("dispatch.dispatched") == c.get("dispatch.completed")


class TestTraceEnergyConsistency:
    def test_trace_busy_matches_tracker(self):
        """Trace task spans must cover at least the tracked busy time
        (spans include stalls, tracker only fabric-active cycles)."""
        w = UniformTasks(num_tasks=8)
        result = Delta(default_delta_config(lanes=2)).run(
            w.build_program(), trace=True)
        for lane_id, busy in enumerate(result.lane_busy):
            span_time = result.trace.busy_time(f"lane{lane_id}")
            assert span_time >= busy * 0.99

    def test_trace_task_count_matches_result(self):
        w = SpawnTree(depth=3)
        result = Delta(default_delta_config(lanes=2)).run(
            w.build_program(), trace=True)
        assert len(result.trace.by_kind("task")) == result.tasks_executed

    def test_energy_consistent_with_traffic_ordering(self):
        """Less DRAM traffic (multicast on) must mean less DRAM energy."""
        w = SharedReadTasks(num_tasks=16)
        on = Delta(default_delta_config(lanes=4)).run(w.build_program())
        off_flags = FeatureFlags(multicast=False)
        off = Delta(default_delta_config(lanes=4,
                                         features=off_flags)).run(
            w.build_program())
        assert estimate_energy(on).dram < estimate_energy(off).dram


class TestBandwidthSensitivity:
    def test_tighter_dram_never_speeds_up(self):
        w = SkewedTasks(num_tasks=24)
        cycles = []
        for bpc in (32.0, 8.0, 2.0):
            cfg = dataclasses.replace(default_delta_config(lanes=4),
                                      dram=DramConfig(bytes_per_cycle=bpc))
            cycles.append(Delta(cfg).run(w.build_program()).cycles)
        assert cycles == sorted(cycles), \
            "cycles must not decrease as bandwidth shrinks"

    def test_multicast_benefit_grows_with_tight_bandwidth(self):
        w = SharedReadTasks(num_tasks=24, region_bytes=8192)
        ratios = []
        for bpc in (64.0, 8.0):
            base = dataclasses.replace(default_delta_config(lanes=4),
                                       dram=DramConfig(bytes_per_cycle=bpc))
            on = Delta(base).run(w.build_program()).cycles
            off = Delta(base.with_features(
                FeatureFlags(multicast=False))).run(
                w.build_program()).cycles
            ratios.append(off / on)
        assert ratios[1] > ratios[0]


class TestEvalPipeline:
    def test_compare_verifies_both_machines(self):
        comparison = compare(SkewedTasks(num_tasks=16),
                             default_delta_config(lanes=2))
        assert comparison.speedup > 0
        assert comparison.delta.tasks_executed == \
            comparison.static.tasks_executed

    def test_compare_catches_broken_workload(self):
        class Broken(SkewedTasks):
            def check(self, state):
                raise AssertionError("always wrong")

        with pytest.raises(AssertionError, match="always wrong"):
            compare(Broken(num_tasks=8), default_delta_config(lanes=2))


class TestScalingSanity:
    @pytest.mark.parametrize("factory", [
        lambda: SkewedTasks(num_tasks=32),
        lambda: SharedReadTasks(num_tasks=16),
    ], ids=["skewed", "shared"])
    def test_more_lanes_never_slower_delta(self, factory):
        w = factory()
        c2 = Delta(default_delta_config(lanes=2)).run(
            w.build_program()).cycles
        c8 = Delta(default_delta_config(lanes=8)).run(
            w.build_program()).cycles
        assert c8 <= c2

    def test_one_lane_delta_close_to_serial_busy(self):
        w = UniformTasks(num_tasks=8, trips=512)
        result = Delta(default_delta_config(lanes=1)).run(
            w.build_program())
        # One lane: makespan >= total busy (no parallelism to hide it).
        assert result.cycles >= sum(result.lane_busy)
