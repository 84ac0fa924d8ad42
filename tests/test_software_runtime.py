"""Tests for the software-task-runtime baseline (repro.core.software)."""

import pytest

from repro.arch.config import default_delta_config
from repro.core.software import (
    SOFTWARE_DISPATCH_CYCLES,
    SOFTWARE_TASK_OVERHEAD,
    SoftwareRuntime,
    software_runtime_config,
)
from repro.core.delta import Delta
from repro.workloads.synthetic import SkewedTasks, SharedReadTasks, UniformTasks


def test_config_derivation():
    base = default_delta_config(lanes=4)
    cfg = software_runtime_config(base)
    assert cfg.lanes == base.lanes
    assert cfg.dram == base.dram
    assert cfg.dispatch.policy == "steal"
    assert cfg.dispatch.dispatch_cycles == SOFTWARE_DISPATCH_CYCLES
    assert cfg.lane.task_overhead_cycles == SOFTWARE_TASK_OVERHEAD
    assert not cfg.features.pipelining
    assert not cfg.features.multicast


def test_runs_and_verifies():
    w = UniformTasks(num_tasks=16, trips=128)
    result = SoftwareRuntime(default_delta_config(lanes=4)).run(
        w.build_program())
    w.check(result.state)
    assert result.machine == "software"
    assert result.tasks_executed == 16


def test_pays_per_task_overhead():
    w = UniformTasks(num_tasks=16, trips=128)
    sw = SoftwareRuntime(default_delta_config(lanes=4)).run(
        w.build_program())
    assert sw.counters.get("runtime.task_overhead_cycles") == \
        16 * SOFTWARE_TASK_OVERHEAD


def test_slower_than_delta():
    w = UniformTasks(num_tasks=24, trips=128)
    delta = Delta(default_delta_config(lanes=4)).run(w.build_program())
    sw = SoftwareRuntime(default_delta_config(lanes=4)).run(
        w.build_program())
    assert sw.cycles > delta.cycles


def test_no_multicast_traffic_savings():
    w = SharedReadTasks(num_tasks=16)
    delta = Delta(default_delta_config(lanes=4)).run(w.build_program())
    sw = SoftwareRuntime(default_delta_config(lanes=4)).run(
        w.build_program())
    assert sw.dram_bytes > delta.dram_bytes
    assert sw.counters.get("mcast.fetches") == 0


def test_dynamic_balance_still_works():
    """Stealing keeps imbalance moderate despite no work hints."""
    w = SkewedTasks(num_tasks=48)
    sw = SoftwareRuntime(default_delta_config(lanes=4)).run(
        w.build_program())
    w.check(sw.state)
    assert sw.counters.get("dispatch.completed") == 48


def test_delta_config_unaffected_by_default():
    """The default Delta lane pays no software task overhead."""
    base = default_delta_config(lanes=2)
    assert base.lane.task_overhead_cycles == 0
    w = UniformTasks(num_tasks=4)
    result = Delta(base).run(w.build_program())
    assert result.counters.get("runtime.task_overhead_cycles") == 0
