"""Tests for the fault-injection subsystem (repro.sim.faults).

The contract under test (see docs/faults.md):

- **zero-overhead identity**: with ``faults=None`` or an *empty* plan,
  result fingerprints are bit-identical to a build without the subsystem,
  on every registered workload, on both runtimes — the hooks are purely
  additive, exactly like the sanitizer's;
- **seeded determinism**: the same (plan, config, workload) triple
  reproduces the same degraded run bit-for-bit;
- **recovery**: every fault kind has a recovery path that completes the
  run (visible in the ``recovery.*`` counters, clean under the model
  sanitizer) and an exhaustion path raising :class:`UnrecoverableFault`
  naming the fault kind, task, lane and cycle;
- **plumbing**: plans arrive via ``MachineConfig.faults`` /
  ``with_faults()`` / ``$REPRO_FAULTS`` / JSON files, and a plan that
  names a lane the machine does not have is rejected up front.
"""

import json

import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.machine.machine import Machine
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    LaneFailure,
    NullFaultInjector,
    RetryPolicy,
    UnrecoverableFault,
)
from repro.util.fingerprint import result_stats
from repro.workloads import get_workload
from repro.workloads.registry import workload_names
from repro.workloads.synthetic import SkewedTasks, UniformTasks

LANES = 4


def fault_counters(result):
    """The faults.*/recovery.* slice of a result's counter bag."""
    return {key: value for key, value in dict(result.counters.snapshot()
                                              ).items()
            if key.startswith(("faults.", "recovery."))}


# ---------------------------------------------------------------- the plan


class TestFaultPlan:
    def test_defaults_are_empty(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan(task_fault_rate=0.1).is_empty()
        assert not FaultPlan(
            lane_failures=(LaneFailure(0, 100.0),)).is_empty()

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(task_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(noc_drop_rate=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            LaneFailure(lane=-1, cycle=0.0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            lane_failures=(LaneFailure(1, 500.0), LaneFailure(3, 900.0)),
            task_fault_rate=0.05, noc_drop_rate=0.01,
            dram_spike_rate=0.02, dram_spike_cycles=300.0,
            retry=RetryPolicy(max_attempts=5, backoff_cycles=32.0),
            seed=7)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_json(json.loads(plan.dumps())) == plan

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_json({"task_fault_rate": 0.1, "typo": 1})

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan(task_fault_rate=0.1, seed=3)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            FaultPlan.load(path)

    def test_null_injector_is_disarmed(self):
        assert not NullFaultInjector().enabled
        assert not FaultInjector(FaultPlan()).enabled
        assert FaultInjector(FaultPlan(task_fault_rate=0.1)).enabled


# ----------------------------------------------------- zero-overhead identity


class TestEmptyPlanIdentity:
    """faults=None and faults=FaultPlan() are bit-identical, everywhere.

    This is the hard correctness contract: ``result_stats`` covers cycles,
    per-lane busy time and the *entire* counter bag, so any stray event,
    RNG draw or counter write on the no-fault path fails here.
    """

    @pytest.mark.parametrize("name", workload_names())
    def test_delta(self, name):
        workload = get_workload(name)
        config = default_delta_config(lanes=LANES)
        plain = Delta(config).run(workload.build_program())
        armed = Delta(config.with_faults(FaultPlan())).run(
            workload.build_program())
        assert result_stats(plain) == result_stats(armed)
        assert fault_counters(plain) == {}
        assert fault_counters(armed) == {}

    @pytest.mark.parametrize("name", workload_names())
    def test_static(self, name):
        workload = get_workload(name)
        config = default_baseline_config(lanes=LANES)
        plain = StaticParallel(config).run(workload.build_program())
        armed = StaticParallel(config.with_faults(FaultPlan())).run(
            workload.build_program())
        assert result_stats(plain) == result_stats(armed)
        assert fault_counters(armed) == {}


# -------------------------------------------------------- seeded determinism


RICH_PLAN = FaultPlan(
    lane_failures=(LaneFailure(1, 2000.0),),
    task_fault_rate=0.2, noc_drop_rate=0.02,
    dram_spike_rate=0.05, dram_spike_cycles=200.0,
    retry=RetryPolicy(max_attempts=8, backoff_cycles=32.0), seed=7)


class TestSeededDeterminism:
    @pytest.mark.parametrize("name", ["micro-skewed", "micro-shared",
                                      "spmv"])
    def test_delta_repeatable(self, name):
        workload = get_workload(name)
        config = default_delta_config(lanes=LANES).with_faults(RICH_PLAN)
        first = Delta(config).run(workload.build_program())
        second = Delta(config).run(workload.build_program())
        assert result_stats(first) == result_stats(second)
        workload.check(first.state)

    def test_static_repeatable(self):
        workload = get_workload("micro-uniform")
        config = default_baseline_config(lanes=LANES).with_faults(RICH_PLAN)
        first = StaticParallel(config).run(workload.build_program())
        second = StaticParallel(config).run(workload.build_program())
        assert result_stats(first) == result_stats(second)
        workload.check(first.state)


# ------------------------------------------------------------ recovery paths


def sanitized_delta(plan, lanes=LANES):
    return default_delta_config(lanes=lanes).with_faults(plan) \
        .with_sanitize(True)


class TestRecoveryPaths:
    """Each fault kind recovers, sanitizer-clean, with the story told in
    the recovery.* counters; results still verify functionally."""

    def test_transient_task_faults_retry(self):
        plan = FaultPlan(task_fault_rate=0.5,
                         retry=RetryPolicy(max_attempts=20,
                                           backoff_cycles=16.0), seed=2)
        workload = UniformTasks(num_tasks=32)
        result = Delta(sanitized_delta(plan)).run(workload.build_program())
        workload.check(result.state)
        counters = fault_counters(result)
        assert counters["faults.task_transient"] > 0
        assert counters["recovery.retries"] == \
            counters["faults.task_transient"]
        assert counters["recovery.recovery_cycles"] > 0

    def test_noc_drops_retransmit(self):
        plan = FaultPlan(noc_drop_rate=0.3,
                         retry=RetryPolicy(max_attempts=50), seed=3)
        workload = get_workload("micro-shared")
        result = Delta(sanitized_delta(plan)).run(workload.build_program())
        workload.check(result.state)
        counters = fault_counters(result)
        assert counters.get("recovery.noc_retransmits", 0) \
            == counters.get("faults.noc_dropped", 0)
        assert counters["faults.injected"] > 0

    def test_stream_replay(self):
        # micro-chain pipelines producer->consumer chunks; corrupting them
        # forces replay from the last acknowledged chunk.
        plan = FaultPlan(noc_drop_rate=0.2,
                         retry=RetryPolicy(max_attempts=50,
                                           backoff_cycles=8.0), seed=5)
        workload = get_workload("micro-chain")
        result = Delta(sanitized_delta(plan)).run(workload.build_program())
        workload.check(result.state)
        counters = fault_counters(result)
        assert counters["faults.stream_corrupt"] > 0
        assert counters["recovery.replayed_chunks"] == \
            counters["faults.stream_corrupt"]
        assert counters["recovery.replayed_bytes"] > 0

    def test_multicast_refetch(self):
        plan = FaultPlan(noc_drop_rate=0.25,
                         retry=RetryPolicy(max_attempts=50), seed=4)
        workload = get_workload("micro-shared")
        result = Delta(sanitized_delta(plan)).run(workload.build_program())
        workload.check(result.state)
        counters = fault_counters(result)
        assert counters["faults.mcast_dropped"] > 0
        assert counters["recovery.refetches"] > 0
        assert counters["recovery.refetch_bytes"] > 0

    def test_dram_spikes_absorbed(self):
        plan = FaultPlan(dram_spike_rate=0.5, dram_spike_cycles=100.0,
                         seed=6)
        workload = get_workload("micro-uniform")
        plain = Delta(default_delta_config(lanes=LANES)).run(
            workload.build_program())
        spiked = Delta(sanitized_delta(plan)).run(workload.build_program())
        workload.check(spiked.state)
        counters = fault_counters(spiked)
        assert counters["faults.dram_spikes"] > 0
        assert counters["recovery.absorbed_spike_cycles"] == \
            counters["faults.dram_spike_cycles"]
        assert spiked.cycles >= plain.cycles

    def test_delta_lane_failstop_redispatches(self):
        plan = FaultPlan(lane_failures=(LaneFailure(1, 500.0),))
        workload = SkewedTasks(num_tasks=48)
        result = Delta(sanitized_delta(plan)).run(workload.build_program())
        workload.check(result.state)
        counters = fault_counters(result)
        assert counters["faults.lane_failstop"] == 1
        assert counters["recovery.lanes_lost"] == 1
        # Survivors absorb the backlog: the run still retires every task.
        assert result.tasks_executed == 48

    @pytest.mark.parametrize("cycle", [503.0, 506.0])
    def test_delta_lane_failstop_inside_dispatch_delay(self, cycle):
        # micro-uniform's dispatcher picks lane 1 for a task at cycle
        # 502.75 and waits out its 4-cycle dispatch delay; the lane
        # fail-stops inside that wait. The task must go to a survivor, not
        # onto the dead lane's queue (the sanitizer rejects that dispatch).
        plan = FaultPlan(lane_failures=(LaneFailure(1, cycle),))
        workload = get_workload("micro-uniform")
        result = Delta(sanitized_delta(plan)).run(workload.build_program())
        workload.check(result.state)
        assert fault_counters(result)["recovery.lanes_lost"] == 1
        assert result.tasks_executed == workload.num_tasks

    def test_static_lane_failstop_repair_pass(self):
        plan = FaultPlan(lane_failures=(LaneFailure(1, 0.0),))
        workload = UniformTasks(num_tasks=32)
        config = default_baseline_config(lanes=LANES) \
            .with_faults(plan).with_sanitize(True)
        result = StaticParallel(config).run(workload.build_program())
        workload.check(result.state)
        counters = fault_counters(result)
        assert counters["faults.lane_failstop"] == 1
        assert counters["recovery.redispatched"] > 0


# ----------------------------------------------------------- exhaustion paths


class TestExhaustion:
    def test_transient_fault_budget_exhausts(self):
        plan = FaultPlan(task_fault_rate=1.0,
                         retry=RetryPolicy(max_attempts=2))
        workload = get_workload("micro-uniform")
        with pytest.raises(UnrecoverableFault) as excinfo:
            Delta(sanitized_delta(plan)).run(workload.build_program())
        err = excinfo.value
        assert err.fault == "transient-task-fault"
        assert err.task is not None
        assert err.lane is not None
        assert err.cycle is not None
        assert "task=" in str(err) and "lane=" in str(err)

    def test_noc_loss_budget_exhausts(self):
        plan = FaultPlan(noc_drop_rate=1.0,
                         retry=RetryPolicy(max_attempts=3))
        workload = get_workload("micro-shared")
        with pytest.raises(UnrecoverableFault) as excinfo:
            Delta(sanitized_delta(plan)).run(workload.build_program())
        assert excinfo.value.fault in ("noc-packet-loss",
                                       "stream-replay-exhausted")

    def test_dram_watchdog_trips(self):
        plan = FaultPlan(dram_spike_rate=1.0, dram_spike_cycles=5000.0,
                         dram_timeout_cycles=1000.0)
        workload = get_workload("micro-uniform")
        with pytest.raises(UnrecoverableFault) as excinfo:
            Delta(sanitized_delta(plan)).run(workload.build_program())
        assert excinfo.value.fault == "dram-timeout"

    def test_all_lanes_dead_is_unrecoverable_on_delta(self):
        plan = FaultPlan(lane_failures=tuple(
            LaneFailure(lane, 200.0) for lane in range(LANES)))
        workload = SkewedTasks(num_tasks=48)
        with pytest.raises(UnrecoverableFault) as excinfo:
            Delta(sanitized_delta(plan)).run(workload.build_program())
        assert excinfo.value.fault == "lane-fail-stop"

    def test_all_lanes_dead_is_unrecoverable_on_static(self):
        plan = FaultPlan(lane_failures=tuple(
            LaneFailure(lane, 0.0) for lane in range(LANES)))
        workload = UniformTasks(num_tasks=32)
        config = default_baseline_config(lanes=LANES).with_faults(plan)
        with pytest.raises(UnrecoverableFault) as excinfo:
            StaticParallel(config).run(workload.build_program())
        assert excinfo.value.fault == "lane-fail-stop"


# ------------------------------------------------------------------ plumbing


class TestPlumbing:
    def test_with_faults_sets_config_field(self):
        plan = FaultPlan(task_fault_rate=0.1)
        config = default_delta_config(lanes=LANES)
        assert config.faults is None
        assert config.with_faults(plan).faults == plan

    def test_machine_build_arms_injector(self):
        plan = FaultPlan(task_fault_rate=0.1)
        machine = Machine.build(
            default_delta_config(lanes=LANES).with_faults(plan))
        assert machine.injector.enabled
        assert machine.injector.plan == plan

    def test_machine_build_without_plan_uses_null_injector(self):
        machine = Machine.build(default_delta_config(lanes=LANES))
        assert not machine.injector.enabled

    def test_env_variable_arms_injector(self, tmp_path, monkeypatch):
        plan = FaultPlan(task_fault_rate=0.1, seed=9)
        path = tmp_path / "plan.json"
        plan.save(path)
        monkeypatch.setenv("REPRO_FAULTS", str(path))
        machine = Machine.build(default_delta_config(lanes=LANES))
        assert machine.injector.enabled
        assert machine.injector.plan == plan

    def test_config_plan_wins_over_env(self, tmp_path, monkeypatch):
        armed = FaultPlan(task_fault_rate=0.5, seed=1)
        path = tmp_path / "plan.json"
        armed.save(path)
        monkeypatch.setenv("REPRO_FAULTS", str(path))
        # An explicit (empty) config plan overrides the environment.
        machine = Machine.build(
            default_delta_config(lanes=LANES).with_faults(FaultPlan()))
        assert not machine.injector.enabled

    def test_plan_naming_missing_lane_rejected(self):
        plan = FaultPlan(lane_failures=(LaneFailure(9, 100.0),))
        with pytest.raises(ValueError, match="lane 9"):
            Machine.build(
                default_delta_config(lanes=LANES).with_faults(plan))

    def test_compare_inherits_faults_into_static(self):
        from repro.eval.runner import compare

        plan = FaultPlan(task_fault_rate=0.3, seed=2,
                         retry=RetryPolicy(max_attempts=10))
        workload = SkewedTasks(num_tasks=24)
        comparison = compare(
            workload, default_delta_config(lanes=LANES).with_faults(plan))
        assert fault_counters(comparison.delta)["faults.injected"] > 0
        assert fault_counters(comparison.static)["faults.injected"] > 0
