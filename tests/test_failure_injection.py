"""Failure-injection tests: the simulator must fail loudly and precisely.

A modeling bug that silently corrupts results is worse than a crash, so
these tests check that injected faults (broken kernels, impossible
configurations, oversized regions, stalls) surface as the *right* error
with diagnostic content — not as wrong numbers.
"""

import pytest

from repro.arch.config import (
    FabricConfig,
    LaneConfig,
    MachineConfig,
    default_baseline_config,
    default_delta_config,
)
from repro.arch.mapper import MappingError
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta, ExecutionStalled
from repro.core.dispatcher import Dispatcher
from repro.core.program import Program
from repro.core.task import TaskType
from repro.core.annotations import ReadSpec, WriteSpec
from repro.arch.dfg import cholesky_update_dfg, dot_product_dfg
from repro.sim.sanitize import ModelInvariantError
from repro.workloads.synthetic import SharedReadTasks, UniformTasks


def make_program(kernel, trips=64, reads=None, name="inj"):
    tt = TaskType(
        name=name, dfg=dot_product_dfg(name), kernel=kernel,
        trips=lambda args: trips,
        reads=reads or (lambda args: (ReadSpec(nbytes=trips * 4),)),
        writes=lambda args: (WriteSpec(nbytes=4),),
    )
    return Program(name, {}, [tt.instantiate({"i": i}) for i in range(4)])


class TestKernelFaults:
    def test_kernel_exception_propagates_from_delta(self):
        def bad_kernel(ctx, args):
            raise ZeroDivisionError("injected kernel fault")

        with pytest.raises(ZeroDivisionError, match="injected"):
            Delta(default_delta_config(lanes=2)).run(
                make_program(bad_kernel))

    def test_kernel_exception_propagates_from_static(self):
        def bad_kernel(ctx, args):
            raise ValueError("injected static fault")

        with pytest.raises(ValueError, match="injected static"):
            StaticParallel(default_baseline_config(lanes=2)).run(
                make_program(bad_kernel))

    def test_cost_model_exception_propagates(self):
        tt = TaskType(
            name="badcost", dfg=dot_product_dfg("badcost"),
            kernel=lambda ctx, args: None,
            trips=lambda args: args["missing_key"],  # KeyError at runtime
        )
        program = Program("badcost", {}, [tt.instantiate()])
        with pytest.raises(KeyError):
            Delta(default_delta_config(lanes=1)).run(program)


class TestStructuralFaults:
    def test_unmappable_dfg_raises_mapping_error(self):
        # Cholesky kernel needs MUL cells; a MUL-free fabric cannot host it.
        config = MachineConfig(
            lanes=2,
            lane=LaneConfig(fabric=FabricConfig(rows=3, cols=3,
                                                mul_ratio=0.0)))
        tt = TaskType(
            name="needs_mul", dfg=cholesky_update_dfg("needsmul"),
            kernel=lambda ctx, args: None, trips=lambda args: 8)
        program = Program("nm", {}, [tt.instantiate()])
        with pytest.raises(MappingError):
            Delta(config).run(program)

    def test_stall_diagnostics_name_outstanding_and_queues(self):
        with pytest.raises(ExecutionStalled) as excinfo:
            Delta(default_delta_config(lanes=2)).run(
                UniformTasks(num_tasks=8).build_program(), max_cycles=5)
        message = str(excinfo.value)
        assert "tasks outstanding" in message
        assert "queues" in message
        assert "cycle" in message

    def test_static_stall_uses_same_exception(self):
        with pytest.raises(ExecutionStalled):
            StaticParallel(default_baseline_config(lanes=1)).run(
                UniformTasks(num_tasks=8).build_program(), max_cycles=5)


class TestCapacityFaults:
    def test_oversized_shared_region_streams_through(self):
        """A shared region larger than the scratchpad must not crash —
        it is fetched (mcast.too_large) but never becomes resident."""
        config = default_delta_config(lanes=2)
        import dataclasses

        config = dataclasses.replace(
            config, lane=dataclasses.replace(config.lane,
                                             spad_bytes=4096))
        w = SharedReadTasks(num_tasks=6, region_bytes=64 * 1024, trips=64)
        result = Delta(config).run(w.build_program())
        w.check(result.state)
        assert result.counters.get("mcast.too_large") > 0

    def test_prefetch_survives_tiny_scratchpad(self):
        import dataclasses

        from repro.arch.config import FeatureFlags

        config = default_delta_config(
            lanes=2, features=FeatureFlags(prefetch=True))
        config = dataclasses.replace(
            config, lane=dataclasses.replace(config.lane, spad_bytes=512))
        w = UniformTasks(num_tasks=12, trips=512)  # reads 2 KiB > spad
        result = Delta(config).run(w.build_program())
        w.check(result.state)  # prefetch skipped, correctness intact


class TestProgramFaults:
    def test_empty_program_rejected_at_construction(self):
        with pytest.raises(ValueError, match="no initial tasks"):
            Program("empty", {}, [])

    def test_negative_read_rejected_at_resolution(self):
        tt = TaskType(
            name="neg", dfg=dot_product_dfg("neg"),
            kernel=lambda ctx, args: None,
            trips=lambda args: 4,
            reads=lambda args: (ReadSpec(nbytes=-1),))
        program = Program("neg", {}, [tt.instantiate()])
        with pytest.raises(ValueError, match="nbytes"):
            Delta(default_delta_config(lanes=1)).run(program)


class TestSanitizerCatches:
    """Each injected fault class surfaces as a *named* model invariant —
    the sanitizer turns silent corruption into a precise diagnostic."""

    def test_broken_kernel_duplicate_spawn_is_task_conservation(self):
        """A kernel that hands the runtime the same child twice would
        silently execute it twice; the sanitizer names the offender."""
        child_type = TaskType(
            name="child", dfg=dot_product_dfg("child"),
            kernel=lambda ctx, args: None, trips=lambda args: 8)

        def buggy_kernel(ctx, args):
            child = ctx.spawn(child_type, {"i": 0})
            ctx.spawned.append(child)  # the injected model bug

        parent_type = TaskType(
            name="parent", dfg=dot_product_dfg("parent"),
            kernel=buggy_kernel, trips=lambda args: 8)
        program = Program("dupspawn", {}, [parent_type.instantiate()])
        with pytest.raises(ModelInvariantError) as excinfo:
            Delta(default_delta_config(lanes=2).with_sanitize(True)
                  ).run(program)
        err = excinfo.value
        assert err.invariant == "task-conservation"
        assert "more than once" in str(err)
        assert err.task is not None and "child" in err.task

    def test_dangling_dependence_is_dependence_legality(self, monkeypatch):
        """A dispatcher that drops its readiness waits lets a consumer
        start mid-producer; the violation names both tasks."""

        def eager_submit(self, task):
            self._outstanding += 1
            self.counters.add("dispatch.submitted")
            self.sanitizer.task_submitted(task, self.env.now)
            self._make_ready(task)  # bug: dependences ignored

        monkeypatch.setattr(Dispatcher, "submit", eager_submit)
        slow_type = TaskType(
            name="producer", dfg=dot_product_dfg("producer"),
            kernel=lambda ctx, args: None, trips=lambda args: 4096)
        producer = slow_type.instantiate()
        fast_type = TaskType(
            name="consumer", dfg=dot_product_dfg("consumer"),
            kernel=lambda ctx, args: None, trips=lambda args: 8)
        consumer = fast_type.instantiate(after=[producer])
        program = Program("dangling", {}, [producer, consumer])
        with pytest.raises(ModelInvariantError) as excinfo:
            Delta(default_delta_config(lanes=2).with_sanitize(True)
                  ).run(program)
        err = excinfo.value
        assert err.invariant == "dependence-legality"
        assert "producer" in str(err) and "consumer" in str(err)

    def test_oversized_region_runs_clean_under_sanitizer(self):
        """The too-large streaming path is legal behaviour, not a model
        bug — the sanitizer must not flag it (no false positives)."""
        import dataclasses

        config = default_delta_config(lanes=2).with_sanitize(True)
        config = dataclasses.replace(
            config, lane=dataclasses.replace(config.lane,
                                             spad_bytes=4096))
        w = SharedReadTasks(num_tasks=6, region_bytes=64 * 1024, trips=64)
        result = Delta(config).run(w.build_program())
        w.check(result.state)
        assert result.counters.get("mcast.too_large") > 0

    def test_stall_diagnostics_include_sanitizer_report(self):
        """A stalled sanitized run names how far each task got — the
        conservation snapshot rides on the ExecutionStalled message."""
        with pytest.raises(ExecutionStalled) as excinfo:
            Delta(default_delta_config(lanes=2).with_sanitize(True)).run(
                UniformTasks(num_tasks=8).build_program(), max_cycles=5)
        message = str(excinfo.value)
        assert "sanitizer:" in message
        assert "submitted" in message and "completed" in message
        assert "unfinished" in message


class TestRecovery:
    """Injected hardware faults (repro.sim.faults) recover or fail loudly.

    The deep recovery matrix lives in tests/test_faults.py; here we pin
    the failure-injection angle — an exhausted retry budget must surface
    as a diagnostic UnrecoverableFault naming fault, task, lane and cycle,
    never as wrong numbers or a hang.
    """

    def test_retry_exhaustion_names_fault_task_lane_cycle(self):
        from repro.sim.faults import (
            FaultPlan,
            RetryPolicy,
            UnrecoverableFault,
        )

        plan = FaultPlan(task_fault_rate=1.0,
                         retry=RetryPolicy(max_attempts=2,
                                           backoff_cycles=8.0))
        config = default_delta_config(lanes=2).with_faults(plan)
        with pytest.raises(UnrecoverableFault) as excinfo:
            Delta(config).run(make_program(lambda ctx, args: None))
        err = excinfo.value
        assert err.fault == "transient-task-fault"
        assert err.task == "inj[0]" or err.task.startswith("inj")
        assert err.lane in (0, 1)
        assert err.cycle is not None and err.cycle >= 0
        message = str(err)
        assert "[transient-task-fault]" in message
        assert "task=" in message
        assert "lane=" in message
        assert "cycle=" in message

    def test_stall_diagnostics_include_lane_and_queue_snapshot(self):
        """Every ExecutionStalled carries per-lane occupancy and the
        dispatcher queue state, sanitizer or not."""
        with pytest.raises(ExecutionStalled) as excinfo:
            Delta(default_delta_config(lanes=2)).run(
                UniformTasks(num_tasks=8).build_program(), max_cycles=5)
        message = str(excinfo.value)
        assert "lane0: busy=" in message
        assert "lane1: busy=" in message
        assert "tasks retired" in message
        assert "dispatcher:" in message
        assert "pending" in message

    def test_static_stall_diagnostics_include_lane_snapshot(self):
        with pytest.raises(ExecutionStalled) as excinfo:
            StaticParallel(default_baseline_config(lanes=2)).run(
                UniformTasks(num_tasks=8).build_program(), max_cycles=5)
        message = str(excinfo.value)
        assert "lane0: busy=" in message
        assert "tasks retired" in message
