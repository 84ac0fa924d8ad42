"""Unit tests for tasks, contexts, programs, and static expansion."""

import pytest

from repro.arch.dfg import dot_product_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program, partition_block
from repro.core.task import Task, TaskContext, TaskType, run_kernel
from repro.graph import recover_structure


def simple_type(name="simple", trips=64, work_hint=None, kernel=None):
    return TaskType(
        name=name,
        dfg=dot_product_dfg(name),
        kernel=kernel or (lambda ctx, args: None),
        trips=lambda args: trips,
        reads=lambda args: (ReadSpec(nbytes=trips * 4),),
        writes=lambda args: (WriteSpec(nbytes=8),),
        work_hint=work_hint,
    )


class TestTaskType:
    def test_instantiate_copies_args(self):
        tt = simple_type()
        args = {"x": 1}
        task = tt.instantiate(args)
        args["x"] = 2
        assert task.args["x"] == 1

    def test_work_falls_back_to_trips(self):
        tt = simple_type(trips=100)
        assert tt.instantiate().work == 100.0

    def test_work_hint_overrides_trips(self):
        tt = simple_type(trips=100,
                         work_hint=WorkHint(lambda args: 5.0))
        assert tt.instantiate().work == 5.0


class TestTask:
    def test_unique_ids(self):
        tt = simple_type()
        a, b = tt.instantiate(), tt.instantiate()
        assert a.task_id != b.task_id

    def test_name_includes_type(self):
        task = simple_type("mytype").instantiate()
        assert task.name.startswith("mytype#")

    def test_resolved_cost_model(self):
        task = simple_type(trips=32).instantiate()
        assert task.trips == 32
        assert task.reads[0].nbytes == 128
        assert task.write_bytes == 8

    def test_stream_from_registers_consumer(self):
        tt = simple_type()
        producer = tt.instantiate()
        consumer = tt.instantiate(stream_from=[producer])
        assert consumer in producer.stream_consumers
        assert consumer.stream_from == [producer]

    def test_stream_in_bytes_sums_producer_writes(self):
        tt = simple_type()
        p1, p2 = tt.instantiate(), tt.instantiate()
        consumer = tt.instantiate(stream_from=[p1, p2])
        assert consumer.stream_in_bytes == p1.write_bytes + p2.write_bytes

    def test_initial_flags(self):
        task = simple_type().instantiate()
        assert not task.started and not task.completed
        assert task.lane_id is None
        assert task.depth == 0


class TestTaskContext:
    def test_spawn_records_child(self):
        tt = simple_type()
        parent = tt.instantiate()
        ctx = TaskContext({}, parent)
        child = ctx.spawn(tt, {"k": 1})
        assert ctx.spawned == [child]
        assert child.args == {"k": 1}

    def test_spawn_depth_increments(self):
        tt = simple_type()
        parent = tt.instantiate()
        ctx = TaskContext({}, parent)
        child = ctx.spawn(tt)
        assert child.depth == parent.depth + 1

    def test_spawn_depth_respects_deps(self):
        tt = simple_type()
        parent = tt.instantiate()
        ctx = TaskContext({}, parent)
        a = ctx.spawn(tt)
        b = ctx.spawn(tt, after=[a])
        c = ctx.spawn(tt, stream_from=[b])
        assert b.depth == a.depth + 1
        assert c.depth == b.depth + 1

    def test_run_kernel_returns_spawns(self):
        tt = simple_type()

        def kernel(ctx, args):
            ctx.spawn(tt)
            ctx.spawn(tt)

        spawner = TaskType("spawner", dot_product_dfg("sp"), kernel,
                           trips=lambda args: 1)
        spawned = run_kernel(spawner.instantiate(), {})
        assert len(spawned) == 2


class TestProgram:
    def test_requires_initial_tasks(self):
        with pytest.raises(ValueError, match="no initial tasks"):
            Program("empty", {}, [])

    def test_collects_task_types(self):
        tt = simple_type("only")
        program = Program("p", {}, [tt.instantiate(), tt.instantiate()])
        assert [t.name for t in program.task_types] == ["only"]


class TestExpansion:
    def test_expand_runs_all_kernels(self):
        state = {"count": 0}

        def kernel(ctx, args):
            ctx.state["count"] += 1
            if args["level"] < 2:
                ctx.spawn(tt, {"level": args["level"] + 1})
                ctx.spawn(tt, {"level": args["level"] + 1})

        tt = TaskType("tree", dot_product_dfg("tree"), kernel,
                      trips=lambda args: 1)
        program = Program("p", state, [tt.instantiate({"level": 0})])
        expanded = recover_structure(program)
        assert expanded.task_count == 7
        assert state["count"] == 7

    def test_expand_phases_group_by_depth(self):
        def kernel(ctx, args):
            if args["level"] < 1:
                ctx.spawn(tt, {"level": 1})

        tt = TaskType("lvl", dot_product_dfg("lvl"), kernel,
                      trips=lambda args: 1)
        program = Program("p", {}, [tt.instantiate({"level": 0}),
                                    tt.instantiate({"level": 0})])
        expanded = recover_structure(program)
        assert len(expanded.phases) == 2
        assert len(expanded.phases[0]) == 2
        assert len(expanded.phases[1]) == 2

    def test_expand_total_work(self):
        tt = simple_type(trips=10)
        program = Program("p", {}, [tt.instantiate() for _ in range(3)])
        assert recover_structure(program).total_work == 30.0


class TestPartitions:
    def make_tasks(self, n):
        tt = simple_type()
        return [tt.instantiate({"i": i}) for i in range(n)]

    def test_block_partition_contiguous(self):
        tasks = self.make_tasks(10)
        parts = partition_block(tasks, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert parts[0] == tasks[:4]

    def test_block_partition_more_lanes_than_tasks(self):
        tasks = self.make_tasks(2)
        parts = partition_block(tasks, 4)
        assert [len(p) for p in parts] == [1, 1, 0, 0]

    @pytest.mark.parametrize("split", [partition_block])
    def test_partition_preserves_all_tasks(self, split):
        tasks = self.make_tasks(17)
        parts = split(tasks, 4)
        flat = [t for p in parts for t in p]
        assert sorted(t.task_id for t in flat) == \
            sorted(t.task_id for t in tasks)

    @pytest.mark.parametrize("split", [partition_block])
    def test_partition_rejects_zero_lanes(self, split):
        with pytest.raises(ValueError):
            split(self.make_tasks(3), 0)

    @pytest.mark.parametrize("split", [partition_block])
    def test_partition_empty_phase(self, split):
        # An empty phase still yields one (empty) bucket per lane so the
        # static schedule's per-lane iteration stays uniform.
        parts = split([], 3)
        assert parts == [[], [], []]

    @pytest.mark.parametrize("split", [partition_block])
    def test_partition_fewer_tasks_than_lanes(self, split):
        tasks = self.make_tasks(2)
        parts = split(tasks, 5)
        assert len(parts) == 5
        assert sorted(t.task_id for p in parts for t in p) == \
            sorted(t.task_id for t in tasks)
        assert all(len(p) <= 1 for p in parts)

    @pytest.mark.parametrize("split", [partition_block])
    def test_partition_single_lane_gets_everything(self, split):
        tasks = self.make_tasks(7)
        parts = split(tasks, 1)
        assert parts == [tasks]
