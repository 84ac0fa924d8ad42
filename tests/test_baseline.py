"""Tests for the static-parallel baseline (repro.baseline.static)."""

import pytest

from repro.arch.config import default_baseline_config
from repro.arch.dfg import dot_product_dfg
from repro.baseline.static import StaticParallel
from repro.core.annotations import ReadSpec, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskType


def leaf_type(name="leaf", trips=64, shared_region=None):
    def reads(args):
        specs = [ReadSpec(nbytes=trips * 4)]
        if shared_region:
            specs.append(ReadSpec(nbytes=2048, region=shared_region,
                                  shared=True))
        return tuple(specs)

    return TaskType(
        name=name, dfg=dot_product_dfg(name),
        kernel=lambda ctx, args: ctx.state.setdefault("ran", []).append(
            args.get("i")),
        trips=lambda args: trips,
        reads=reads,
        writes=lambda args: (WriteSpec(nbytes=4),),
    )


def flat_program(num_tasks=8, **type_kwargs):
    tt = leaf_type(**type_kwargs)
    return Program("p", {},
                   [tt.instantiate({"i": i}) for i in range(num_tasks)])


def two_phase_program():
    tt = leaf_type("phase2")

    def root_kernel(ctx, args):
        ctx.state.setdefault("ran", []).append("root")
        for i in range(4):
            ctx.spawn(tt, {"i": i})

    root = TaskType("root", dot_product_dfg("root"), root_kernel,
                    trips=lambda args: 1)
    return Program("two-phase", {}, [root.instantiate()])


class TestStaticExecution:
    def test_runs_all_tasks(self):
        result = StaticParallel(default_baseline_config(lanes=4)).run(
            flat_program(10))
        assert result.tasks_executed == 10
        assert sorted(result.state["ran"]) == list(range(10))
        assert result.machine == "static"

    def test_phases_add_barriers(self):
        result = StaticParallel(default_baseline_config(lanes=2)).run(
            two_phase_program())
        assert result.counters.get("static.barriers") == 2
        assert result.tasks_executed == 5

    def test_shared_reads_duplicated(self):
        result = StaticParallel(default_baseline_config(lanes=4)).run(
            flat_program(8, shared_region="tbl"))
        # Every task fetched the 2 KiB region privately.
        assert result.counters.get("static.duplicate_shared_bytes") == \
            8 * 2048
        assert result.counters.get("dram.read_bytes") >= 8 * 2048

    def test_deterministic(self):
        cfg = default_baseline_config(lanes=4)
        a = StaticParallel(cfg).run(flat_program(12))
        b = StaticParallel(cfg).run(flat_program(12))
        assert a.cycles == b.cycles

    def test_phase_is_block_split_whatever_the_policy(self):
        # Contiguous, near-equal task counts per lane; a static schedule
        # has no dispatcher, so the configured policy changes nothing.
        for policy in ("work-aware", "round-robin"):
            program = flat_program(10)
            config = default_baseline_config(lanes=3).with_policy(policy)
            StaticParallel(config).run(program)
            assert [t.lane_id for t in program.initial_tasks] == \
                [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_timeout_raises(self):
        with pytest.raises(RuntimeError, match="did not finish"):
            StaticParallel(default_baseline_config(lanes=1)).run(
                flat_program(8), max_cycles=5)

    def test_stream_deps_round_trip_through_dram(self):
        stage = TaskType(
            "stage", dot_product_dfg("st"),
            kernel=lambda ctx, args: None,
            trips=lambda args: 256,
            writes=lambda args: (WriteSpec(nbytes=1024),),
        )

        def root_kernel(ctx, args):
            a = ctx.spawn(stage)
            ctx.spawn(stage, stream_from=[a])

        root = TaskType("root", dot_product_dfg("r"), root_kernel,
                        trips=lambda args: 1)
        program = Program("rt", {}, [root.instantiate()])
        result = StaticParallel(default_baseline_config(lanes=2)).run(
            program)
        # Producer wrote 1 KiB, consumer re-read it.
        assert result.counters.get("dram.write_bytes") >= 1024
        assert result.counters.get("dram.read_bytes") >= 1024

    def test_barrier_serializes_phases(self):
        """Phase k+1 work cannot start before all phase-k lanes finish."""
        slow = TaskType(
            "slow", dot_product_dfg("slow"),
            kernel=lambda ctx, args: None,
            trips=lambda args: 4096,
        )
        fast_child = TaskType(
            "fast", dot_product_dfg("fast"),
            kernel=lambda ctx, args: None,
            trips=lambda args: 1,
        )

        def rooty(ctx, args):
            ctx.spawn(fast_child)

        root = TaskType("rootA", dot_product_dfg("ra"), rooty,
                        trips=lambda args: 1)
        slow_task = slow.instantiate()
        root_task = root.instantiate()
        program = Program("barrier", {}, [slow_task, root_task])
        result = StaticParallel(default_baseline_config(lanes=2)).run(
            program)
        # With a 4096-trip task in phase 0, total time exceeds it, since
        # the fast phase-1 child could not overlap the barrier.
        assert result.cycles > 4096
