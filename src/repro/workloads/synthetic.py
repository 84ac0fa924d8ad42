"""Synthetic microbenchmarks isolating each TaskStream mechanism.

These are the controlled-structure programs used by unit tests, the
quickstart example, and the granularity/policy sensitivity figures:

- :class:`UniformTasks` — N independent equal-sized tasks (baseline shape).
- :class:`SkewedTasks` — N independent tasks with Zipf-skewed work; the
  work-aware load balancer's best case.
- :class:`SharedReadTasks` — N tasks that all read one shared region; the
  multicast mechanism's best case.
- :class:`ChainTasks` — a linear producer→consumer stream chain; the
  pipelining mechanism's best case.
- :class:`SpawnTree` — a binary task tree spawned dynamically (exercises
  in-flight spawning and dispatch).
"""

from __future__ import annotations

from repro.arch.dfg import (
    axpy_dfg,
    compare_count_dfg,
    distance_dfg,
    dot_product_dfg,
    merge_dfg,
    smith_waterman_dfg,
    stencil5_dfg,
)
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskContext, TaskType
from repro.util.rng import DeterministicRng
from repro.workloads.base import Workload, first_use, require

_ELEM = 4  # bytes per element


class UniformTasks(Workload):
    """N independent tasks, each summing ``trips`` consecutive integers."""

    name = "uniform"

    def __init__(self, num_tasks: int = 32, trips: int = 256) -> None:
        self.num_tasks = num_tasks
        self.trips = trips

    def build_program(self) -> Program:
        state = {"sums": {}}
        trips = self.trips

        def kernel(ctx: TaskContext, args: dict) -> None:
            index = args["index"]
            ctx.state["sums"][index] = sum(range(index, index + trips))

        task_type = TaskType(
            name="uniform",
            dfg=dot_product_dfg("uniform"),
            kernel=kernel,
            trips=lambda args: trips,
            reads=lambda args: (ReadSpec(nbytes=trips * _ELEM),),
            writes=lambda args: (WriteSpec(nbytes=_ELEM),),
        )
        initial = [task_type.instantiate({"index": i})
                   for i in range(self.num_tasks)]
        return Program("uniform", state, initial)

    def reference(self) -> dict:
        return {i: sum(range(i, i + self.trips))
                for i in range(self.num_tasks)}

    def check(self, state: dict) -> None:
        require(state["sums"] == self.expected,
                f"uniform sums mismatch: got {len(state['sums'])} entries")


class SkewedTasks(Workload):
    """Independent tasks whose work follows a truncated Zipf distribution.

    The per-task work (trip count) is carried in the arguments and exposed
    through a WorkHint — the information a work-aware dispatcher uses and a
    task-count balancer throws away.
    """

    name = "skewed"

    def __init__(self, num_tasks: int = 64, alpha: float = 1.2,
                 max_trips: int = 2048, seed: int = 0) -> None:
        self.num_tasks = num_tasks
        self.alpha = alpha
        self.max_trips = max_trips
        self.seed = seed

    @first_use
    def trip_counts(self) -> list[int]:
        rng = DeterministicRng("skewed", self.num_tasks, self.alpha,
                               self.max_trips, self.seed)
        return [t * 16 for t in rng.zipf_sizes(self.num_tasks, self.alpha,
                                                self.max_trips // 16)]

    def build_program(self) -> Program:
        state = {"sums": {}}
        trip_counts = self.trip_counts

        def kernel(ctx: TaskContext, args: dict) -> None:
            index = args["index"]
            ctx.state["sums"][index] = args["trips"] * (index + 1)

        task_type = TaskType(
            name="skewed",
            dfg=dot_product_dfg("skewed"),
            kernel=kernel,
            trips=lambda args: args["trips"],
            reads=lambda args: (ReadSpec(nbytes=args["trips"] * _ELEM),),
            writes=lambda args: (WriteSpec(nbytes=_ELEM),),
            work_hint=WorkHint(lambda args: args["trips"]),
        )
        initial = [task_type.instantiate({"index": i, "trips": t})
                   for i, t in enumerate(trip_counts)]
        return Program("skewed", state, initial)

    def reference(self) -> dict:
        return {i: t * (i + 1) for i, t in enumerate(self.trip_counts)}

    def check(self, state: dict) -> None:
        require(state["sums"] == self.expected, "skewed sums mismatch")

    @property
    def total_work(self) -> int:
        """Sum of all trip counts."""
        return sum(self.trip_counts)


class SharedReadTasks(Workload):
    """Every task reads the same shared region plus a small private input."""

    name = "shared-read"

    def __init__(self, num_tasks: int = 32, region_bytes: int = 8192,
                 trips: int = 512) -> None:
        self.num_tasks = num_tasks
        self.region_bytes = region_bytes
        self.trips = trips

    def build_program(self) -> Program:
        state = {"hits": 0, "order": []}
        trips = self.trips
        region_bytes = self.region_bytes

        def kernel(ctx: TaskContext, args: dict) -> None:
            ctx.state["hits"] += 1
            ctx.state["order"].append(args["index"])

        task_type = TaskType(
            name="shared",
            dfg=dot_product_dfg("shared"),
            kernel=kernel,
            trips=lambda args: trips,
            reads=lambda args: (
                ReadSpec(nbytes=region_bytes, region="table",
                         shared=True),
                ReadSpec(nbytes=trips * _ELEM),
            ),
            writes=lambda args: (WriteSpec(nbytes=_ELEM),),
        )
        initial = [task_type.instantiate({"index": i})
                   for i in range(self.num_tasks)]
        return Program("shared-read", state, initial)

    def reference(self) -> int:
        return self.num_tasks

    def check(self, state: dict) -> None:
        require(state["hits"] == self.expected,
                f"expected {self.num_tasks} kernel runs, got {state['hits']}")


class ChainTasks(Workload):
    """A linear chain: stage k streams its output into stage k+1.

    The root spawns the whole chain with ``stream_from`` edges, so with
    pipelining every stage overlaps its neighbours; without it, each link
    becomes a DRAM round trip plus serialization.
    """

    name = "chain"

    def __init__(self, depth: int = 6, trips: int = 1024) -> None:
        if depth < 1:
            raise ValueError("chain depth must be >= 1")
        self.depth = depth
        self.trips = trips

    def build_program(self) -> Program:
        state = {"stages_run": []}
        trips = self.trips
        depth = self.depth

        stage_type = TaskType(
            name="stage",
            dfg=axpy_dfg("stage"),
            kernel=lambda ctx, args: ctx.state["stages_run"].append(
                args["stage"]),
            trips=lambda args: trips,
            writes=lambda args: (WriteSpec(nbytes=trips * _ELEM),),
        )

        def root_kernel(ctx: TaskContext, args: dict) -> None:
            ctx.state["stages_run"].append(0)
            prev = ctx.task
            for stage in range(1, depth):
                prev = ctx.spawn(stage_type, {"stage": stage},
                                 stream_from=[prev])

        root_type = TaskType(
            name="stage",
            dfg=axpy_dfg("stage"),
            kernel=root_kernel,
            trips=lambda args: trips,
            reads=lambda args: (ReadSpec(nbytes=trips * _ELEM),),
            writes=lambda args: (WriteSpec(nbytes=trips * _ELEM),),
        )
        initial = [root_type.instantiate({"stage": 0})]
        return Program("chain", state, initial)

    def reference(self) -> list:
        return list(range(self.depth))

    def check(self, state: dict) -> None:
        require(sorted(state["stages_run"]) == self.expected,
                f"chain stages mismatch: {state['stages_run']}")


class SpawnTree(Workload):
    """A binary spawn tree of the given depth (leaf count 2**depth)."""

    name = "spawn-tree"

    def __init__(self, depth: int = 4, trips: int = 128) -> None:
        self.depth = depth
        self.trips = trips

    def build_program(self) -> Program:
        state = {"visited": []}
        trips = self.trips
        max_depth = self.depth

        def kernel(ctx: TaskContext, args: dict) -> None:
            level, index = args["level"], args["index"]
            ctx.state["visited"].append((level, index))
            if level < max_depth:
                ctx.spawn(node_type, {"level": level + 1, "index": 2 * index})
                ctx.spawn(node_type,
                          {"level": level + 1, "index": 2 * index + 1})

        node_type = TaskType(
            name="node",
            dfg=dot_product_dfg("node"),
            kernel=kernel,
            trips=lambda args: trips,
            reads=lambda args: (ReadSpec(nbytes=trips * _ELEM),),
            writes=lambda args: (WriteSpec(nbytes=_ELEM),),
        )
        initial = [node_type.instantiate({"level": 0, "index": 0})]
        return Program("spawn-tree", state, initial)

    def reference(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def check(self, state: dict) -> None:
        require(len(state["visited"]) == self.expected,
                f"expected {self.expected} nodes, "
                f"got {len(state['visited'])}")


class ConfigThrash(Workload):
    """Interleaved task types with distinct fabric configurations.

    The regime for the config-affinity extension: many small tasks of
    several types, so a type-oblivious dispatcher makes every lane
    reconfigure constantly while an affinity-aware one partitions types
    across lanes. Run it with a small config cache / large config cost
    (see the F9 experiment) to expose the effect.
    """

    name = "config-thrash"

    _FACTORIES = (dot_product_dfg, merge_dfg, compare_count_dfg,
                  distance_dfg, stencil5_dfg, smith_waterman_dfg)

    def __init__(self, num_tasks: int = 64, num_types: int = 4,
                 trips: int = 64) -> None:
        if not 1 <= num_types <= len(self._FACTORIES):
            raise ValueError(f"num_types must be 1..{len(self._FACTORIES)}")
        self.num_tasks = num_tasks
        self.num_types = num_types
        self.trips = trips

    @first_use
    def _dfgs(self) -> list:
        return [self._FACTORIES[i](f"thrash{i}")
                for i in range(self.num_types)]

    def build_program(self) -> Program:
        state = {"ran": []}
        trips = self.trips

        types = [
            TaskType(
                name=f"type{i}",
                dfg=dfg,
                kernel=lambda ctx, args: ctx.state["ran"].append(
                    args["index"]),
                trips=lambda args: trips,
                reads=lambda args: (ReadSpec(nbytes=trips * _ELEM),),
                writes=lambda args: (WriteSpec(nbytes=_ELEM),),
            )
            for i, dfg in enumerate(self._dfgs)
        ]
        initial = [types[i % self.num_types].instantiate({"index": i})
                   for i in range(self.num_tasks)]
        return Program("config-thrash", state, initial)

    def reference(self) -> list:
        return list(range(self.num_tasks))

    def check(self, state: dict) -> None:
        require(sorted(state["ran"]) == self.expected,
                "config-thrash task set mismatch")
