"""BFS: level-synchronous breadth-first search on a power-law graph.

Structure exercised: **dynamic task creation** (each level's coordinator
spawns chunk tasks once the frontier is known), **work-aware load
balancing** (chunk work = sum of member degrees, wildly skewed on
power-law graphs), and **pipelined level hand-off** (the next coordinator
streams from the chunk tasks rather than waiting on a global barrier plus
a memory round trip).
"""

from __future__ import annotations

from repro.arch.dfg import edge_expand_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import Graph, power_law_graph

_ELEM = 4


class BfsWorkload(Workload):
    """Single-source BFS computing hop distances."""

    name = "bfs"

    def __init__(self, num_vertices: int = 512, alpha: float = 1.5,
                 max_deg: int = 48, chunk_vertices: int = 16,
                 source: int = 0, seed: int = 0) -> None:
        self.num_vertices = num_vertices
        self.alpha = alpha
        self.max_deg = max_deg
        self.chunk_vertices = chunk_vertices
        self.source = source
        self.seed = seed

    @first_use
    def graph(self) -> Graph:
        return power_law_graph(self.num_vertices, alpha=self.alpha,
                               max_deg=self.max_deg, seed=self.seed)

    def build_program(self) -> Program:
        graph = self.graph
        chunk_size = self.chunk_vertices
        source = self.source
        state = {
            "dist": {source: 0},
            "next_frontier": set(),
            "levels": 0,
        }

        def expand_kernel(ctx: TaskContext, args: dict) -> None:
            level = args["level"]
            for vertex in args["chunk"]:
                for neighbor in graph.adjacency[vertex]:
                    if neighbor not in ctx.state["dist"]:
                        ctx.state["dist"][neighbor] = level + 1
                        ctx.state["next_frontier"].add(neighbor)

        expand_type = TaskType(
            name="bfs_expand",
            dfg=edge_expand_dfg(),
            kernel=expand_kernel,
            trips=lambda args: max(1, args["edges"]),
            reads=lambda args: (
                # Chunk's adjacency lists: random-ish gathers.
                ReadSpec(nbytes=max(1, args["edges"]) * _ELEM,
                         locality=0.3),
            ),
            writes=lambda args: (
                WriteSpec(nbytes=max(1, args["edges"]) * _ELEM,
                          locality=0.3),),
            work_hint=WorkHint(lambda args: max(1, args["edges"])),
        )

        def level_kernel(ctx: TaskContext, args: dict) -> None:
            level = args["level"]
            if level == 0:
                frontier = [source]
            else:
                frontier = sorted(ctx.state["next_frontier"])
                ctx.state["next_frontier"] = set()
            if not frontier:
                return
            ctx.state["levels"] = max(ctx.state["levels"], level + 1)
            chunks = [frontier[i:i + chunk_size]
                      for i in range(0, len(frontier), chunk_size)]
            expand_tasks = []
            for chunk in chunks:
                edges = sum(graph.degree(v) for v in chunk)
                expand_tasks.append(ctx.spawn(
                    expand_type,
                    {"level": level, "chunk": chunk, "edges": edges}))
            # The next level's coordinator streams the freshly produced
            # frontier out of the expand tasks (pipelined hand-off).
            ctx.spawn(level_type, {"level": level + 1},
                      stream_from=expand_tasks)

        level_type = TaskType(
            name="bfs_level",
            dfg=edge_expand_dfg(),
            kernel=level_kernel,
            trips=lambda args: 1,
            writes=lambda args: (),
        )

        initial = [level_type.instantiate({"level": 0})]
        return Program("bfs", state, initial)

    def reference(self) -> dict[int, int]:
        from collections import deque

        dist = {self.source: 0}
        queue = deque([self.source])
        while queue:
            vertex = queue.popleft()
            for neighbor in self.graph.adjacency[vertex]:
                if neighbor not in dist:
                    dist[neighbor] = dist[vertex] + 1
                    queue.append(neighbor)
        return dist

    def check(self, state: dict) -> None:
        expected = self.expected
        require(state["dist"] == expected,
                f"bfs distances mismatch ({len(state['dist'])} vs "
                f"{len(expected)} reached)")

    def describe(self) -> dict:
        degrees = [self.graph.degree(v)
                   for v in range(self.graph.num_vertices)]
        mean_deg = sum(degrees) / len(degrees)
        return {
            "name": self.name,
            "tasks": "dynamic (per level)",
            "mean_work": mean_deg * self.chunk_vertices,
            "cv_work": (max(degrees) / mean_deg),
            "mechanisms": "lb + pipelined levels + spawning",
        }
