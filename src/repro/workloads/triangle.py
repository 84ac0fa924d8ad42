"""Triangle counting: neighbour-list intersections on a power-law graph.

Structure exercised: **work-aware load balancing** (per-vertex work is
proportional to the sum of neighbour degrees — extremely skewed) and
**read sharing** (every task intersects against the same adjacency
structure, annotated as a shared region → multicast).
"""

from __future__ import annotations

from repro.arch.dfg import compare_count_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import Graph, power_law_graph

_ELEM = 4


class TriangleWorkload(Workload):
    """Count triangles; one task per vertex chunk."""

    name = "triangle"

    def __init__(self, num_vertices: int = 256, alpha: float = 1.4,
                 max_deg: int = 32, vertices_per_task: int = 8,
                 seed: int = 0) -> None:
        self.num_vertices = num_vertices
        self.alpha = alpha
        self.max_deg = max_deg
        self.vertices_per_task = vertices_per_task
        self.seed = seed

    @first_use
    def graph(self) -> Graph:
        return power_law_graph(self.num_vertices, alpha=self.alpha,
                               max_deg=self.max_deg, seed=self.seed)

    def _chunk_work(self, start: int) -> int:
        end = min(start + self.vertices_per_task, self.num_vertices)
        work = 0
        for v in range(start, end):
            for u in self.graph.adjacency[v]:
                if u > v:
                    work += self.graph.degree(v) + self.graph.degree(u)
        return max(1, work)

    def build_program(self) -> Program:
        graph = self.graph
        per_task = self.vertices_per_task
        state = {"count": 0}
        adjacency_bytes = sum(
            len(a) + 1 for a in graph.adjacency) * _ELEM

        def kernel(ctx: TaskContext, args: dict) -> None:
            start = args["start"]
            end = min(start + per_task, graph.num_vertices)
            local = 0
            for v in range(start, end):
                nv = set(graph.adjacency[v])
                for u in graph.adjacency[v]:
                    if u > v:
                        for w in graph.adjacency[u]:
                            if w > u and w in nv:
                                local += 1
            ctx.state["count"] += local

        task_type = TaskType(
            name="tri_chunk",
            dfg=compare_count_dfg(),
            kernel=kernel,
            trips=lambda args: args["work"],
            reads=lambda args: (
                ReadSpec(nbytes=adjacency_bytes, region="adjacency",
                         shared=True, locality=0.5),
            ),
            writes=lambda args: (WriteSpec(nbytes=_ELEM),),
            work_hint=WorkHint(lambda args: args["work"]),
        )
        initial = []
        for start in range(0, self.num_vertices, per_task):
            initial.append(task_type.instantiate(
                {"start": start, "work": self._chunk_work(start)}))
        return Program("triangle", state, initial)

    def reference(self) -> int:
        count = 0
        adj = [set(a) for a in self.graph.adjacency]
        for v in range(self.num_vertices):
            for u in self.graph.adjacency[v]:
                if u > v:
                    for w in self.graph.adjacency[u]:
                        if w > u and w in adj[v]:
                            count += 1
        return count

    def check(self, state: dict) -> None:
        require(state["count"] == self.expected,
                f"triangle count mismatch: {state['count']} != "
                f"{self.expected}")

    def describe(self) -> dict:
        works = [self._chunk_work(s)
                 for s in range(0, self.num_vertices,
                                self.vertices_per_task)]
        mean = sum(works) / len(works)
        var = sum((w - mean) ** 2 for w in works) / len(works)
        return {
            "name": self.name,
            "tasks": len(works),
            "mean_work": mean,
            "cv_work": (var ** 0.5) / mean,
            "mechanisms": "lb + multicast(adjacency)",
        }
