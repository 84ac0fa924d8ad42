"""PageRank: iterative rank propagation (extended-suite workload).

Each iteration spawns chunk tasks that compute new ranks from the
previous iteration's vector. Structure: the rank vector and the graph are
both shared reads (multicast, refreshed per iteration for the ranks),
per-chunk work follows the degree skew (WorkHint), and the iteration
coordinator streams from the chunk tasks (pipelined hand-off, like BFS
levels).
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import edge_expand_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import Graph, power_law_graph

_ELEM = 4
_DAMPING = 0.85


class PagerankWorkload(Workload):
    """A fixed number of damped power iterations on a power-law graph."""

    name = "pagerank"

    def __init__(self, num_vertices: int = 256, iterations: int = 4,
                 chunk_vertices: int = 16, alpha: float = 1.5,
                 max_deg: int = 32, seed: int = 0) -> None:
        self.num_vertices = num_vertices
        self.iterations = iterations
        self.chunk_vertices = chunk_vertices
        self.alpha = alpha
        self.max_deg = max_deg
        self.seed = seed

    @first_use
    def graph(self) -> Graph:
        return power_law_graph(self.num_vertices, alpha=self.alpha,
                               max_deg=self.max_deg, seed=self.seed)

    def _chunk_bounds(self) -> list[tuple[int, int]]:
        step = self.chunk_vertices
        return [(lo, min(lo + step, self.num_vertices))
                for lo in range(0, self.num_vertices, step)]

    def build_program(self) -> Program:
        graph = self.graph
        n = self.num_vertices
        iterations = self.iterations
        bounds = self._chunk_bounds()
        state = {
            "ranks": np.full(n, 1.0 / n),
            "next": np.zeros(n),
        }
        ranks_bytes = n * _ELEM
        graph_bytes = sum(len(a) + 1 for a in graph.adjacency) * _ELEM

        # Each vertex's rank is split over its degree by one float64
        # division, as a scalar division would; an isolated vertex's
        # share is never read, so its divisor is clamped to 1.
        divisors = np.array([max(1, len(nbrs)) for nbrs in graph.adjacency],
                            dtype=np.float64)

        def chunk_kernel(ctx: TaskContext, args: dict) -> None:
            lo, hi = args["lo"], args["hi"]
            share = (ctx.state["ranks"] / divisors).tolist()
            new = []
            for nbrs in graph.adjacency[lo:hi]:
                acc = 0.0
                for u in nbrs:  # left to right, not a compensated sum
                    acc += share[u]
                new.append((1 - _DAMPING) / n + _DAMPING * acc)
            ctx.state["next"][lo:hi] = new

        chunk_type = TaskType(
            name="pr_chunk",
            dfg=edge_expand_dfg("prchunk"),
            kernel=chunk_kernel,
            trips=lambda args: max(1, args["edges"]),
            reads=lambda args: (
                # The rank vector is rewritten every iteration, so each
                # iteration multicasts a *fresh* region; only the graph
                # structure stays resident across the whole run.
                ReadSpec(nbytes=ranks_bytes,
                         region=f"ranks_it{args['iteration']}",
                         shared=True),
                ReadSpec(nbytes=graph_bytes, region="graph", shared=True,
                         locality=0.4),
            ),
            writes=lambda args: (
                WriteSpec(nbytes=(args["hi"] - args["lo"]) * _ELEM),),
            work_hint=WorkHint(lambda args: max(1, args["edges"])),
        )

        def iter_kernel(ctx: TaskContext, args: dict) -> None:
            iteration = args["iteration"]
            if iteration > 0:
                # Commit the previous iteration's results.
                ctx.state["ranks"], ctx.state["next"] = \
                    ctx.state["next"], ctx.state["ranks"]
            if iteration == iterations:
                return
            chunk_tasks = []
            for lo, hi in bounds:
                edges = sum(graph.degree(v) for v in range(lo, hi))
                chunk_tasks.append(ctx.spawn(
                    chunk_type,
                    {"lo": lo, "hi": hi, "edges": edges,
                     "iteration": iteration}))
            ctx.spawn(iter_type, {"iteration": iteration + 1},
                      stream_from=chunk_tasks)

        iter_type = TaskType(
            name="pr_iter",
            dfg=edge_expand_dfg("priter"),
            kernel=iter_kernel,
            trips=lambda args: 1,
        )
        initial = [iter_type.instantiate({"iteration": 0})]
        return Program("pagerank", state, initial)

    def reference(self) -> np.ndarray:
        n = self.num_vertices
        ranks = np.full(n, 1.0 / n)
        for _ in range(self.iterations):
            out = np.zeros(n)
            for v in range(n):
                acc = 0.0
                for u in self.graph.adjacency[v]:
                    acc += ranks[u] / self.graph.degree(u)
                out[v] = (1 - _DAMPING) / n + _DAMPING * acc
            ranks = out
        return ranks

    def check(self, state: dict) -> None:
        require(np.allclose(state["ranks"], self.expected, atol=1e-12),
                "pagerank vector mismatch")

    def describe(self) -> dict:
        edges = [sum(self.graph.degree(v) for v in range(lo, hi))
                 for lo, hi in self._chunk_bounds()]
        mean = sum(edges) / len(edges)
        var = sum((e - mean) ** 2 for e in edges) / len(edges)
        return {
            "name": self.name,
            "tasks": (len(edges) + 1) * self.iterations + 1,
            "mean_work": mean,
            "cv_work": (var ** 0.5) / mean,
            "mechanisms": "multicast(ranks+graph) + lb + iter pipeline",
        }
