"""k-nearest-neighbours: shared query set against database chunks.

Structure exercised: **read sharing** — every chunk task scores the same
query block (annotated shared → multicast) — plus a combining task that
merges per-chunk candidate lists. Chunk sizes are deliberately uneven so
load balancing matters too.
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import distance_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import random_int_array
from repro.util.rng import DeterministicRng

_ELEM = 4


class KnnWorkload(Workload):
    """Exact kNN by full scan, chunked across tasks."""

    name = "knn"

    def __init__(self, num_points: int = 2048, num_queries: int = 16,
                 dim: int = 8, k: int = 4, chunks: int = 24,
                 seed: int = 0) -> None:
        self.num_points = num_points
        self.num_queries = num_queries
        self.dim = dim
        self.k = k
        self.chunks = chunks
        self.seed = seed

    @first_use
    def db(self) -> np.ndarray:
        flat = random_int_array(self.num_points * self.dim, -16, 16,
                                seed=("knn-db", self.seed))
        return flat.reshape(self.num_points, self.dim)

    @first_use
    def queries(self) -> np.ndarray:
        qflat = random_int_array(self.num_queries * self.dim, -16, 16,
                                 seed=("knn-q", self.seed))
        return qflat.reshape(self.num_queries, self.dim)

    @first_use
    def bounds(self) -> list[int]:
        # Uneven chunk boundaries: Zipf-ish sizes summing to num_points.
        num_points = self.num_points
        rng = DeterministicRng("knn-chunks", num_points, self.chunks,
                               self.seed)
        raw = rng.zipf_sizes(self.chunks, alpha=0.9, max_size=8)
        scale = num_points / sum(raw)
        bounds = [0]
        for r in raw[:-1]:
            bounds.append(min(num_points, bounds[-1] + max(8, int(r * scale))))
        bounds.append(num_points)
        return bounds

    def build_program(self) -> Program:
        db, queries, k = self.db, self.queries, self.k
        bounds = self.bounds
        state = {"candidates": {}, "result": None}
        query_bytes = queries.size * _ELEM

        def scan_kernel(ctx: TaskContext, args: dict) -> None:
            index = args["index"]
            lo, hi = bounds[index], bounds[index + 1]
            block = db[lo:hi]
            # Squared L2 distances, all queries vs this block.
            diff = queries[:, None, :] - block[None, :, :]
            dists = (diff * diff).sum(axis=2)
            top = np.argsort(dists, axis=1, kind="stable")[:, :k]
            ctx.state["candidates"][index] = [
                [(int(dists[q, j]), int(lo + j)) for j in top[q]]
                for q in range(len(queries))
            ]

        scan_type = TaskType(
            name="knn_scan",
            dfg=distance_dfg(),
            kernel=scan_kernel,
            trips=lambda args: max(1, args["points"] * queries.shape[1]),
            reads=lambda args: (
                ReadSpec(nbytes=query_bytes, region="queries", shared=True),
                ReadSpec(nbytes=args["points"] * queries.shape[1] * _ELEM),
            ),
            writes=lambda args: (
                WriteSpec(nbytes=len(queries) * k * 2 * _ELEM),),
            work_hint=WorkHint(
                lambda args: args["points"] * queries.shape[1]),
        )

        def merge_kernel(ctx: TaskContext, args: dict) -> None:
            merged = []
            for q in range(len(queries)):
                pool = []
                for cand in ctx.state["candidates"].values():
                    pool.extend(cand[q])
                pool.sort()
                merged.append([idx for _dist, idx in pool[:k]])
            ctx.state["result"] = merged

        merge_type = TaskType(
            name="knn_merge",
            dfg=distance_dfg("knnmerge"),
            kernel=merge_kernel,
            trips=lambda args: len(bounds) * k * len(queries) // 4 + 1,
            writes=lambda args: (
                WriteSpec(nbytes=len(queries) * k * _ELEM),),
        )

        def root_kernel(ctx: TaskContext, args: dict) -> None:
            scans = []
            for i in range(len(bounds) - 1):
                scans.append(ctx.spawn(
                    scan_type,
                    {"index": i, "points": bounds[i + 1] - bounds[i]}))
            ctx.spawn(merge_type, {}, stream_from=scans)

        root_type = TaskType(
            name="knn_root", dfg=distance_dfg("knnroot"),
            kernel=root_kernel, trips=lambda args: 1)
        initial = [root_type.instantiate()]
        return Program("knn", state, initial)

    def reference(self) -> list[list[int]]:
        diff = self.queries[:, None, :] - self.db[None, :, :]
        dists = (diff * diff).sum(axis=2)
        # A stable sort keeps equal distances in index order.
        order = np.argsort(dists, axis=1, kind="stable")
        return order[:, :self.k].tolist()

    def check(self, state: dict) -> None:
        require(state["result"] is not None, "knn never merged")
        require(state["result"] == self.expected, "knn result mismatch")

    def describe(self) -> dict:
        sizes = [self.bounds[i + 1] - self.bounds[i]
                 for i in range(len(self.bounds) - 1)]
        mean = sum(sizes) / len(sizes)
        var = sum((s - mean) ** 2 for s in sizes) / len(sizes)
        return {
            "name": self.name,
            "tasks": len(sizes) + 1,
            "mean_work": mean * self.num_queries,
            "cv_work": (var ** 0.5) / mean,
            "mechanisms": "multicast(queries) + lb + merge stream",
        }
