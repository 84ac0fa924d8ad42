"""Histogram: privatized partial histograms plus a combining tree.

Structure exercised: **reduction structure**. Chunk tasks build private
histograms; combine tasks fold pairs of partials, wired as a binary tree
with ``stream_from`` edges — on Delta the combining tree pipelines behind
the chunk scans, on the static design it is one barrier per tree level.
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import histogram_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import Task, TaskContext, TaskType
from repro.util.rng import DeterministicRng
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import random_int_array

_ELEM = 4


class HistogramWorkload(Workload):
    """Histogram of ``n`` integers into ``bins`` buckets."""

    name = "histogram"

    def __init__(self, n: int = 16384, bins: int = 64, chunks: int = 32,
                 skew: float = 1.0, seed: int = 0) -> None:
        if chunks & (chunks - 1):
            raise ValueError("chunks must be a power of two")
        self.n = n
        self.bins = bins
        self.chunks = chunks
        self.skew = skew
        self.seed = seed

    @first_use
    def data(self) -> np.ndarray:
        return random_int_array(self.n, 0, self.bins - 1,
                                seed=("hist", self.seed))

    @first_use
    def bounds(self) -> list[int]:
        # Chunk boundaries are uneven (the input arrives pre-partitioned by
        # key range or source, not in equal slices), so per-task work is
        # skewed and balancing matters.
        n = self.n
        rng = DeterministicRng("hist-bounds", n, self.chunks, self.skew,
                               self.seed)
        raw = rng.zipf_sizes(self.chunks, alpha=self.skew, max_size=8)
        scale = n / sum(raw)
        bounds = [0]
        for r in raw[:-1]:
            bounds.append(min(n, bounds[-1] + max(16, int(r * scale))))
        bounds.append(n)
        return bounds

    def build_program(self) -> Program:
        data, bins, chunks = self.data, self.bins, self.chunks
        bounds = self.bounds
        state = {
            "partials": {},
            "result": None,
        }

        def scan_kernel(ctx: TaskContext, args: dict) -> None:
            index = args["index"]
            lo, hi = bounds[index], bounds[index + 1]
            ctx.state["partials"][("scan", index)] = np.bincount(
                data[lo:hi], minlength=bins).astype(np.int64)

        scan_type = TaskType(
            name="hist_scan",
            dfg=histogram_dfg(),
            kernel=scan_kernel,
            trips=lambda args: max(1, args["points"]),
            reads=lambda args: (
                ReadSpec(nbytes=max(1, args["points"]) * _ELEM),),
            writes=lambda args: (WriteSpec(nbytes=bins * _ELEM),),
            work_hint=WorkHint(lambda args: max(1, args["points"])),
        )

        def combine_kernel(ctx: TaskContext, args: dict) -> None:
            partials = ctx.state["partials"]
            left = partials.pop(tuple(args["left"]))
            right = partials.pop(tuple(args["right"]))
            merged = left + right
            key = tuple(args["key"])
            partials[key] = merged
            if args["is_root"]:
                ctx.state["result"] = merged

        combine_type = TaskType(
            name="hist_combine",
            dfg=histogram_dfg("histcombine"),
            kernel=combine_kernel,
            trips=lambda args: bins,
            writes=lambda args: (WriteSpec(nbytes=bins * _ELEM),),
            work_hint=WorkHint(lambda args: bins),
        )

        def root_kernel(ctx: TaskContext, args: dict) -> None:
            level: list[tuple[tuple, Task]] = []
            for i in range(chunks):
                points = bounds[i + 1] - bounds[i]
                level.append((("scan", i),
                              ctx.spawn(scan_type,
                                        {"index": i, "points": points})))
            depth = 0
            while len(level) > 1:
                nxt = []
                for i in range(0, len(level), 2):
                    (lkey, ltask), (rkey, rtask) = level[i], level[i + 1]
                    key = ("combine", depth, i // 2)
                    is_root = len(level) == 2
                    task = ctx.spawn(
                        combine_type,
                        {"left": list(lkey), "right": list(rkey),
                         "key": list(key), "is_root": is_root},
                        stream_from=[ltask, rtask])
                    nxt.append((key, task))
                level = nxt
                depth += 1

        root_type = TaskType(
            name="hist_root", dfg=histogram_dfg("histroot"),
            kernel=root_kernel, trips=lambda args: 1)
        initial = [root_type.instantiate()]
        return Program("histogram", state, initial)

    def reference(self) -> np.ndarray:
        return np.bincount(self.data, minlength=self.bins).astype(np.int64)

    def check(self, state: dict) -> None:
        require(state["result"] is not None, "histogram never combined")
        require(np.array_equal(state["result"], self.expected),
                "histogram mismatch")

    def describe(self) -> dict:
        sizes = [self.bounds[i + 1] - self.bounds[i]
                 for i in range(self.chunks)]
        mean = sum(sizes) / len(sizes)
        var = sum((s - mean) ** 2 for s in sizes) / len(sizes)
        return {
            "name": self.name,
            "tasks": 2 * self.chunks - 1,
            "mean_work": mean,
            "cv_work": (var ** 0.5) / mean,
            "mechanisms": "reduction tree via pipelined streams + lb",
        }
