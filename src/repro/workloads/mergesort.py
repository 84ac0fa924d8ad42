"""Mergesort: a recursive task tree with pipelined merge stages.

Structure exercised: **task trees** (the classic task-parallel shape the
paper's intro motivates) and **pipelined inter-task dependences** — every
merge consumes its two children's output *streams*, so with TaskStream the
merge tree operates as a pipeline; the static design serializes it into
one barrier per tree level with a DRAM round trip at each.

The root kernel wires the whole sort/merge tree with ``stream_from`` edges
(sizes are known up front, so the tree shape is static even though the
runtime schedule is dynamic).
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import merge_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import Task, TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import random_int_array

_ELEM = 4


class MergesortWorkload(Workload):
    """Sort an integer array with a leaf-sort + merge-tree task graph."""

    name = "mergesort"

    def __init__(self, n: int = 4096, leaf: int = 256, seed: int = 0) -> None:
        if n % leaf != 0:
            raise ValueError("n must be a multiple of leaf size")
        self.n = n
        self.leaf = leaf
        self.seed = seed

    @first_use
    def data(self) -> np.ndarray:
        return random_int_array(self.n, 0, 1 << 20, seed=("msort", self.seed))

    def build_program(self) -> Program:
        leaf_size = self.leaf
        state = {"array": self.data.copy()}

        def leaf_kernel(ctx: TaskContext, args: dict) -> None:
            lo, hi = args["lo"], args["hi"]
            arr = ctx.state["array"]
            arr[lo:hi] = np.sort(arr[lo:hi])

        leaf_type = TaskType(
            name="leaf_sort",
            dfg=merge_dfg("leafsort"),
            kernel=leaf_kernel,
            # Leaf sorting is O(n log n) compare-select work on the fabric.
            trips=lambda args: (args["hi"] - args["lo"]) * max(
                1, (args["hi"] - args["lo"]).bit_length() - 1),
            reads=lambda args: (
                ReadSpec(nbytes=(args["hi"] - args["lo"]) * _ELEM),),
            writes=lambda args: (
                WriteSpec(nbytes=(args["hi"] - args["lo"]) * _ELEM),),
            work_hint=WorkHint(lambda args: args["hi"] - args["lo"]),
        )

        def merge_kernel(ctx: TaskContext, args: dict) -> None:
            lo, mid, hi = args["lo"], args["mid"], args["hi"]
            arr = ctx.state["array"]
            merged = np.concatenate((arr[lo:mid], arr[mid:hi]))
            merged.sort(kind="mergesort")
            arr[lo:hi] = merged

        merge_type = TaskType(
            name="merge",
            dfg=merge_dfg(),
            kernel=merge_kernel,
            trips=lambda args: args["hi"] - args["lo"],
            writes=lambda args: (
                WriteSpec(nbytes=(args["hi"] - args["lo"]) * _ELEM),),
            work_hint=WorkHint(lambda args: args["hi"] - args["lo"]),
        )

        def root_kernel(ctx: TaskContext, args: dict) -> None:
            def build(lo: int, hi: int) -> Task:
                if hi - lo <= leaf_size:
                    return ctx.spawn(leaf_type, {"lo": lo, "hi": hi})
                mid = (lo + hi) // 2
                left = build(lo, mid)
                right = build(mid, hi)
                return ctx.spawn(merge_type,
                                 {"lo": lo, "mid": mid, "hi": hi},
                                 stream_from=[left, right])
            build(0, args["n"])

        root_type = TaskType(
            name="sort_root",
            dfg=merge_dfg("root"),
            kernel=root_kernel,
            trips=lambda args: 1,
        )
        initial = [root_type.instantiate({"n": self.n})]
        return Program("mergesort", state, initial)

    def reference(self) -> np.ndarray:
        return np.sort(self.data)

    def check(self, state: dict) -> None:
        require(np.array_equal(state["array"], self.expected),
                "mergesort output not sorted correctly")

    def describe(self) -> dict:
        leaves = self.n // self.leaf
        return {
            "name": self.name,
            "tasks": 2 * leaves,  # leaves + merges (+1 root)
            "mean_work": self.leaf,
            "cv_work": 1.0,  # merge sizes double per level
            "mechanisms": "spawning + pipelined merge tree",
        }
