"""Tiled Cholesky factorization: a classic task DAG with real dependences.

Structure exercised: **inter-task dependences** (the potrf/trsm/update DAG),
**pipelined trsm→update streams**, and **work-aware balancing** (the
trailing-matrix update count shrinks every step, so per-phase work is very
uneven — the shape static partitioning handles worst).
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import cholesky_update_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import Task, TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import spd_matrix

_ELEM = 4


class CholeskyWorkload(Workload):
    """Left-looking tiled Cholesky of an SPD matrix."""

    name = "cholesky"

    def __init__(self, tiles: int = 6, tile_size: int = 16,
                 seed: int = 0) -> None:
        self.tiles = tiles
        self.tile_size = tile_size
        self.n = tiles * tile_size
        self.seed = seed

    @first_use
    def matrix(self) -> np.ndarray:
        return spd_matrix(self.n, seed=self.seed)

    def _tile(self, state: dict, i: int, j: int) -> np.ndarray:
        b = self.tile_size
        return state["a"][i * b:(i + 1) * b, j * b:(j + 1) * b]

    def build_program(self) -> Program:
        b = self.tile_size
        tiles = self.tiles
        tile_of = self._tile
        state = {"a": self.matrix.copy()}
        tile_bytes = b * b * _ELEM

        def potrf_kernel(ctx: TaskContext, args: dict) -> None:
            k = args["k"]
            block = tile_of(ctx.state, k, k)
            block[:] = np.linalg.cholesky(block)

        def trsm_kernel(ctx: TaskContext, args: dict) -> None:
            i, k = args["i"], args["k"]
            lkk = tile_of(ctx.state, k, k)
            aik = tile_of(ctx.state, i, k)
            aik[:] = np.linalg.solve(lkk, aik.T).T

        def update_kernel(ctx: TaskContext, args: dict) -> None:
            i, j, k = args["i"], args["j"], args["k"]
            aij = tile_of(ctx.state, i, j)
            aij -= tile_of(ctx.state, i, k) @ tile_of(ctx.state, j, k).T

        potrf_type = TaskType(
            name="potrf", dfg=cholesky_update_dfg("potrf"),
            kernel=potrf_kernel,
            trips=lambda args: b * b * b // 3,
            reads=lambda args: (ReadSpec(nbytes=tile_bytes),),
            writes=lambda args: (WriteSpec(nbytes=tile_bytes),),
            work_hint=WorkHint(lambda args: b * b * b / 3),
        )
        trsm_type = TaskType(
            name="trsm", dfg=cholesky_update_dfg("trsm"),
            kernel=trsm_kernel,
            trips=lambda args: b * b * b // 2,
            reads=lambda args: (ReadSpec(nbytes=tile_bytes),),
            writes=lambda args: (WriteSpec(nbytes=tile_bytes),),
            work_hint=WorkHint(lambda args: b * b * b / 2),
        )
        update_type = TaskType(
            name="tile_update", dfg=cholesky_update_dfg("update"),
            kernel=update_kernel,
            trips=lambda args: b * b * b,
            reads=lambda args: (ReadSpec(nbytes=tile_bytes),),
            writes=lambda args: (WriteSpec(nbytes=tile_bytes),),
            work_hint=WorkHint(lambda args: b * b * b),
        )

        def root_kernel(ctx: TaskContext, args: dict) -> None:
            # last_writer[(i, j)] tracks WAW/RAW ordering per tile.
            last: dict[tuple[int, int], Task] = {}
            for k in range(tiles):
                deps = [last[(k, k)]] if (k, k) in last else []
                potrf = ctx.spawn(potrf_type, {"k": k}, after=deps)
                last[(k, k)] = potrf
                trsms: dict[int, Task] = {}
                for i in range(k + 1, tiles):
                    deps = [t for t in (last.get((i, k)),) if t is not None]
                    trsm = ctx.spawn(trsm_type, {"i": i, "k": k},
                                     after=deps, stream_from=[potrf])
                    trsms[i] = trsm
                    last[(i, k)] = trsm
                for i in range(k + 1, tiles):
                    for j in range(k + 1, i + 1):
                        deps = [t for t in (last.get((i, j)),)
                                if t is not None]
                        producers = [trsms[i]]
                        if j != i:
                            producers.append(trsms[j])
                        update = ctx.spawn(
                            update_type, {"i": i, "j": j, "k": k},
                            after=deps, stream_from=producers)
                        last[(i, j)] = update

        root_type = TaskType(
            name="cholesky_root", dfg=cholesky_update_dfg("root"),
            kernel=root_kernel, trips=lambda args: 1)
        initial = [root_type.instantiate()]
        return Program("cholesky", state, initial)

    def reference(self) -> np.ndarray:
        return np.linalg.cholesky(self.matrix)

    def check(self, state: dict) -> None:
        computed = np.tril(state["a"])
        require(np.allclose(computed, self.expected, atol=1e-8),
                "cholesky factor mismatch")

    def describe(self) -> dict:
        t = self.tiles
        tasks = t + t * (t - 1) // 2 + sum(
            (t - k - 1) * (t - k) // 2 for k in range(t))
        return {
            "name": self.name,
            "tasks": tasks,
            "mean_work": self.tile_size ** 3,
            "cv_work": 0.4,
            "mechanisms": "task DAG + pipelined trsm->update + lb",
        }
