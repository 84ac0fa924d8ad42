"""Stencil-AMR: a 5-point stencil over irregularly refined tiles.

Structure exercised: **heterogeneous task sizes**. Adaptive mesh refinement
produces tiles whose areas span orders of magnitude; a task-count balancer
assigns equal tile *counts* per lane and loses badly to work-aware
balancing on the area skew.
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import stencil5_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import random_int_array, zipf_tile_sizes

_ELEM = 4


def _stencil(tile: np.ndarray, sweeps: int = 1) -> np.ndarray:
    """Jacobi-style 5-point sweeps with zero halo, integer arithmetic.

    Several sweeps per tile (the usual relaxation loop) raise the
    compute-per-byte ratio: the tile streams in once and is iterated
    on-chip.
    """
    out = tile
    for _ in range(sweeps):
        padded = np.pad(out, 1)
        center = padded[1:-1, 1:-1]
        neighbours = (padded[:-2, 1:-1] + padded[2:, 1:-1]
                      + padded[1:-1, :-2] + padded[1:-1, 2:])
        out = 4 * center + neighbours
    return out


class StencilAmrWorkload(Workload):
    """Apply one stencil sweep to every refined tile."""

    name = "stencil-amr"

    def __init__(self, num_tiles: int = 40, min_side: int = 8,
                 max_side: int = 64, alpha: float = 1.1,
                 sweeps: int = 4, seed: int = 0) -> None:
        self.num_tiles = num_tiles
        self.min_side = min_side
        self.max_side = max_side
        self.alpha = alpha
        self.sweeps = sweeps
        self.seed = seed

    @first_use
    def sides(self) -> list[int]:
        # Zipf over sides: most tiles are near ``min_side``, a few reach
        # ``max_side`` — and work scales with side^2, so the area skew is
        # severe (the AMR shape that breaks count-based balancing).
        return zipf_tile_sizes(self.num_tiles, self.alpha, self.min_side,
                               self.max_side, seed=self.seed)

    @first_use
    def tiles(self) -> list[np.ndarray]:
        tiles = []
        for index, side in enumerate(self.sides):
            flat = random_int_array(side * side, -8, 8,
                                    seed=("amr", self.seed, index))
            tiles.append(flat.reshape(side, side))
        return tiles

    def build_program(self) -> Program:
        tiles = self.tiles
        state = {"out": [None] * self.num_tiles}

        sweeps = self.sweeps

        def kernel(ctx: TaskContext, args: dict) -> None:
            index = args["index"]
            ctx.state["out"][index] = _stencil(tiles[index], sweeps)

        task_type = TaskType(
            name="amr_tile",
            dfg=stencil5_dfg(),
            kernel=kernel,
            trips=lambda args: sweeps * args["side"] ** 2,
            reads=lambda args: (
                ReadSpec(nbytes=args["side"] ** 2 * _ELEM),),
            writes=lambda args: (
                WriteSpec(nbytes=args["side"] ** 2 * _ELEM),),
            work_hint=WorkHint(lambda args: sweeps * args["side"] ** 2),
        )
        initial = [task_type.instantiate({"index": i, "side": side})
                   for i, side in enumerate(self.sides)]
        return Program("stencil-amr", state, initial)

    def reference(self) -> list[np.ndarray]:
        return [_stencil(t, self.sweeps) for t in self.tiles]

    def check(self, state: dict) -> None:
        expected = self.expected
        for index, (got, want) in enumerate(zip(state["out"], expected)):
            require(got is not None, f"tile {index} never computed")
            require(np.array_equal(got, want), f"tile {index} mismatch")

    def describe(self) -> dict:
        areas = [s * s for s in self.sides]
        mean = sum(areas) / len(areas)
        var = sum((a - mean) ** 2 for a in areas) / len(areas)
        return {
            "name": self.name,
            "tasks": self.num_tiles,
            "mean_work": mean,
            "cv_work": (var ** 0.5) / mean,
            "mechanisms": "lb over heterogeneous tiles",
        }
