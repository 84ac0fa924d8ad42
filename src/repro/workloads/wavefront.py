"""Wavefront: Smith-Waterman-style tiled dynamic programming.

Structure exercised: **pipelined wavefront dependences**. Tile (i, j)
depends on tiles (i-1, j) and (i, j-1); with TaskStream the dependences are
streams (a tile starts as its neighbours' boundary rows arrive), so the
whole anti-diagonal frontier stays busy. The static design erects a barrier
per anti-diagonal — the canonical pipeline-vs-barrier comparison.
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import smith_waterman_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import Task, TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import random_int_array

_ELEM = 4
_MATCH = 3
_MISMATCH = -1
_GAP = -2


class WavefrontWorkload(Workload):
    """Local-alignment score matrix over two integer sequences."""

    name = "wavefront"

    def __init__(self, tiles: int = 8, tile_size: int = 32,
                 seed: int = 0) -> None:
        self.tiles = tiles
        self.tile_size = tile_size
        self.n = tiles * tile_size
        self.seed = seed

    @first_use
    def seq_a(self) -> np.ndarray:
        return random_int_array(self.n, 0, 3, seed=("wave-a", self.seed))

    @first_use
    def seq_b(self) -> np.ndarray:
        return random_int_array(self.n, 0, 3, seed=("wave-b", self.seed))

    def _fill_tile(self, score: np.ndarray, ti: int, tj: int) -> None:
        b = self.tile_size
        for i in range(ti * b, (ti + 1) * b):
            for j in range(tj * b, (tj + 1) * b):
                match = _MATCH if self.seq_a[i] == self.seq_b[j] else _MISMATCH
                diag = score[i, j] + match
                up = score[i + 1, j] + _GAP
                left = score[i, j + 1] + _GAP
                score[i + 1, j + 1] = max(0, diag, up, left)

    def build_program(self) -> Program:
        tiles = self.tiles
        b = self.tile_size
        fill = self._fill_tile
        # score has a zero halo row/column at index 0.
        state = {"score": np.zeros((self.n + 1, self.n + 1), dtype=np.int64)}

        def tile_kernel(ctx: TaskContext, args: dict) -> None:
            fill(ctx.state["score"], args["i"], args["j"])

        tile_type = TaskType(
            name="sw_tile",
            dfg=smith_waterman_dfg(),
            kernel=tile_kernel,
            trips=lambda args: b * b,
            reads=lambda args: (ReadSpec(nbytes=2 * b * _ELEM),),
            # Boundary row + column flow to the right/down neighbours.
            writes=lambda args: (WriteSpec(nbytes=2 * b * _ELEM),),
            work_hint=WorkHint(lambda args: b * b),
        )

        def root_kernel(ctx: TaskContext, args: dict) -> None:
            grid: dict[tuple[int, int], Task] = {}
            for i in range(tiles):
                for j in range(tiles):
                    producers = []
                    if i > 0:
                        producers.append(grid[(i - 1, j)])
                    if j > 0:
                        producers.append(grid[(i, j - 1)])
                    grid[(i, j)] = ctx.spawn(
                        tile_type, {"i": i, "j": j},
                        stream_from=producers)

        root_type = TaskType(
            name="sw_root", dfg=smith_waterman_dfg("swroot"),
            kernel=root_kernel, trips=lambda args: 1)
        initial = [root_type.instantiate()]
        return Program("wavefront", state, initial)

    def reference(self) -> np.ndarray:
        score = np.zeros((self.n + 1, self.n + 1), dtype=np.int64)
        for ti in range(self.tiles):
            for tj in range(self.tiles):
                self._fill_tile(score, ti, tj)
        return score

    def check(self, state: dict) -> None:
        require(np.array_equal(state["score"], self.expected),
                "wavefront score matrix mismatch")

    def describe(self) -> dict:
        return {
            "name": self.name,
            "tasks": self.tiles * self.tiles,
            "mean_work": self.tile_size ** 2,
            "cv_work": 0.0,
            "mechanisms": "pipelined wavefront dependences",
        }
