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
        """Fill tile (ti, tj) of ``score`` from its halo row and column.

        The tile and its halo cross into Python ints once (one ``tolist``)
        and go back as one slice assignment: indexing NumPy scalars cell
        by cell costs several times the recurrence itself.
        """
        b = self.tile_size
        r0, c0 = ti * b, tj * b
        block = score[r0:r0 + b + 1, c0:c0 + b + 1].tolist()
        col_syms = self.seq_b[c0:c0 + b].tolist()
        above = block[0]
        for row, sym in zip(block[1:], self.seq_a[r0:r0 + b].tolist()):
            left = row[0]
            for j, other in enumerate(col_syms):
                best = above[j] + (_MATCH if sym == other else _MISMATCH)
                up = above[j + 1] + _GAP
                left += _GAP
                if up > best:
                    best = up
                if left > best:
                    best = left
                left = row[j + 1] = best if best > 0 else 0
            above = row
        score[r0 + 1:r0 + b + 1, c0 + 1:c0 + b + 1] = [
            row[1:] for row in block[1:]]

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
        """The whole score matrix, one row at a time, untiled.

        Within a row, ``H[j] = max(E[j], H[j-1] + GAP)`` where ``E``
        (``moves``) is the best of the zero floor and the diagonal and
        vertical moves. Unrolled, that is the max-plus prefix
        ``H[j] = cummax(E[k] - GAP*k) + GAP*j`` over ``k <= j``
        (``E[0] = 0`` is the halo), so each row is a few whole-array
        operations.
        """
        n = self.n
        score = np.zeros((n + 1, n + 1), dtype=np.int64)
        ramp = _GAP * np.arange(n + 1, dtype=np.int64)
        subst = np.where(self.seq_a[:, None] == self.seq_b[None, :],
                         _MATCH, _MISMATCH)
        moves = np.zeros(n + 1, dtype=np.int64)
        for i in range(1, n + 1):
            prev = score[i - 1]
            np.maximum(prev[:-1] + subst[i - 1], prev[1:] + _GAP,
                       out=moves[1:])
            np.maximum(moves, 0, out=moves)
            score[i] = np.maximum.accumulate(moves - ramp) + ramp
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
