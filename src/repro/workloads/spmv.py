"""SpMV: sparse matrix-vector multiply with skewed row lengths.

Structure exercised: **work-aware load balancing** (per-task work is the
block's nnz, which a WorkHint exposes) and **read sharing** (every task
reads the dense vector ``x``, annotated as a shared region → multicast).

One task processes a block of consecutive rows; blocks have highly unequal
nnz because row lengths are Zipf-distributed.
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import dot_product_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import CsrMatrix, power_law_csr, random_int_array

_ELEM = 4
_NNZ_BYTES = 8  # column index + value per nonzero


class SpmvWorkload(Workload):
    """y = A @ x over a power-law CSR matrix."""

    name = "spmv"

    def __init__(self, num_rows: int = 256, num_cols: int = 512,
                 rows_per_task: int = 8, alpha: float = 1.3,
                 max_nnz: int = 96, seed: int = 0) -> None:
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.rows_per_task = rows_per_task
        self.alpha = alpha
        self.max_nnz = max_nnz
        self.seed = seed

    @first_use
    def matrix(self) -> CsrMatrix:
        return power_law_csr(self.num_rows, self.num_cols, alpha=self.alpha,
                             max_nnz=self.max_nnz, seed=self.seed)

    @first_use
    def x(self) -> np.ndarray:
        return random_int_array(self.num_cols, -8, 8,
                                seed=("spmv-x", self.seed))

    def _block_nnz(self, start: int) -> int:
        end = min(start + self.rows_per_task, self.num_rows)
        return int(self.matrix.row_ptr[end] - self.matrix.row_ptr[start])

    def build_program(self) -> Program:
        matrix, x = self.matrix, self.x
        rows_per_task = self.rows_per_task
        state = {"y": np.zeros(self.num_rows, dtype=np.int64)}

        def kernel(ctx: TaskContext, args: dict) -> None:
            start = args["start"]
            end = min(start + rows_per_task, matrix.num_rows)
            y = ctx.state["y"]
            for row in range(start, end):
                cols, vals = matrix.row_slice(row)
                y[row] = int(np.dot(vals, x[cols]))

        x_bytes = self.num_cols * _ELEM

        task_type = TaskType(
            name="spmv_block",
            dfg=dot_product_dfg("spmv"),
            kernel=kernel,
            trips=lambda args: max(1, args["nnz"]),
            reads=lambda args: (
                ReadSpec(nbytes=x_bytes, region="x", shared=True),
                ReadSpec(nbytes=args["nnz"] * _NNZ_BYTES, locality=1.0),
            ),
            writes=lambda args: (WriteSpec(nbytes=args["rows"] * _ELEM),),
            work_hint=WorkHint(lambda args: args["nnz"]),
        )
        initial = []
        for start in range(0, self.num_rows, rows_per_task):
            rows = min(rows_per_task, self.num_rows - start)
            initial.append(task_type.instantiate(
                {"start": start, "nnz": self._block_nnz(start),
                 "rows": rows}))
        return Program("spmv", state, initial)

    def reference(self) -> np.ndarray:
        return self.matrix.to_dense() @ self.x

    def check(self, state: dict) -> None:
        expected = self.expected
        require(np.array_equal(state["y"], expected),
                f"spmv mismatch: {np.sum(state['y'] != expected)} rows wrong")

    def describe(self) -> dict:
        blocks = [self._block_nnz(s)
                  for s in range(0, self.num_rows, self.rows_per_task)]
        return {
            "name": self.name,
            "tasks": len(blocks),
            "mean_work": float(np.mean(blocks)),
            "cv_work": float(np.std(blocks) / max(np.mean(blocks), 1)),
            "mechanisms": "lb + multicast(x)",
        }
