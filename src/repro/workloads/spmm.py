"""SpMM: sparse matrix x dense matrix.

Like SpMV but the shared operand is the whole dense matrix ``B`` — a much
larger shared region, so the multicast mechanism's traffic savings dominate
(every task would otherwise fetch all of B).
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
_NNZ_BYTES = 8


class SpmmWorkload(Workload):
    """C = A @ B with CSR A (power-law rows) and dense B."""

    name = "spmm"

    def __init__(self, num_rows: int = 128, num_cols: int = 128,
                 width: int = 16, rows_per_task: int = 4,
                 alpha: float = 1.3, max_nnz: int = 48,
                 seed: int = 0) -> None:
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.width = width
        self.rows_per_task = rows_per_task
        self.alpha = alpha
        self.max_nnz = max_nnz
        self.seed = seed

    @first_use
    def matrix(self) -> CsrMatrix:
        return power_law_csr(self.num_rows, self.num_cols, alpha=self.alpha,
                             max_nnz=self.max_nnz, seed=self.seed)

    @first_use
    def b(self) -> np.ndarray:
        flat = random_int_array(self.num_cols * self.width, -4, 4,
                                seed=("spmm-b", self.seed))
        return flat.reshape(self.num_cols, self.width)

    def _block_nnz(self, start: int) -> int:
        end = min(start + self.rows_per_task, self.num_rows)
        return int(self.matrix.row_ptr[end] - self.matrix.row_ptr[start])

    def build_program(self) -> Program:
        matrix, b, width = self.matrix, self.b, self.width
        rows_per_task = self.rows_per_task
        state = {"c": np.zeros((self.num_rows, width), dtype=np.int64)}

        def kernel(ctx: TaskContext, args: dict) -> None:
            start = args["start"]
            end = min(start + rows_per_task, matrix.num_rows)
            c = ctx.state["c"]
            for row in range(start, end):
                cols, vals = matrix.row_slice(row)
                if len(cols):
                    c[row] = vals @ b[cols]

        b_bytes = self.num_cols * width * _ELEM

        task_type = TaskType(
            name="spmm_block",
            dfg=dot_product_dfg("spmm"),
            kernel=kernel,
            # Each nonzero touches `width` output elements.
            trips=lambda args: max(1, args["nnz"] * width),
            reads=lambda args: (
                ReadSpec(nbytes=b_bytes, region="B", shared=True),
                ReadSpec(nbytes=args["nnz"] * _NNZ_BYTES),
            ),
            writes=lambda args: (
                WriteSpec(nbytes=args["rows"] * width * _ELEM),),
            work_hint=WorkHint(lambda args: args["nnz"] * width),
        )
        initial = []
        for start in range(0, self.num_rows, rows_per_task):
            rows = min(rows_per_task, self.num_rows - start)
            initial.append(task_type.instantiate(
                {"start": start, "nnz": self._block_nnz(start),
                 "rows": rows}))
        return Program("spmm", state, initial)

    def reference(self) -> np.ndarray:
        return self.matrix.to_dense() @ self.b

    def check(self, state: dict) -> None:
        require(np.array_equal(state["c"], self.expected), "spmm mismatch")

    def describe(self) -> dict:
        blocks = [self._block_nnz(s) * self.width
                  for s in range(0, self.num_rows, self.rows_per_task)]
        return {
            "name": self.name,
            "tasks": len(blocks),
            "mean_work": float(np.mean(blocks)),
            "cv_work": float(np.std(blocks) / max(np.mean(blocks), 1)),
            "mechanisms": "lb + multicast(B)",
        }
