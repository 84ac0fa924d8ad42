"""SpGEMM: sparse x sparse matrix multiply (extended-suite workload).

Row-wise Gustavson: task i computes row block i of ``C = A @ B`` by
merging the B-rows selected by A's nonzeros. Work per task is the sum of
``nnz(B[k, :])`` over A's nonzero columns k — a *product* of two skewed
distributions, the most extreme load imbalance in the suite — and every
task gathers from the same B structure (shared region → multicast).
"""

from __future__ import annotations

import numpy as np

from repro.arch.dfg import merge_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.core.program import Program
from repro.core.task import TaskContext, TaskType
from repro.workloads.base import Workload, first_use, require
from repro.workloads.inputs import CsrMatrix, power_law_csr

_ELEM = 4
_NNZ_BYTES = 8


class SpgemmWorkload(Workload):
    """C = A @ B with both operands in power-law CSR form."""

    name = "spgemm"

    def __init__(self, size: int = 96, rows_per_task: int = 4,
                 alpha: float = 1.3, max_nnz: int = 24,
                 seed: int = 0) -> None:
        self.size = size
        self.rows_per_task = rows_per_task
        self.alpha = alpha
        self.max_nnz = max_nnz
        self.seed = seed

    @first_use
    def a(self) -> CsrMatrix:
        return power_law_csr(self.size, self.size, alpha=self.alpha,
                             max_nnz=self.max_nnz, seed=("A", self.seed))

    @first_use
    def b(self) -> CsrMatrix:
        return power_law_csr(self.size, self.size, alpha=self.alpha,
                             max_nnz=self.max_nnz, seed=("B", self.seed))

    def _block_work(self, start: int) -> int:
        end = min(start + self.rows_per_task, self.size)
        work = 0
        for row in range(start, end):
            cols, _vals = self.a.row_slice(row)
            for k in cols:
                work += self.b.row_nnz(int(k))
        return max(1, work)

    def build_program(self) -> Program:
        a, b = self.a, self.b
        per_task = self.rows_per_task
        size = self.size
        state = {"c": np.zeros((size, size), dtype=np.int64)}
        b_bytes = b.nnz * _NNZ_BYTES + (size + 1) * _ELEM

        # Both operands as Python ints, crossed into once per build: the
        # products then never wrap, and a row too large for ``c`` raises
        # on assignment instead.
        a_ptr, a_cols, a_vals = (a.row_ptr.tolist(), a.col_idx.tolist(),
                                 a.values.tolist())
        b_ptr, b_cols, b_vals = (b.row_ptr.tolist(), b.col_idx.tolist(),
                                 b.values.tolist())

        def kernel(ctx: TaskContext, args: dict) -> None:
            start = args["start"]
            end = min(start + per_task, size)
            c = ctx.state["c"]
            for row in range(start, end):
                accum = [0] * size
                for p in range(a_ptr[row], a_ptr[row + 1]):
                    k, aval = a_cols[p], a_vals[p]
                    for q in range(b_ptr[k], b_ptr[k + 1]):
                        accum[b_cols[q]] += aval * b_vals[q]
                c[row] = accum

        task_type = TaskType(
            name="spgemm_block",
            dfg=merge_dfg("spgemm"),
            kernel=kernel,
            trips=lambda args: args["work"],
            reads=lambda args: (
                ReadSpec(nbytes=b_bytes, region="B_csr", shared=True,
                         locality=0.4),
                ReadSpec(nbytes=max(1, args["a_nnz"]) * _NNZ_BYTES),
            ),
            writes=lambda args: (
                WriteSpec(nbytes=max(1, args["work"]) * _ELEM,
                          locality=0.6),),
            work_hint=WorkHint(lambda args: args["work"]),
        )
        initial = []
        for start in range(0, size, per_task):
            end = min(start + per_task, size)
            a_nnz = int(a.row_ptr[end] - a.row_ptr[start])
            initial.append(task_type.instantiate(
                {"start": start, "work": self._block_work(start),
                 "a_nnz": a_nnz}))
        return Program("spgemm", state, initial)

    def reference(self) -> np.ndarray:
        return self.a.to_dense() @ self.b.to_dense()

    def check(self, state: dict) -> None:
        require(np.array_equal(state["c"], self.expected),
                "spgemm product mismatch")

    def describe(self) -> dict:
        works = [self._block_work(s)
                 for s in range(0, self.size, self.rows_per_task)]
        mean = sum(works) / len(works)
        var = sum((w - mean) ** 2 for w in works) / len(works)
        return {
            "name": self.name,
            "tasks": len(works),
            "mean_work": mean,
            "cv_work": (var ** 0.5) / mean,
            "mechanisms": "lb skew (product of two Zipf) + multicast(B)",
        }
