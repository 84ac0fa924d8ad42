"""Tests for the extended-suite workloads (spgemm, pagerank)."""

import numpy as np
import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.core.task import TaskContext
from repro.graph import recover_structure
from repro.workloads import get_workload
from repro.workloads.inputs import CsrMatrix
from repro.workloads.pagerank import _DAMPING, PagerankWorkload
from repro.workloads.spgemm import SpgemmWorkload

SMALL = [
    SpgemmWorkload(size=32, rows_per_task=4, max_nnz=8),
    PagerankWorkload(num_vertices=64, iterations=3, chunk_vertices=8),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_delta_functional(workload):
    result = Delta(default_delta_config(lanes=4)).run(
        workload.build_program())
    workload.check(result.state)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_static_functional(workload):
    result = StaticParallel(default_baseline_config(lanes=4)).run(
        workload.build_program())
    workload.check(result.state)


def test_registered_as_extended():
    assert get_workload("ext-spgemm").name == "spgemm"
    assert get_workload("ext-pagerank").name == "pagerank"


def test_ext_not_in_core_suite():
    from repro.workloads import all_workloads

    names = {w.name for w in all_workloads()}
    assert "spgemm" not in names
    assert "pagerank" not in names
    assert len(names) == 10


class TestSpgemm:
    def test_reference_matches_dense_product(self):
        w = SpgemmWorkload(size=16, max_nnz=4)
        ref = w.reference()
        assert ref.shape == (16, 16)
        assert np.array_equal(ref, w.a.to_dense() @ w.b.to_dense())

    def test_work_skew_present(self):
        # Row-block aggregation smooths the raw per-row skew; the block-
        # level CV is still well above a uniform workload's ~0.
        w = SpgemmWorkload()
        d = w.describe()
        assert d["cv_work"] > 0.3

    def test_deterministic_inputs(self):
        a = SpgemmWorkload(size=24, seed=3)
        b = SpgemmWorkload(size=24, seed=3)
        assert np.array_equal(a.a.col_idx, b.a.col_idx)
        assert np.array_equal(a.b.values, b.b.values)


class TestPagerank:
    def test_reference_is_probability_vector(self):
        w = PagerankWorkload(num_vertices=64, iterations=3)
        ranks = w.reference()
        assert ranks.shape == (64,)
        assert (ranks > 0).all()
        # Undirected connected graph: damped ranks stay near a
        # distribution (sum ~ 1 up to dangling-free normalization).
        assert ranks.sum() == pytest.approx(1.0, abs=0.05)

    def test_iteration_count_controls_tasks(self):
        w2 = PagerankWorkload(num_vertices=64, iterations=2,
                              chunk_vertices=16)
        w4 = PagerankWorkload(num_vertices=64, iterations=4,
                              chunk_vertices=16)
        t2 = recover_structure(w2.build_program()).task_count
        t4 = recover_structure(w4.build_program()).task_count
        assert t4 > t2

    def test_fresh_rank_region_per_iteration(self):
        """Each iteration multicasts a new ranks region (no stale reuse)."""
        w = PagerankWorkload(num_vertices=64, iterations=3,
                             chunk_vertices=16)
        result = Delta(default_delta_config(lanes=4)).run(
            w.build_program())
        w.check(result.state)
        # One fetch per iteration for ranks + one for the graph; hits for
        # reuse within an iteration and of the graph across iterations.
        assert result.counters.get("mcast.fetches") >= 3


# -- kernels against their loop oracles --------------------------------------

def run_kernel(state, task):
    """Execute one task's kernel; returns the tasks it spawned."""
    ctx = TaskContext(state, task)
    task.type.kernel(ctx, task.args)
    return ctx.spawned


def spgemm_block_loop(workload, c, start):
    """One spgemm block over NumPy scalars with a dict accumulator: the
    oracle for the block kernel."""
    a, b = workload.a, workload.b
    for row in range(start, min(start + workload.rows_per_task,
                                workload.size)):
        acols, avals = a.row_slice(row)
        accum = {}
        for k, aval in zip(acols, avals):
            bcols, bvals = b.row_slice(int(k))
            for j, bval in zip(bcols, bvals):
                accum[int(j)] = accum.get(int(j), 0) + int(aval) * int(bval)
        for j, value in accum.items():
            c[row, j] = value


def pagerank_chunk_loop(workload, ranks, out, lo, hi):
    """One pagerank chunk over NumPy scalars: the oracle for the chunk
    kernel."""
    graph, n = workload.graph, workload.num_vertices
    for v in range(lo, hi):
        acc = 0.0
        for u in graph.adjacency[v]:
            acc += ranks[u] / graph.degree(u)
        out[v] = (1 - _DAMPING) / n + _DAMPING * acc


@pytest.mark.parametrize("seed", range(5))
def test_spgemm_kernel_matches_loop(seed):
    w = SpgemmWorkload(seed=seed)
    program = w.build_program()
    oracle = program.state["c"].copy()
    for task in program.initial_tasks:
        run_kernel(program.state, task)
        spgemm_block_loop(w, oracle, task.args["start"])
    assert program.state["c"].dtype == np.int64
    assert np.array_equal(program.state["c"], oracle)
    assert np.array_equal(oracle, w.reference())


def test_spgemm_kernel_raises_where_int64_would_wrap():
    """Products past int64 raise on assignment, as the loop's did; an
    int64 accumulation would wrap silently."""
    w = SpgemmWorkload(size=8, rows_per_task=4, max_nnz=4)
    w.a, w.b = (CsrMatrix(m.num_rows, m.num_cols, m.row_ptr, m.col_idx,
                          np.full_like(m.values, 1 << 40))
                for m in (w.a, w.b))
    program = w.build_program()
    with pytest.raises(OverflowError):
        run_kernel(program.state, program.initial_tasks[0])
    with pytest.raises(OverflowError):
        spgemm_block_loop(w, np.zeros_like(program.state["c"]), 0)


@pytest.mark.parametrize("seed", range(5))
def test_pagerank_chunk_kernel_matches_loop(seed):
    w = PagerankWorkload(seed=seed)
    program = w.build_program()
    state = program.state
    # Arbitrary ranks, so every rounding of the sums is exercised.
    state["ranks"] = np.random.default_rng(seed).random(w.num_vertices)
    oracle = np.zeros(w.num_vertices)
    chunks = [t for t in run_kernel(state, program.initial_tasks[0])
              if t.type.name == "pr_chunk"]
    assert len(chunks) == w.num_vertices // w.chunk_vertices
    for task in chunks:
        run_kernel(state, task)
        pagerank_chunk_loop(w, state["ranks"], oracle, task.args["lo"],
                            task.args["hi"])
    assert state["next"].tobytes() == oracle.tobytes()
