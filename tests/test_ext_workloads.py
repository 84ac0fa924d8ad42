"""Tests for the extended-suite workloads (spgemm, pagerank)."""

import numpy as np
import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.graph import recover_structure
from repro.workloads import get_workload
from repro.workloads.pagerank import PagerankWorkload
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
