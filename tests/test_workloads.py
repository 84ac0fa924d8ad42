"""Workload-suite tests: functional correctness on both machines.

These are the project's integration tests: every evaluation workload (at
reduced sizes where supported) runs on Delta and on the static baseline,
and the simulated state must match the workload's reference
implementation exactly.
"""

import functools
import inspect
import multiprocessing
import pickle
import threading

import numpy as np
import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.eval.runner import compare
from repro.graph import recover_structure
from repro.util.fingerprint import workload_cache_key
from repro.util.rng import DeterministicRng
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import WorkloadError
from repro.workloads.bfs import BfsWorkload
from repro.workloads.cholesky import CholeskyWorkload
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.inputs import random_int_array
from repro.workloads.knn import KnnWorkload
from repro.workloads.mergesort import MergesortWorkload
from repro.workloads.registry import workload_names
from repro.workloads.spmm import SpmmWorkload
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.stencil_amr import StencilAmrWorkload
from repro.workloads.synthetic import ChainTasks
from repro.workloads.triangle import TriangleWorkload
from repro.workloads.wavefront import (_GAP, _MATCH, _MISMATCH,
                                       WavefrontWorkload)

# Reduced-size instances keep the full matrix of (workload x machine)
# fast while exercising identical code paths.
SMALL_WORKLOADS = [
    SpmvWorkload(num_rows=64, num_cols=64, max_nnz=24),
    SpmmWorkload(num_rows=32, num_cols=32, width=8),
    BfsWorkload(num_vertices=128),
    MergesortWorkload(n=1024, leaf=128),
    CholeskyWorkload(tiles=4, tile_size=8),
    WavefrontWorkload(tiles=4, tile_size=16),
    TriangleWorkload(num_vertices=96),
    HistogramWorkload(n=2048, bins=32, chunks=8),
    KnnWorkload(num_points=512, num_queries=8, chunks=8),
    StencilAmrWorkload(num_tiles=12, max_side=32),
]


@pytest.mark.parametrize("workload", SMALL_WORKLOADS,
                         ids=lambda w: w.name)
def test_delta_functional_correctness(workload):
    result = Delta(default_delta_config(lanes=4)).run(
        workload.build_program())
    workload.check(result.state)


@pytest.mark.parametrize("workload", SMALL_WORKLOADS,
                         ids=lambda w: w.name)
def test_static_functional_correctness(workload):
    result = StaticParallel(default_baseline_config(lanes=4)).run(
        workload.build_program())
    workload.check(result.state)


@pytest.mark.parametrize("workload", SMALL_WORKLOADS,
                         ids=lambda w: w.name)
def test_build_program_is_fresh_each_call(workload):
    """Two builds must not share mutable state."""
    p1 = workload.build_program()
    p2 = workload.build_program()
    assert p1.state is not p2.state
    assert p1.initial_tasks[0] is not p2.initial_tasks[0]


@pytest.mark.parametrize("workload", SMALL_WORKLOADS,
                         ids=lambda w: w.name)
def test_expansion_matches_delta_task_count(workload):
    expanded = recover_structure(workload.build_program())
    result = Delta(default_delta_config(lanes=4)).run(
        workload.build_program())
    assert result.tasks_executed == expanded.task_count


@pytest.mark.parametrize("workload", SMALL_WORKLOADS,
                         ids=lambda w: w.name)
def test_describe_has_required_fields(workload):
    d = workload.describe()
    assert d["name"] == workload.name
    assert "mechanisms" in d


def test_registry_contains_full_suite():
    names = workload_names()
    for expected in ("spmv", "spmm", "bfs", "mergesort", "cholesky",
                     "wavefront", "triangle", "histogram", "knn",
                     "stencil-amr"):
        assert expected in names
    assert len(all_workloads()) == 10


def test_registry_micro_workloads_excluded_from_suite():
    suite_names = {w.name for w in all_workloads()}
    assert not any(n.startswith("micro") for n in suite_names)


def test_registry_unknown_name():
    with pytest.raises(KeyError, match="unknown workload"):
        get_workload("nope")


def test_check_raises_on_wrong_state():
    w = SpmvWorkload(num_rows=32, num_cols=32)
    program = w.build_program()
    program.state["y"][:] = -999
    with pytest.raises(WorkloadError):
        w.check(program.state)


def test_verify_result_boolean():
    w = HistogramWorkload(n=512, bins=16, chunks=4)
    assert w.verify_result({"result": None, "partials": {}}) is False


class TestWorkloadDeterminism:
    def test_same_seed_same_inputs(self):
        a = SpmvWorkload(num_rows=32, num_cols=32, seed=5)
        b = SpmvWorkload(num_rows=32, num_cols=32, seed=5)
        assert (a.matrix.col_idx == b.matrix.col_idx).all()
        assert (a.x == b.x).all()

    def test_different_seed_different_inputs(self):
        a = SpmvWorkload(num_rows=64, num_cols=64, seed=1)
        b = SpmvWorkload(num_rows=64, num_cols=64, seed=2)
        assert not (a.matrix.row_ptr == b.matrix.row_ptr).all() or \
            not (a.x == b.x).all()

    def test_simulation_cycles_deterministic(self):
        w = TriangleWorkload(num_vertices=96)
        r1 = Delta(default_delta_config(lanes=4)).run(w.build_program())
        r2 = Delta(default_delta_config(lanes=4)).run(w.build_program())
        assert r1.cycles == r2.cycles


class TestWorkloadStructure:
    def test_spmv_row_skew_exists(self):
        w = SpmvWorkload()
        nnz = [w.matrix.row_nnz(r) for r in range(w.num_rows)]
        assert max(nnz) > 4 * (sum(nnz) / len(nnz))

    def test_bfs_reaches_every_vertex(self):
        w = BfsWorkload(num_vertices=128)
        assert len(w.reference()) == 128  # chain guarantees connectivity

    def test_mergesort_requires_divisible_leaf(self):
        with pytest.raises(ValueError):
            MergesortWorkload(n=1000, leaf=256)

    def test_histogram_requires_power_of_two_chunks(self):
        with pytest.raises(ValueError):
            HistogramWorkload(chunks=12)

    def test_cholesky_reference_is_factor(self):
        import numpy as np

        w = CholeskyWorkload(tiles=3, tile_size=4)
        factor = w.reference()
        assert np.allclose(factor @ factor.T, w.matrix)

    def test_wavefront_chain_depth(self):
        w = WavefrontWorkload(tiles=3, tile_size=8)
        expanded = recover_structure(w.build_program())
        # Root + diagonal wavefront: max depth = 2*(tiles-1) + 1.
        assert len(expanded.phases) == 2 * (3 - 1) + 2

    def test_triangle_count_positive(self):
        assert TriangleWorkload(num_vertices=96).reference() > 0

    def test_knn_reference_sorted_by_distance(self):
        w = KnnWorkload(num_points=128, num_queries=4, chunks=4)
        ref = w.reference()
        assert len(ref) == 4
        assert all(len(r) == w.k for r in ref)

    def test_stencil_sides_skewed(self):
        w = StencilAmrWorkload(num_tiles=30)
        areas = sorted(s * s for s in w.sides)
        assert areas[-1] > 8 * areas[0]


# -- array-speed functional code against its loop oracles -------------------

def scalar_fill_tile(workload, score, ti, tj):
    """Fill one wavefront tile cell by cell over NumPy scalars: the oracle
    for ``WavefrontWorkload._fill_tile``."""
    b = workload.tile_size
    for i in range(ti * b, (ti + 1) * b):
        for j in range(tj * b, (tj + 1) * b):
            same = workload.seq_a[i] == workload.seq_b[j]
            diag = score[i, j] + (_MATCH if same else _MISMATCH)
            up = score[i + 1, j] + _GAP
            left = score[i, j + 1] + _GAP
            score[i + 1, j + 1] = max(0, diag, up, left)


@pytest.mark.parametrize("tile_size", [1, 3, 8, 32])
@pytest.mark.parametrize("seed", range(5))
def test_wavefront_tile_fill_matches_scalar_loop(seed, tile_size):
    w = WavefrontWorkload(tiles=4, tile_size=tile_size, seed=seed)
    fast = np.zeros((w.n + 1, w.n + 1), dtype=np.int64)
    oracle = fast.copy()
    for ti in range(w.tiles):
        for tj in range(w.tiles):
            w._fill_tile(fast, ti, tj)
            scalar_fill_tile(w, oracle, ti, tj)
            assert np.array_equal(fast, oracle), (ti, tj)
    # The untiled row scan agrees with the tile-order fill.
    assert np.array_equal(w.reference(), oracle)


def test_knn_reference_breaks_distance_ties_by_lower_index():
    w = KnnWorkload(num_points=96, num_queries=6, chunks=4, k=5)
    base = w.db[:32]
    # Every point three times (indices j, 63 - j and 64 + j), and the
    # queries are points of the database: many equal distances.
    w.db = np.concatenate([base, base[::-1], base])
    w.queries = base[:6]
    diff = w.queries[:, None, :] - w.db[None, :, :]
    dists = (diff * diff).sum(axis=2)
    oracle = [sorted(range(96), key=lambda j: (int(dists[q, j]), j))[:w.k]
              for q in range(6)]
    assert w.reference() == oracle
    assert [row[:3] for row in oracle] == [
        [q, 63 - q, 64 + q] for q in range(6)]
    result = Delta(default_delta_config(lanes=4)).run(w.build_program())
    assert w.verify_result(result.state)


def randint_loop(count, lo, hi, seed):
    """``random_int_array`` one ``randint`` at a time: its oracle."""
    rng = DeterministicRng("ints", count, lo, hi, seed)
    return [rng.randint(lo, hi) for _ in range(count)]


@pytest.mark.parametrize("count, lo, hi", [
    (0, 0, 5), (1, 0, 5), (5000, 0, 3), (5000, -16, 16), (300, 7, 7),
    *[(3000, 0, (1 << k) - 1) for k in (1, 2, 5, 16, 31, 32)],  # width 2^k
    *[(3000, -9, (1 << k) - 9) for k in (1, 2, 5, 16, 31)],  # 2^k + 1
    (300, 0, 1 << 32), (300, -(1 << 40), 1 << 40),  # over 2^32
], ids=str)
def test_random_int_array_equals_randint_loop(count, lo, hi):
    for seed in (0, ("t", 1)):
        got = random_int_array(count, lo, hi, seed=seed)
        assert got.dtype == np.int64 and got.shape == (count,)
        assert got.tolist() == randint_loop(count, lo, hi, seed)


def test_random_int_array_empty_range_raises_like_randint():
    with pytest.raises(ValueError) as expected:
        DeterministicRng("any").randint(5, 4)
    with pytest.raises(ValueError) as got:
        random_int_array(3, 5, 4)
    assert str(got.value) == str(expected.value)


# -- identity: a workload is its bound constructor arguments ----------------

ALL_NAMES = workload_names()


def _generated(workload):
    """Names of the first-use attributes ``workload`` has computed."""
    return {name for name, attr in inspect.getmembers(type(workload))
            if isinstance(attr, functools.cached_property)
            and name in vars(workload)}


def _changed(workload, parameter):
    """A fresh instance of ``workload``'s class that differs only in
    ``parameter``, moved to the first nearby value its constructor
    accepts (mergesort wants ``n % leaf == 0``, histogram a power-of-two
    chunk count, ...)."""
    arguments = dict(workload.arguments)
    value = arguments[parameter]
    if isinstance(value, bool):
        candidates = [not value]
    elif isinstance(value, int):
        candidates = [value + 1, value * 2, value - 1]
    else:
        candidates = [value * 2, value + 0.5]
    for candidate in candidates:
        if candidate == value:
            continue
        try:
            return type(workload)(**{**arguments, parameter: candidate})
        except ValueError:
            continue
    pytest.fail(f"no accepted neighbour of {parameter}={value!r}")


ARGUMENT_CASES = [(name, parameter) for name in ALL_NAMES
                  for parameter, _value in get_workload(name).arguments]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_arguments_follow_the_constructor_signature(name):
    """``inspect.signature`` still sees through the recording wrapper
    (the e2e benchmark's ``build_workloads`` relies on it), and the
    recorded arguments are exactly those parameters with defaults."""
    workload = get_workload(name)
    signature = inspect.signature(type(workload))
    assert [p for p, _v in workload.arguments] == list(signature.parameters)
    assert dict(workload.arguments) == {
        p.name: p.default for p in signature.parameters.values()}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_key_is_equal_before_and_after_build_program(name):
    workload = get_workload(name)
    before = workload_cache_key(workload)
    assert not _generated(workload), "keying generated inputs"
    workload.build_program()
    assert workload_cache_key(workload) == before
    assert workload_cache_key(get_workload(name)) == before


@pytest.mark.parametrize("name,parameter", ARGUMENT_CASES,
                         ids=[f"{n}-{p}" for n, p in ARGUMENT_CASES])
def test_key_changes_with_every_argument(name, parameter):
    workload = get_workload(name)
    assert workload_cache_key(_changed(workload, parameter)) != \
        workload_cache_key(workload)


@pytest.mark.parametrize("cls", [CholeskyWorkload, MergesortWorkload,
                                 WavefrontWorkload], ids=lambda c: c.name)
def test_seed_reaches_the_key(cls):
    # These three once keyed on attributes their seed never reached, so
    # seeds 1 and 2 shared one cache entry.
    assert workload_cache_key(cls(seed=1)) != workload_cache_key(cls(seed=2))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_untouched_instance_pickles_as_its_arguments(name):
    workload = get_workload(name)
    assert len(pickle.dumps(workload)) < 1024
    assert not _generated(workload)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_compare_leaves_inputs_and_reference_unchanged(name):
    """The memoised ``expected`` is sound: simulating both machines and
    checking twice neither mutates an input nor the reference."""
    workload = get_workload(name)
    compare(workload, default_delta_config(lanes=2))
    fresh = get_workload(name)
    generated = _generated(workload)
    assert "expected" in generated
    for attr in generated - {"expected"}:
        assert pickle.dumps(getattr(workload, attr)) == \
            pickle.dumps(getattr(fresh, attr)), attr
    assert pickle.dumps(workload.expected) == \
        pickle.dumps(fresh.reference())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_first_use_survives_a_fork_mid_computation():
    """A pool worker forked while another thread computes a first-use
    value must not inherit a held lock. ``functools.cached_property``
    before Python 3.12 shares one per attribute across instances, and
    ``repro serve`` forks pools while its threads compute one-point
    jobs: such a worker hung on its first read of ``expected``."""
    computing, release = threading.Event(), threading.Event()

    class Slow(ChainTasks):
        def reference(self):
            computing.set()
            release.wait(30)
            return super().reference()

    thread = threading.Thread(target=lambda: Slow().expected)
    thread.start()
    child = None
    try:
        assert computing.wait(30)
        child = multiprocessing.get_context("fork").Process(
            target=lambda: ChainTasks().expected)
        child.start()
        child.join(30)
        assert not child.is_alive(), "the forked worker hung on a held lock"
        assert child.exitcode == 0
    finally:
        release.set()
        thread.join(30)
        if child is not None and child.is_alive():
            child.kill()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unstable_argument_is_rejected_by_name(name):
    # The last parameter (the seed, or a trip count) is only stored by
    # every constructor, so an object() survives __init__.
    workload = get_workload(name)
    parameter = workload.arguments[-1][0]
    odd = type(workload)(**{**dict(workload.arguments),
                            parameter: object()})
    with pytest.raises(TypeError, match=parameter):
        workload_cache_key(odd)


def test_tuple_arguments_are_stable():
    workload = SpmvWorkload(seed=(1, "a", None))
    assert workload_cache_key(workload) == \
        workload_cache_key(SpmvWorkload(seed=(1, "a", None)))
    assert workload_cache_key(workload) != \
        workload_cache_key(SpmvWorkload(seed=(1, "b", None)))


def test_subclass_is_identified_by_its_own_arguments():
    class Fixed(SpmvWorkload):
        def __init__(self, seed: int = 0) -> None:
            super().__init__(num_rows=32, num_cols=32, seed=seed)

    class Renamed(SpmvWorkload):
        pass

    assert Fixed(seed=3).arguments == (("seed", 3),)
    assert Fixed(seed=3).num_rows == 32
    assert Renamed(seed=3).arguments == SpmvWorkload(seed=3).arguments
    assert workload_cache_key(Renamed(seed=3)) != \
        workload_cache_key(SpmvWorkload(seed=3))
