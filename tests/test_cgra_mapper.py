"""Unit tests for the fabric model and the DFG mapper."""

import multiprocessing
import threading

import pytest

from repro.arch.cgra import Fabric, FabricCapacityError
from repro.arch.config import FabricConfig, default_delta_config
from repro.arch.dfg import (
    Dfg,
    FuClass,
    Op,
    cholesky_update_dfg,
    dot_product_dfg,
    merge_dfg,
    stencil5_dfg,
)
from repro.arch.mapper import MAPPING_CACHE_ENTRIES, Mapper, MappingError
from repro.eval.runner import compare
from repro.util.fingerprint import comparison_fingerprint
from repro.workloads.synthetic import SkewedTasks


@pytest.fixture(autouse=True)
def clear_mapping_cache():
    Mapper.clear_cache()
    yield
    Mapper.clear_cache()


# ------------------------------------------------------------------ Fabric

def test_fabric_cell_count():
    fabric = Fabric(FabricConfig(rows=4, cols=6))
    assert len(fabric.cells) == 24
    assert fabric.config.cells == 24


def test_fabric_capability_ratios():
    cfg = FabricConfig(rows=4, cols=4, mul_ratio=0.5, mem_ratio=0.25)
    fabric = Fabric(cfg)
    assert fabric.count_supporting(FuClass.MUL) == 8
    assert fabric.count_supporting(FuClass.MEM) == 4
    assert fabric.count_supporting(FuClass.ALU) == 16


def test_fabric_deterministic():
    a = Fabric(FabricConfig(rows=3, cols=3))
    b = Fabric(FabricConfig(rows=3, cols=3))
    for pos in a.positions:
        assert a.cells[pos].capabilities == b.cells[pos].capabilities


def test_fabric_neighbors_interior_and_corner():
    fabric = Fabric(FabricConfig(rows=3, cols=3))
    assert len(fabric.neighbors((1, 1))) == 4
    assert len(fabric.neighbors((0, 0))) == 2


def test_manhattan():
    assert Fabric.manhattan((0, 0), (2, 3)) == 5


def test_resource_mii_computation():
    fabric = Fabric(FabricConfig(rows=2, cols=2, mul_ratio=0.25,
                                 mem_ratio=0.25))
    # 1 MUL cell; 3 MUL ops -> MII 3.
    assert fabric.resource_mii({FuClass.MUL: 3}) == 3
    assert fabric.resource_mii({FuClass.ALU: 4}) == 1


def test_resource_mii_missing_capability():
    fabric = Fabric(FabricConfig(rows=2, cols=2, mul_ratio=0.0))
    with pytest.raises(FabricCapacityError):
        fabric.resource_mii({FuClass.MUL: 1})


# ------------------------------------------------------------------ Mapper

def default_mapper(**kwargs):
    return Mapper(FabricConfig(), **kwargs)


def test_map_dot_product_achieves_ii_one():
    mapping = default_mapper().map(dot_product_dfg())
    assert mapping.ii == 1
    assert mapping.depth >= 1
    assert mapping.recurrence_mii == pytest.approx(1.0, abs=1e-6)


def test_map_places_all_fu_nodes():
    dfg = stencil5_dfg()
    mapping = default_mapper().map(dfg)
    placed = set(mapping.placement)
    expected = {n.node_id for n in dfg.nodes.values()
                if n.fu_class is not FuClass.NONE}
    assert placed == expected


def test_map_placement_respects_capabilities():
    dfg = cholesky_update_dfg()
    mapper = default_mapper()
    mapping = mapper.map(dfg)
    for node_id, pos in mapping.placement.items():
        node = dfg.nodes[node_id]
        assert mapper.fabric.cells[pos].supports(node.fu_class), \
            f"{node.name} on incapable cell {pos}"


def test_map_routes_connect_placements():
    dfg = merge_dfg()
    mapping = default_mapper().map(dfg)
    for (src, dst, _idx), path in mapping.routes.items():
        assert path[0] == mapping.placement[src]
        assert path[-1] == mapping.placement[dst]
        # Contiguity: every step is one mesh hop.
        for a, b in zip(path, path[1:]):
            assert Fabric.manhattan(a, b) == 1


def test_map_ii_at_least_lower_bounds():
    dfg = cholesky_update_dfg()
    mapping = default_mapper().map(dfg)
    assert mapping.ii >= mapping.resource_mii
    assert mapping.ii >= mapping.recurrence_mii - 1e-9


def test_map_small_fabric_raises_when_too_many_ops():
    # 1x1 fabric cannot host a 5-node graph under the 1-op/cell/cycle model
    # unless II covers it; our mapper refuses when ops exceed cells.
    mapper = Mapper(FabricConfig(rows=1, cols=1, mul_ratio=1.0,
                                 mem_ratio=1.0))
    with pytest.raises(MappingError):
        mapper.map(dot_product_dfg())


def test_map_missing_capability_raises():
    mapper = Mapper(FabricConfig(rows=3, cols=3, mul_ratio=0.0))
    with pytest.raises(MappingError, match="mul"):
        mapper.map(dot_product_dfg())


def test_map_deterministic_for_seed():
    a = default_mapper(seed=7).map(dot_product_dfg())
    Mapper.clear_cache()
    b = default_mapper(seed=7).map(dot_product_dfg())
    assert a.placement == b.placement
    assert a.ii == b.ii


def test_map_cache_returns_same_object():
    mapper = default_mapper()
    first = mapper.map(dot_product_dfg())
    second = mapper.map(dot_product_dfg())
    assert first is second


def test_map_cache_keeps_its_capacity_and_remaps_equal():
    # repro serve gives every new spec its own seed: the cache must not
    # keep every mapping a long-lived process ever made.
    first = default_mapper(seed=0).map(dot_product_dfg())
    for seed in range(1, MAPPING_CACHE_ENTRIES + 8):
        default_mapper(seed=seed).map(dot_product_dfg())
        assert len(Mapper._cache) <= MAPPING_CACHE_ENTRIES
    assert all(key[2] != 0 for key in Mapper._cache)
    again = default_mapper(seed=0).map(dot_product_dfg())
    assert again is not first
    assert again == first


def test_map_cache_evicts_least_recently_used():
    mappers = [default_mapper(seed=seed)
               for seed in range(MAPPING_CACHE_ENTRIES)]
    kept = mappers[0].map(dot_product_dfg())
    for mapper in mappers[1:]:
        mapper.map(dot_product_dfg())
    assert mappers[0].map(dot_product_dfg()) is kept  # now most recent
    default_mapper(seed=MAPPING_CACHE_ENTRIES).map(dot_product_dfg())
    assert mappers[0].map(dot_product_dfg()) is kept
    assert all(key[2] != 1 for key in Mapper._cache)


def test_point_recomputed_after_eviction_has_the_same_fingerprint():
    config = default_delta_config(lanes=2)
    first = compare(SkewedTasks(num_tasks=24), config)
    assert any(key[2] == config.seed for key in Mapper._cache)
    for seed in range(config.seed + 1,
                      config.seed + 1 + MAPPING_CACHE_ENTRIES):
        Mapper(config.lane.fabric, seed=seed).map(dot_product_dfg())
    assert all(key[2] != config.seed for key in Mapper._cache)
    again = compare(SkewedTasks(num_tasks=24), config)
    assert comparison_fingerprint(again) == comparison_fingerprint(first)


def _map_in_forked_child(expected, warm: bool) -> None:
    mapping = default_mapper(seed=97).map(dot_product_dfg())
    assert mapping == expected
    assert (mapping is expected) == warm


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
@pytest.mark.parametrize("held", [True, False], ids=["held", "free"])
def test_a_child_forked_mid_mapping_can_map(held):
    """``repro serve`` forks pool workers while its threads may be inside
    the mapping cache's lock. Such a worker must not inherit a lock that
    nothing releases (it hung on its first mapping), nor a cache
    that thread may have left half updated; a worker forked while the
    lock is free keeps the parent's warm cache."""
    expected = default_mapper(seed=97).map(dot_product_dfg())
    inside, release = threading.Event(), threading.Event()

    def hold() -> None:
        with Mapper._cache_lock:
            inside.set()
            release.wait(30)

    thread = threading.Thread(target=hold)
    child = None
    try:
        if held:
            thread.start()
            assert inside.wait(30)
        child = multiprocessing.get_context("fork").Process(
            target=_map_in_forked_child, args=(expected, not held))
        child.start()
        child.join(30)
        assert not child.is_alive(), "the forked worker hung on a held lock"
        assert child.exitcode == 0
    finally:
        release.set()
        if held:
            thread.join(30)
        if child is not None and child.is_alive():
            child.kill()


def test_map_dense_graph_ii_reflects_contention():
    # Build a graph with many MUL ops on a fabric with few MUL cells.
    dfg = Dfg("mulheavy")
    src = dfg.add(Op.INPUT)
    muls = []
    for _ in range(6):
        m = dfg.add(Op.MUL)
        dfg.connect(src, m)
        muls.append(m)
    join = dfg.add(Op.ADD)
    for m in muls:
        dfg.connect(m, join)
    out = dfg.add(Op.OUTPUT)
    dfg.connect(join, out)
    mapper = Mapper(FabricConfig(rows=3, cols=3, mul_ratio=0.25,
                                 mem_ratio=0.5))
    mapping = mapper.map(dfg)
    # 2 MUL-capable cells for 6 MULs -> resource MII 3.
    assert mapping.resource_mii == 3
    assert mapping.ii >= 3


def test_throughput_is_inverse_ii():
    mapping = default_mapper().map(dot_product_dfg())
    assert mapping.throughput_elements_per_cycle() == pytest.approx(
        1.0 / mapping.ii)


def test_total_route_hops_nonnegative():
    mapping = default_mapper().map(stencil5_dfg())
    assert mapping.total_route_hops >= 0
