"""What one computed point leaves for the garbage collector.

The stream operations and the lane pipeline are callback chains whose
continuations name each other, so each chain is a reference cycle while
it runs. Its last step unlinks that cycle, and a finished chain is then
freed by reference counting. What the collector still finds after a
point is the cyclic structure of the program and the machine themselves
(task trees, DFG nodes and edges).

Each registered workload runs one fault-free ``compare()`` at 2 and 8
lanes with the collector off, once that point's process-wide caches are
warm, and one ``gc.collect()`` then saves what it finds. Two checks read
it:

- no function of a chain is among it, on any Python version;
- its size is under a per-workload upper bound. The bounds are counts of
  CPython objects, which depend on how the interpreter lays them out (an
  instance ``__dict__`` is a separate object on some versions and not on
  others), so they hold only on :data:`PINNED_ON`, the version they were
  measured on. Each is the largest count over the default kernel, the
  reference kernel and the sanitizer, plus 5%, rounded up to a multiple
  of ten. A chain that leaks its cycle again adds tens to thousands of
  objects per point: 1,613 to 21,034 per point before the chains were
  unlinked. A change may lower a bound and re-freeze it; a rise must be
  justified.

Reading a result's traffic leaves nothing for the collector: a run's
counters are one plain bag, not a structure that points back at itself.
"""

from __future__ import annotations

import gc
import sys
import types

import pytest

from repro.arch.config import default_delta_config
from repro.eval.cache import EvalCache
from repro.eval.runner import compare
from repro.workloads.registry import get_workload, workload_names

#: Workload -> (bound at 2 lanes, bound at 8 lanes), on :data:`PINNED_ON`.
CYCLIC_GARBAGE_PINS = {
    "bfs": (780, 810),
    "cholesky": (960, 990),
    "ext-pagerank": (950, 980),
    "ext-spgemm": (30, 60),
    "histogram": (1140, 1170),
    "knn": (480, 520),
    "mergesort": (590, 620),
    "micro-chain": (250, 290),
    "micro-shared": (30, 60),
    "micro-skewed": (30, 60),
    "micro-thrash": (30, 60),
    "micro-tree": (110, 140),
    "micro-uniform": (30, 60),
    "spmm": (30, 60),
    "spmv": (30, 60),
    "stencil-amr": (30, 60),
    "triangle": (30, 60),
    "wavefront": (930, 960),
}

#: The Python version (major, minor) the pins were measured on.
PINNED_ON = (3, 11)

#: Qualified-name prefixes of the chains' continuations.
CHAINS = ("StreamEngine.stream_in.", "StreamEngine.read_resident.",
          "StreamEngine.stream_out.", "Lane.run_pipeline.")

LANES = (2, 8)


def cyclic_garbage(name: str, lanes: int) -> tuple[int, list[str]]:
    """How many objects the collector finds after one compare() of a
    fresh ``name`` at ``lanes``, run with the collector off, and the
    qualified names of the chain functions among them."""
    compare(get_workload(name), default_delta_config(lanes=lanes))  # warm
    workload = get_workload(name)
    config = default_delta_config(lanes=lanes)
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        compare(workload, config)
        found = gc.collect()
        chains = sorted({obj.__qualname__ for obj in gc.garbage
                         if isinstance(obj, types.FunctionType)
                         and obj.__qualname__.startswith(CHAINS)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    return found, chains


@pytest.fixture(scope="module")
def garbage() -> dict:
    return {(name, lanes): cyclic_garbage(name, lanes)
            for name in workload_names() for lanes in LANES}


def test_pins_cover_the_registry():
    assert sorted(CYCLIC_GARBAGE_PINS) == sorted(workload_names())


def test_a_point_leaves_no_chain_cycles(garbage):
    left = {point: chains for point, (_, chains) in garbage.items()
            if chains}
    assert not left, f"points leave stream chains to the collector: {left}"


@pytest.mark.skipif(sys.version_info[:2] != PINNED_ON,
                    reason="object counts are pinned on CPython "
                           f"{PINNED_ON[0]}.{PINNED_ON[1]}")
def test_a_point_leaves_no_more_garbage_than_pinned(garbage):
    over = {point: count for point, (count, _) in garbage.items()
            if count > CYCLIC_GARBAGE_PINS[point[0]][LANES.index(point[1])]}
    assert not over, f"points leave more cyclic garbage than pinned: {over}"


def test_reading_traffic_leaves_no_garbage(tmp_path):
    computed = compare(get_workload("micro-shared"),
                       default_delta_config(lanes=2))
    cache = EvalCache(tmp_path)
    cache.put("ab" * 32, computed)
    stored = cache.get("ab" * 32)
    assert stored == computed
    gc.collect()
    gc.disable()
    try:
        for comparison in (computed, stored):
            for _ in range(10):
                for run in (comparison.delta, comparison.static):
                    run.dram_bytes
                    run.noc_bytes
                comparison.traffic_ratio
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
