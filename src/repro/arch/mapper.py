"""Place-and-route of dataflow graphs onto the CGRA fabric.

The mapper is the bridge between the DFG IR and the timing model: the
*achieved initiation interval* of a mapping — not a hand-waved constant —
determines task compute throughput in the simulator.

Algorithm (a pragmatic modulo-scheduling-free P&R):

1. Lower bounds: resource MII from FU counts, recurrence MII from cycles.
2. Greedy placement in topological order. Each node is placed on the
   compatible cell minimizing (a) distance to placed producers and (b) cell
   crowding, subject to at most ``II`` ops per cell.
3. Routing: every edge is routed on the mesh with BFS weighted by link
   congestion; link usages accumulate.
4. The achieved II is ``max(lower bounds, peak ops/cell, peak link usage)``.
5. Optional refinement: a few random ripup-and-replace passes accept moves
   that lower the congestion objective (simulated-annealing-lite, seeded,
   deterministic).

Mappings are cached per (dfg signature, fabric config, seed) because the
same task type is mapped once and executed millions of times. The cache
keeps the :data:`MAPPING_CACHE_ENTRIES` most recently used mappings: a
long-lived process (``repro serve`` gives every new spec its own seed)
would otherwise keep every mapping it ever made.
"""

from __future__ import annotations

import heapq
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.arch.cgra import Fabric, FabricCapacityError
from repro.arch.config import FabricConfig
from repro.arch.dfg import Dfg, FuClass
from repro.util.rng import DeterministicRng

Coord = tuple[int, int]
Link = tuple[Coord, Coord]

#: Placement attempts after the first; the best-II attempt wins.
REFINE_PASSES = 2

#: Mappings the process-wide cache keeps, least recently used evicted
#: first; one 18-workload sweep at one seed maps 32 DFGs.
MAPPING_CACHE_ENTRIES = 256


@dataclass
class Mapping:
    """The result of placing and routing one DFG on one fabric."""

    dfg_name: str
    placement: dict[int, Coord]
    routes: dict[tuple[int, int, int], list[Coord]]
    ii: int
    depth: int
    resource_mii: int
    recurrence_mii: float
    peak_link_usage: int
    peak_cell_usage: int

    @property
    def total_route_hops(self) -> int:
        """Sum of route lengths (a proxy for switch energy)."""
        return sum(max(0, len(path) - 1) for path in self.routes.values())

    def throughput_elements_per_cycle(self) -> float:
        """Steady-state elements produced per cycle (1 / II)."""
        return 1.0 / self.ii

    def compute_cycles(self, trips: int) -> float:
        """Nominal fabric cycles of ``trips`` loop iterations: the
        pipeline fill plus one II per trip (0 for an empty task)."""
        return 0.0 if trips <= 0 else float(self.depth + self.ii * trips)


class MappingError(RuntimeError):
    """Raised when a DFG cannot be mapped onto the fabric."""


@dataclass
class _PlacementState:
    """Mutable state threaded through placement and routing."""

    cell_load: dict[Coord, int] = field(default_factory=dict)
    link_use: dict[Link, int] = field(default_factory=dict)

    def bump_cell(self, pos: Coord) -> None:
        self.cell_load[pos] = self.cell_load.get(pos, 0) + 1

    def bump_links(self, path: list[Coord]) -> None:
        for a, b in zip(path, path[1:]):
            self.link_use[(a, b)] = self.link_use.get((a, b), 0) + 1

    @property
    def peak_cell(self) -> int:
        return max(self.cell_load.values(), default=0)

    @property
    def peak_link(self) -> int:
        return max(self.link_use.values(), default=0)


class Mapper:
    """Maps DFGs onto fabrics, with a process-wide LRU mapping cache."""

    _cache: OrderedDict[tuple, Mapping] = OrderedDict()
    #: Serve's in-process jobs map from several threads at once. A forked
    #: child gets its own (see :func:`_after_fork_in_child`).
    _cache_lock = threading.Lock()

    def __init__(self, fabric_config: FabricConfig, seed: int = 0) -> None:
        self.fabric_config = fabric_config
        self.fabric = Fabric(fabric_config)
        self.seed = seed

    def map(self, dfg: Dfg) -> Mapping:
        """Place and route ``dfg``; cached by (dfg, fabric, seed).

        A mapping is a pure function of that key — the signature includes
        the DFG's name, and placement draws from an RNG seeded by (name,
        seed) — so an evicted mapping is remade equal, field for field.
        """
        key = (dfg.signature(), self.fabric_config, self.seed)
        cache = Mapper._cache
        with Mapper._cache_lock:
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                return cached
        mapping = self._map_uncached(dfg)
        with Mapper._cache_lock:
            cache[key] = mapping
            while len(cache) > MAPPING_CACHE_ENTRIES:
                cache.popitem(last=False)
        return mapping

    @classmethod
    def clear_cache(cls) -> None:
        """Drop all cached mappings (used by tests)."""
        cls._cache.clear()

    # -- core algorithm ----------------------------------------------------

    def _map_uncached(self, dfg: Dfg) -> Mapping:
        dfg.validate()
        hist = dfg.op_histogram()
        if sum(hist.values()) > self.fabric.config.cells:
            raise MappingError(
                f"DFG {dfg.name!r} has {sum(hist.values())} ops but fabric "
                f"has {self.fabric.config.cells} cells; II>1 sharing of "
                f"cells beyond 1 op/cell/cycle is modeled, full temporal "
                f"multiplexing is not")
        try:
            resource_mii = self.fabric.resource_mii(hist)
        except FabricCapacityError as exc:
            raise MappingError(str(exc)) from exc
        recurrence_mii = dfg.recurrence_mii()
        # Epsilon guards against the binary search converging just above
        # the exact ratio (e.g. 1 + 1e-13 must yield an II of 1, not 2).
        lower_ii = max(resource_mii,
                       int(-(-(recurrence_mii - 1e-6) // 1)))

        rng = DeterministicRng("mapper", dfg.name, self.seed)
        best: Optional[tuple[int, _PlacementState, dict[int, Coord],
                             dict[tuple[int, int, int], list[Coord]]]] = None
        for attempt in range(1 + REFINE_PASSES):
            placement = self._place(dfg, rng.fork("place", attempt))
            state = _PlacementState()
            for pos in placement.values():
                state.bump_cell(pos)
            routes = self._route_all(dfg, placement, state)
            achieved = max(lower_ii, state.peak_cell, state.peak_link)
            if best is None or achieved < best[0]:
                best = (achieved, state, placement, routes)
            if achieved == lower_ii:
                break  # cannot do better than the lower bound

        achieved, state, placement, routes = best
        depth = dfg.critical_path() + self._route_depth(routes)
        return Mapping(
            dfg_name=dfg.name,
            placement=placement,
            routes=routes,
            ii=achieved,
            depth=depth,
            resource_mii=resource_mii,
            recurrence_mii=recurrence_mii,
            peak_link_usage=state.peak_link,
            peak_cell_usage=state.peak_cell,
        )

    def _route_depth(self, routes: dict[tuple[int, int, int],
                                        list[Coord]]) -> int:
        if not routes:
            return 0
        longest = max(max(0, len(p) - 1) for p in routes.values())
        return longest * self.fabric.config.switch_latency

    def _place(self, dfg: Dfg, rng: DeterministicRng) -> dict[int, Coord]:
        """Greedy topological placement with light randomization."""
        placement: dict[int, Coord] = {}
        cell_load: dict[Coord, int] = {}
        producers: dict[int, list[int]] = {i: [] for i in dfg.nodes}
        for edge in dfg.edges:
            if edge.distance == 0:
                producers[edge.dst].append(edge.src)

        order = dfg._topo_order_zero_distance()
        for node_id in order:
            node = dfg.nodes[node_id]
            if node.fu_class is FuClass.NONE:
                continue  # constants fold into FU configuration
            candidates = self.fabric.cells_supporting(node.fu_class)
            if not candidates:
                raise MappingError(
                    f"no cell supports {node.fu_class.value} for "
                    f"node {node.name}")
            placed_producers = [placement[p] for p in producers[node_id]
                                if p in placement]

            def cost(cell) -> tuple[float, float]:
                pos = cell.position
                wire = sum(Fabric.manhattan(pos, p)
                           for p in placed_producers)
                crowd = cell_load.get(pos, 0)
                jitter = rng.random() * 0.01
                return (crowd * 2 + wire + jitter, wire)

            chosen = min(candidates, key=cost).position
            placement[node_id] = chosen
            cell_load[chosen] = cell_load.get(chosen, 0) + 1
        return placement

    def _route_all(self, dfg: Dfg, placement: dict[int, Coord],
                   state: _PlacementState,
                   ) -> dict[tuple[int, int, int], list[Coord]]:
        routes: dict[tuple[int, int, int], list[Coord]] = {}
        for index, edge in enumerate(dfg.edges):
            src = placement.get(edge.src)
            dst = placement.get(edge.dst)
            if src is None or dst is None:
                continue  # constant endpoints have no physical route
            path = self._route_one(src, dst, state)
            routes[(edge.src, edge.dst, index)] = path
            state.bump_links(path)
        return routes

    def _route_one(self, src: Coord, dst: Coord,
                   state: _PlacementState) -> list[Coord]:
        """Congestion-aware shortest path (Dijkstra on the mesh)."""
        if src == dst:
            return [src]
        dist: dict[Coord, float] = {src: 0.0}
        prev: dict[Coord, Coord] = {}
        heap: list[tuple[float, int, Coord]] = [(0.0, 0, src)]
        seq = 0
        while heap:
            cost, _tie, pos = heapq.heappop(heap)
            if pos == dst:
                break
            if cost > dist.get(pos, float("inf")):
                continue
            for nxt in self.fabric.neighbors(pos):
                congestion = state.link_use.get((pos, nxt), 0)
                cand = cost + 1.0 + congestion * 0.75
                if cand < dist.get(nxt, float("inf")):
                    dist[nxt] = cand
                    prev[nxt] = pos
                    seq += 1
                    heapq.heappush(heap, (cand, seq, nxt))
        if dst not in prev and src != dst:
            raise MappingError(f"no route from {src} to {dst}")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path


def _after_fork_in_child() -> None:
    """Give a forked child (a pool worker) a cache lock of its own.

    The child has only the thread that forked. Had another thread been
    inside the lock at the fork, the child's copy would be held by a
    thread that does not exist there, and its first mapping would wait
    forever; that thread may also have left the cache half updated, so
    the child then starts an empty one (a mapping is remade equal).
    Otherwise the child keeps the parent's warm cache.
    """
    if Mapper._cache_lock.locked():
        Mapper._cache = OrderedDict()
    Mapper._cache_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
