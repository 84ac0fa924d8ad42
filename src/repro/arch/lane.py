"""One accelerator lane: CGRA fabric + scratchpad + stream engines.

The lane owns the pieces a task touches while executing: the configuration
cache (reconfiguring the fabric costs cycles on a miss), the scratchpad,
the stream engines, and a busy-time tracker used by the load-imbalance
metrics.

The lane is execution-model agnostic — both the Delta runtime and the
static-parallel baseline drive lanes through the same interface, which is
what makes the comparison "equivalent" in the paper's sense.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from repro.arch.config import LaneConfig
from repro.arch.dfg import Dfg
from repro.arch.dram import Dram
from repro.arch.mapper import Mapper, Mapping
from repro.arch.noc import Noc
from repro.arch.spad import Scratchpad
from repro.arch.stream_engine import StreamEngine
from repro.sim import Counters, Environment, Store, UtilizationTracker
from repro.sim.sanitize import NULL_SANITIZER, Sanitizer


class Lane:
    """A single lane of the accelerator."""

    def __init__(self, env: Environment, counters: Counters, lane_id: int,
                 config: LaneConfig, noc: Noc, dram: Dram,
                 mapper: Mapper, element_bytes: int = 4,
                 sanitizer: Optional[Sanitizer] = None) -> None:
        self.env = env
        self.counters = counters
        self.sanitizer = sanitizer or NULL_SANITIZER
        self.lane_id = lane_id
        self.config = config
        self.element_bytes = element_bytes
        self.name = f"lane{lane_id}"
        self.noc = noc
        self.dram = dram
        self.mapper = mapper
        self.spad = Scratchpad(
            env, counters, f"{self.name}.spad", config.spad_bytes,
            config.spad_banks, config.spad_bank_bytes_per_cycle)
        self.streams = StreamEngine(
            env, counters, self.name, noc, dram, self.spad,
            config.stream_chunk_bytes)
        self.tracker = UtilizationTracker(env, counters, self.name)
        self._config_cache: OrderedDict[tuple, Mapping] = OrderedDict()
        self._trips_key = f"{self.name}.trips"
        self._hits_key = f"{self.name}.config_hits"
        self._misses_key = f"{self.name}.config_misses"
        self._config_cycles_key = f"{self.name}.config_cycles"

    # -- configuration -----------------------------------------------------

    def configure(self, dfg: Dfg) -> Generator:
        """Ensure the fabric is configured for ``dfg``; yields config time.

        A small on-lane configuration cache holds recently used bitstreams;
        hits are free, misses cost ``config_cycles`` (fetching and loading
        the configuration). Returns the mapping.
        """
        key = dfg.signature()
        cached = self._config_cache.get(key)
        if cached is not None:
            self._config_cache.move_to_end(key)
            self.counters.add(self._hits_key)
            return cached
        mapping = self.mapper.map(dfg)
        if self.config.config_cycles:
            yield self.env.timeout(self.config.config_cycles)
        self.counters.add(self._misses_key)
        self.counters.add(self._config_cycles_key,
                          self.config.config_cycles)
        self._config_cache[key] = mapping
        while len(self._config_cache) > self.config.config_cache_entries:
            self._config_cache.popitem(last=False)
        return mapping

    def configured_for(self, dfg: Dfg) -> bool:
        """True if the lane already holds this DFG's configuration."""
        return dfg.signature() in self._config_cache

    # -- compute -----------------------------------------------------------

    def run_pipeline(self, mapping: Mapping, trips: int,
                     in_streams: Optional[list[tuple[Store, int]]] = None,
                     out_stores: Optional[list[Store]] = None,
                     ) -> Generator:
        """Execute the configured pipeline for ``trips`` loop iterations.

        ``in_streams`` pairs each input store with its expected total chunk
        count. The compute consumes tokens *proportionally*: by the time a
        fraction f of the trips has executed, a fraction f of each input
        stream must have arrived. This paces long streams one token per
        step while a short stream (e.g. a one-chunk boundary row from a
        neighbouring task) gates only the step it logically feeds — not the
        whole pipeline.

        Each step advances the clock by ``II * step_trips`` cycles and
        emits one token per output store, and every output store is
        closed at the end. Busy time accrues only for fabric-active
        cycles, not input stalls.
        """
        in_streams = in_streams or []
        out_stores = out_stores or []
        if trips <= 0:
            for store in out_stores:
                store.close()
            return
        chunk_elems = max(
            1, self.config.stream_chunk_bytes // self.element_bytes)
        steps = -(-trips // chunk_elems)  # ceil
        consumed = [0] * len(in_streams)
        live = [total > 0 for _store, total in in_streams]
        done_trips = 0
        # Pipeline fill: depth cycles before the first result emerges.
        yield self.env.timeout(mapping.depth)
        self.tracker.busy(mapping.depth)
        self.sanitizer.lane_busy(self.lane_id, mapping.depth, self.env.now)
        for step in range(steps):
            step_trips = min(chunk_elems, trips - done_trips)
            for idx, (store, total) in enumerate(in_streams):
                if not live[idx]:
                    continue
                target = min(total, -(-(step + 1) * total // steps))
                while consumed[idx] < target:
                    token = yield store.get()
                    if token is Store.END:
                        # Producer finished early (e.g. filtered stream);
                        # remaining trips run on data already resident.
                        live[idx] = False
                        break
                    consumed[idx] += 1
            active = mapping.ii * step_trips
            yield self.env.timeout(active)
            self.tracker.busy(active)
            self.sanitizer.lane_busy(self.lane_id, active, self.env.now)
            done_trips += step_trips
            for store in out_stores:
                yield store.put(step_trips)
        self.counters.add(self._trips_key, trips)
        for store in out_stores:
            store.close()

    # -- reporting ---------------------------------------------------------

    @property
    def busy_cycles(self) -> float:
        """Total fabric-busy cycles so far."""
        return self.tracker.busy_cycles

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fabric busy fraction."""
        return self.tracker.utilization(elapsed)
