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
from repro.sim import Environment, Event, Store, UtilizationTracker
from repro.sim.sanitize import NULL_SANITIZER, Sanitizer
from repro.util.counters import Counters


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
                     out_stores: Optional[list[Store]] = None) -> Event:
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
        cycles, not input stalls. The returned event fires when the last
        step is done.

        A callback chain, not a process: each stage runs in the slot of
        the event it awaits, and the chain starts from a call slot of its
        own at the current time and fires its event in a slot of its own,
        where a process would start and finish.
        """
        env = self.env
        complete = Event(env, "run_pipeline")
        in_streams = in_streams or []
        out_stores = out_stores or []
        if trips <= 0:
            def close_only(_arg: object) -> None:
                for store in out_stores:
                    store.close()
                complete.succeed()

            env._schedule_call(close_only, complete)
            return complete
        chunk_elems = max(
            1, self.config.stream_chunk_bytes // self.element_bytes)
        steps = -(-trips // chunk_elems)  # ceil
        consumed = [0] * len(in_streams)
        live = [total > 0 for _store, total in in_streams]
        step = done_trips = step_trips = 0  # step: steps begun so far
        idx = 0  # the input stream, then the output store, being served

        def busy(cycles: int) -> None:
            self.tracker.busy(cycles)
            self.sanitizer.lane_busy(self.lane_id, cycles, env.now)

        def gather() -> None:
            # Take this step's share of every live input stream, one token
            # per get, then run the step's trips.
            nonlocal idx
            while idx < len(in_streams):
                if live[idx]:
                    store, total = in_streams[idx]
                    target = min(total, -(-step * total // steps))
                    if consumed[idx] < target:
                        store.get_then(on_token)
                        return
                idx += 1
            env._schedule_call_at(env.now + mapping.ii * step_trips,
                                  after_step)

        def on_token(token: object) -> None:
            nonlocal idx
            if token is Store.END:
                # Producer finished early (e.g. filtered stream);
                # remaining trips run on data already resident.
                live[idx] = False
                idx += 1
            else:
                consumed[idx] += 1
            gather()

        def after_step(_arg: object) -> None:
            nonlocal done_trips, idx
            busy(mapping.ii * step_trips)
            done_trips += step_trips
            idx = 0
            emit(None)

        def emit(_arg: object) -> None:
            nonlocal idx
            if idx < len(out_stores):
                idx += 1
                out_stores[idx - 1].put_then(step_trips, emit)
            else:
                next_step()

        def next_step() -> None:
            nonlocal step, step_trips, idx, gather, emit
            if step == steps:
                # Unlink the chain's cycles (gather <-> on_token, emit ->
                # emit), so reference counting frees it.
                gather = emit = None
                self.counters.add(self._trips_key, trips)
                for store in out_stores:
                    store.close()
                complete.succeed()
                return
            step_trips = min(chunk_elems, trips - done_trips)
            step += 1
            idx = 0
            gather()

        def after_fill(_arg: object) -> None:
            busy(mapping.depth)
            next_step()

        def fill(_arg: object) -> None:
            # Pipeline fill: depth cycles before the first result emerges.
            env._schedule_call_at(env.now + mapping.depth, after_fill)

        env._schedule_call(fill, complete)
        return complete

    # -- reporting ---------------------------------------------------------

    @property
    def busy_cycles(self) -> float:
        """Total fabric-busy cycles so far."""
        return self.tracker.busy_cycles

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fabric busy fraction."""
        return self.tracker.utilization(elapsed)
