"""Recovery of inter-task read sharing through multicast.

Tasks annotate read-only inputs with ``ReadSpec(shared=True, region=...)``.
When several tasks — typically dispatched across different lanes — read the
same region, a conventional runtime issues one DRAM fetch *per task*. The
multicast manager recovers the sharing:

- Requests for a region are **coalesced** inside a short batching window
  (the hardware analogue: the dispatcher sees the shared-read annotations
  of the tasks it just placed).
- One DRAM fetch is issued and the payload rides a **multicast tree** to
  every requesting lane's scratchpad.
- The region stays **resident**, so later tasks on those lanes skip the
  fetch entirely and read at scratchpad bandwidth.

The counters tell the traffic story for figure F5: ``mcast.hits`` (region
already on-lane), ``mcast.coalesced`` (requests folded into one fetch),
``dram.read_bytes`` (what actually moved).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.arch.dram import Dram
from repro.arch.lane import Lane
from repro.arch.noc import MEM_NODE, Noc
from repro.arch.spad import CapacityError
from repro.sim import Environment
from repro.sim.faults import NULL_INJECTOR, FaultInjector
from repro.sim.sanitize import NULL_SANITIZER, Sanitizer
from repro.util.counters import Counters


class _Batch:
    """An in-flight coalescing window for one region."""

    def __init__(self, env: Environment, region: str) -> None:
        self.region = region
        self.lanes: set[int] = set()
        self.open = True
        self.done = env.event(name=f"mcast:{region}")


class MulticastManager:
    """Coalesces shared-region fetches and tracks scratchpad residency."""

    def __init__(self, env: Environment, counters: Counters, noc: Noc,
                 dram: Dram, lanes: list[Lane],
                 window_cycles: int = 16,
                 sanitizer: Optional[Sanitizer] = None,
                 injector: Optional[FaultInjector] = None) -> None:
        self.env = env
        self.counters = counters
        self.sanitizer = sanitizer or NULL_SANITIZER
        self.injector = injector or NULL_INJECTOR
        self.noc = noc
        self.dram = dram
        self.lanes = lanes
        self.window_cycles = window_cycles
        #: region -> set of lane ids currently holding it.
        self._resident: dict[str, set[int]] = {}
        #: region -> open batch collecting requesters.
        self._batches: dict[str, _Batch] = {}

    # -- queries -----------------------------------------------------------

    def is_resident(self, region: str, lane_id: int) -> bool:
        """Whether ``region`` is already in ``lane_id``'s scratchpad."""
        return lane_id in self._resident.get(region, ())

    def resident_lanes(self, region: str) -> set[int]:
        """Lanes currently holding the region."""
        return set(self._resident.get(region, ()))

    def invalidate(self, region: str, lane_id: int) -> None:
        """Drop residency tracking for a region on one lane (called when
        something else evicted it from that lane's scratchpad)."""
        holders = self._resident.get(region)
        if holders is not None:
            holders.discard(lane_id)

    # -- the mechanism -------------------------------------------------------

    def ensure(self, region: str, nbytes: int, locality: float,
               lane_id: int) -> Generator:
        """Make ``region`` resident on ``lane_id``; yields until it is.

        Requests arriving while a batch for the region is open join that
        batch and share its single fetch + multicast.
        """
        if self.is_resident(region, lane_id):
            self.counters.add("mcast.hits")
            self.sanitizer.shared_request(region, nbytes, lane_id, "hit",
                                          self.env.now)
            return
        batch = self._batches.get(region)
        if batch is not None and batch.open:
            batch.lanes.add(lane_id)
            self.counters.add("mcast.coalesced")
            self.sanitizer.shared_request(region, nbytes, lane_id,
                                          "coalesced", self.env.now)
            yield batch.done
            return
        batch = _Batch(self.env, region)
        batch.lanes.add(lane_id)
        self._batches[region] = batch
        self.counters.add("mcast.fetches")
        self.sanitizer.shared_request(region, nbytes, lane_id, "fetch",
                                      self.env.now)
        self.env.process(self._serve_batch(batch, nbytes, locality),
                         name=f"mcast:{region}")
        yield batch.done

    def _serve_batch(self, batch: _Batch, nbytes: int,
                     locality: float) -> Generator:
        # Collect joiners for a short window, then snapshot the group.
        if self.window_cycles:
            yield self.env.timeout(self.window_cycles)
        batch.open = False
        targets = sorted(batch.lanes)
        yield self.dram.fetch(nbytes, locality)
        yield self.noc.multicast(MEM_NODE, [f"lane{i}" for i in targets],
                                 nbytes)
        if self.injector.enabled:
            yield from self._refetch_dropped(batch, nbytes, locality,
                                             targets)
        landed = []
        for lane_id in targets:
            if self._try_allocate(lane_id, batch.region, nbytes):
                landed.append(lane_id)
        self._resident.setdefault(batch.region, set()).update(landed)
        if self._batches.get(batch.region) is batch:
            del self._batches[batch.region]
        self.counters.add("mcast.bytes_delivered", nbytes * len(targets))
        self.sanitizer.multicast_served(batch.region, nbytes, len(targets),
                                        self.env.now)
        batch.done.succeed()

    def _refetch_dropped(self, batch: _Batch, nbytes: int,
                         locality: float, targets: list[int]) -> Generator:
        """Sharing-set-driven refetch: the batch's lane set says exactly
        who needed the line, so lanes that missed the delivery get one
        re-fetch + re-send addressed to them alone.  A refetch is recovery
        traffic, not a new serve — it leaves ``mcast.fetches`` and the
        coalescing-batch balance untouched."""
        dropped = self.injector.mcast_dropped(targets)
        if not dropped:
            return
        self.counters.add("faults.injected", len(dropped))
        self.counters.add("faults.mcast_dropped", len(dropped))
        self.counters.add("recovery.refetches")
        self.counters.add("recovery.refetch_bytes", nbytes)
        self.sanitizer.multicast_refetch(batch.region, nbytes,
                                         len(dropped), self.env.now)
        yield self.dram.fetch(nbytes, locality)
        yield self.noc.multicast(MEM_NODE, [f"lane{i}" for i in dropped],
                                 nbytes)

    def _try_allocate(self, lane_id: int, region: str, nbytes: int) -> bool:
        """Pin the region in a lane's scratchpad, evicting LRU regions."""
        spad = self.lanes[lane_id].spad
        try:
            if spad.free_bytes < nbytes:
                evicted = spad.evict_lru_until(nbytes)
                for victim in evicted:
                    holders = self._resident.get(victim)
                    if holders is not None:
                        holders.discard(lane_id)
            spad.allocate(region, nbytes)
            return True
        except CapacityError:
            # Region larger than the scratchpad: it can still be multicast
            # to the fabric (streamed through), but cannot stay resident.
            self.counters.add("mcast.too_large")
            return False
