"""Banked scratchpad memory local to one lane.

The scratchpad serves stream-engine reads/writes. Transfers are striped
across banks at chunk granularity; each bank is a fixed-rate FIFO server,
so bank conflicts (two streams hammering the same bank) show up as queueing
delay rather than an assumed penalty factor.

The scratchpad also tracks *resident regions* — named data (e.g. a
multicast payload) currently held on-chip. Residency is what lets the
multicast mechanism skip redundant DRAM fetches: a task whose SharedRead
region is already resident reads it at scratchpad bandwidth.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import BandwidthServer, Environment, Event
from repro.sim.engine import SimulationError
from repro.util.counters import Counters


class CapacityError(RuntimeError):
    """A region does not fit in the scratchpad."""


class Scratchpad:
    """Banked SRAM with region residency tracking."""

    def __init__(self, env: Environment, counters: Counters, name: str,
                 capacity_bytes: int, banks: int,
                 bank_bytes_per_cycle: float) -> None:
        if capacity_bytes <= 0:
            raise SimulationError("scratchpad capacity must be positive")
        self.env = env
        self.counters = counters
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.banks = [
            BandwidthServer(env, bank_bytes_per_cycle,
                            name=f"{name}.bank{i}")
            for i in range(banks)
        ]
        self._read_key = f"{name}.read_bytes"
        self._write_key = f"{name}.write_bytes"
        self._regions: dict[str, int] = {}
        self._used = 0
        self._rr = 0  # round-robin bank pointer for striping

    # -- bandwidth ---------------------------------------------------------

    def access_then(self, nbytes: float, is_write: bool,
                    fn: Callable[[Any], None]) -> None:
        """Move ``nbytes`` through the banks (striped round-robin).

        Queues ``fn(None)`` as a call slot when the access completes. One
        call models one chunk; the stream engine issues chunks
        back-to-back so bank contention between concurrent streams is
        emergent.
        """
        bank = self.banks[self._rr]
        self._rr = (self._rr + 1) % len(self.banks)
        self.counters.add(self._write_key if is_write else self._read_key,
                          nbytes)
        bank.transfer_then(nbytes, fn)

    def access(self, nbytes: float, is_write: bool) -> Event:
        """:meth:`access_then` as an event."""
        done = Event(self.env, "spad.access")
        self.access_then(nbytes, is_write, done._fire)
        return done

    # -- residency ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated to resident regions."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Remaining capacity."""
        return self.capacity_bytes - self._used

    def is_resident(self, region: str) -> bool:
        """Whether a named region is currently held on-chip."""
        return region in self._regions

    def allocate(self, region: str, nbytes: int) -> None:
        """Pin a region; raises :class:`CapacityError` if it cannot fit.

        Allocating an already-resident region is a no-op (idempotent so a
        multicast landing twice — e.g. two task groups sharing a region —
        does not double-count).
        """
        if region in self._regions:
            return
        if nbytes > self.free_bytes:
            raise CapacityError(
                f"{self.name}: region {region!r} ({nbytes} B) exceeds free "
                f"space ({self.free_bytes} B of {self.capacity_bytes} B)")
        self._regions[region] = nbytes
        self._used += nbytes
        self.counters.set_max(f"{self.name}.peak_used_bytes", self._used)

    def release(self, region: str) -> None:
        """Unpin a region; unknown regions are ignored (already evicted)."""
        nbytes = self._regions.pop(region, None)
        if nbytes is not None:
            self._used -= nbytes

    def evict_lru_until(self, needed: int) -> list[str]:
        """Evict regions (insertion order ~ LRU) until ``needed`` bytes fit.

        Returns the evicted region names. Raises :class:`CapacityError` if
        even a fully empty scratchpad could not fit the request.
        """
        if needed > self.capacity_bytes:
            raise CapacityError(
                f"{self.name}: request of {needed} B exceeds total "
                f"capacity {self.capacity_bytes} B")
        evicted = []
        while self.free_bytes < needed and self._regions:
            region = next(iter(self._regions))
            self.release(region)
            evicted.append(region)
            self.counters.add(f"{self.name}.evictions")
        return evicted

    def resident_regions(self) -> list[str]:
        """Names of resident regions, oldest first."""
        return list(self._regions)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean bank busy fraction."""
        if not self.banks:
            return 0.0
        return sum(b.utilization(elapsed) for b in self.banks) / len(self.banks)
