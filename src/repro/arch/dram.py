"""Main-memory model: a shared bandwidth channel with a locality knob.

All lanes share one DRAM channel (the usual accelerator configuration at
this scale). A request's *effective* size is inflated by the row-locality
penalty: fully sequential streams (locality 1.0) move at peak bandwidth,
fully random gathers (locality 0.0) pay ``random_penalty``x. The channel is
a FIFO server, so cross-lane bandwidth contention is emergent.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import BandwidthServer, Environment, Event
from repro.sim.engine import SimulationError
from repro.sim.faults import NULL_INJECTOR, FaultInjector
from repro.util.counters import Counters

#: The byte and effective-byte counters of each request kind.
_READ_KEYS = ("dram.read_bytes", "dram.read_effective_bytes")
_WRITE_KEYS = ("dram.write_bytes", "dram.write_effective_bytes")


class Dram:
    """One shared memory channel."""

    def __init__(self, env: Environment, counters: Counters,
                 bytes_per_cycle: float, latency: float,
                 random_penalty: float,
                 injector: Optional[FaultInjector] = None) -> None:
        if random_penalty < 1.0:
            raise SimulationError(
                f"random_penalty must be >= 1, got {random_penalty}")
        self.env = env
        self.counters = counters
        self.injector = injector or NULL_INJECTOR
        self.channel = BandwidthServer(env, bytes_per_cycle, latency,
                                       name="dram")
        self.random_penalty = random_penalty

    def fetch_then(self, nbytes: float, locality: float,
                   fn: Callable[[Any], None]) -> None:
        """Read ``nbytes``; ``locality`` in [0, 1] scales the row penalty.
        Queues ``fn(None)`` as a call slot when the data is back."""
        self._request(nbytes, locality, _READ_KEYS, fn)

    def fetch(self, nbytes: float, locality: float = 1.0) -> Event:
        """:meth:`fetch_then` as an event."""
        done = Event(self.env, "dram.fetch")
        self.fetch_then(nbytes, locality, done._fire)
        return done

    def writeback_then(self, nbytes: float, locality: float,
                       fn: Callable[[Any], None]) -> None:
        """Write ``nbytes`` to memory; queues ``fn(None)`` when done."""
        self._request(nbytes, locality, _WRITE_KEYS, fn)

    def _request(self, nbytes: float, locality: float,
                 keys: tuple[str, str], fn: Callable[[Any], None]) -> None:
        if not 0.0 <= locality <= 1.0:
            raise SimulationError(f"locality must be in [0,1]: {locality}")
        if nbytes < 0:
            raise SimulationError(f"negative request size: {nbytes}")
        penalty = self.random_penalty - (self.random_penalty - 1.0) * locality
        effective = nbytes * penalty
        self.counters.add(keys[0], nbytes)
        self.counters.add(keys[1], effective)
        self.counters.add("dram.requests")
        if self.injector.enabled:
            spike = self.injector.dram_spike(self.env.now)
            if spike > 0.0:
                fn = self._spiked(fn, spike)
        self.channel.transfer_then(effective, fn)

    def _spiked(self, fn: Callable[[Any], None],
                spike: float) -> Callable[[Any], None]:
        """Delay one response by a spike; the requester simply waits —
        the watchdog bound lives in the injector (``dram-timeout``).

        The response takes three slots: the channel's delivery, a second
        ``spike`` cycles later, and ``fn``'s own slot queued from it.
        """
        self.counters.add("faults.injected")
        self.counters.add("faults.dram_spikes")
        self.counters.add("faults.dram_spike_cycles", spike)
        self.counters.add("recovery.absorbed_spike_cycles", spike)
        env = self.env

        def delayed(_arg: object) -> None:
            env._schedule_call(fn)

        def served(_arg: object) -> None:
            env._schedule_call_at(env.now + spike, delayed)

        return served

    @property
    def total_bytes(self) -> float:
        """Actual data bytes moved (without penalty inflation)."""
        return (self.counters.get("dram.read_bytes")
                + self.counters.get("dram.write_bytes"))

    def utilization(self) -> float:
        """Channel busy fraction so far."""
        return self.channel.utilization()
