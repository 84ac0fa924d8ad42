"""Shared-resource primitives: FIFO resources, bounded queues, bandwidth.

These are the contention points of the simulated machine. All waiting is
strictly FIFO so results are deterministic given a deterministic event
ordering (which :mod:`repro.sim.engine` guarantees via sequence numbers).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.engine import Environment, Event, SimulationError


class Resource:
    """A FIFO resource with integer capacity (e.g. stream-engine ports).

    A holder asks with a callback that runs, as a call slot, once a
    slot is granted, and gives the slot back with :meth:`release`::

        def granted(resource):
            env.timeout(10).add_callback(lambda _ev: resource.release())

        resource.acquire_then(granted)
    """

    def __init__(self, env: Environment, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1: {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Callable[[Any], None]] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of acquire requests waiting."""
        return len(self._waiters)

    def acquire_then(self, fn: Callable[[Any], None]) -> None:
        """Queue ``fn(self)`` as a call slot once a slot is granted."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            self.env._schedule_call(fn, self)
        else:
            self._waiters.append(fn)

    def release(self) -> None:
        """Release one held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._waiters:
            # The slot transfers directly to the oldest waiter.
            self.env._schedule_call(self._waiters.popleft(), self)
        else:
            self._in_use -= 1


class Store:
    """A bounded FIFO queue with blocking put/get — the pipelined-stream
    backbone.

    A producer task pushing chunks into a full Store blocks (backpressure);
    a consumer popping from an empty Store blocks. Capacity is in abstract
    items (the stream layer uses one item per chunk).

    A Store can be *closed* by the producer; after the queued items drain,
    pending and future ``get`` calls receive :data:`Store.END`.
    """

    END = object()

    def __init__(self, env: Environment, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1: {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._putters: deque[tuple[Callable[[Any], None], Any]] = deque()
        self._getters: deque[Callable[[Any], None]] = deque()
        self._closed = False
        self.total_put = 0

    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    @property
    def closed(self) -> bool:
        """True once the producer has closed the stream."""
        return self._closed

    def put_then(self, item: Any, fn: Callable[[Any], None]) -> None:
        """Enqueue ``item``; queue ``fn(None)`` as a call slot once it is
        in. A consumer it hands the item to is queued first."""
        if self._closed:
            raise SimulationError(f"put() on closed store {self.name!r}")
        schedule = self.env._schedule_call
        if self._getters:
            # Hand the item straight to the oldest waiting consumer.
            schedule(self._getters.popleft(), item)
            self.total_put += 1
            schedule(fn)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            self.total_put += 1
            schedule(fn)
        else:
            self._putters.append((fn, item))

    def put(self, item: Any) -> Event:
        """Return an event that fires when ``item`` has been enqueued."""
        done = Event(self.env, f"put:{self.name}")
        self.put_then(item, done._fire)
        return done

    def get_then(self, fn: Callable[[Any], None]) -> None:
        """Queue ``fn(item)`` as a call slot with the next item (or END)."""
        if self._items:
            self.env._schedule_call(fn, self._items.popleft())
            self._admit_waiting_putter()
        elif self._closed and not self._putters:
            self.env._schedule_call(fn, Store.END)
        else:
            self._getters.append(fn)

    def get(self) -> Event:
        """Return an event that fires with the next item (or END)."""
        got = Event(self.env, f"get:{self.name}")
        self.get_then(got._fire)
        return got

    def peek(self) -> Any:
        """The oldest buffered item without removing it (None if empty).

        Used by schedulers that inspect queue heads (e.g. prefetching the
        next task's inputs) without consuming the entry.
        """
        return self._items[0] if self._items else None

    def pop_newest(self) -> Any:
        """Remove and return the *newest* buffered item.

        The work-stealing path takes from the tail (the classic deque
        discipline: thieves steal the coldest work). Raises
        :class:`SimulationError` when nothing is buffered. Any waiting
        putter is admitted into the freed slot.
        """
        if not self._items:
            raise SimulationError(f"pop_newest() on empty store {self.name!r}")
        item = self._items.pop()
        self._admit_waiting_putter()
        return item

    def close(self) -> None:
        """Close the stream; drained getters receive END."""
        if self._closed:
            return
        self._closed = True
        # Only wake getters if nothing remains to deliver.
        if not self._items and not self._putters:
            self._end_getters()

    def _admit_waiting_putter(self) -> None:
        if self._putters:
            fn, item = self._putters.popleft()
            self._items.append(item)
            self.total_put += 1
            self.env._schedule_call(fn)
        elif self._closed and not self._items:
            self._end_getters()

    def _end_getters(self) -> None:
        while self._getters:
            self.env._schedule_call(self._getters.popleft(), Store.END)


class BandwidthServer:
    """A FIFO serialization server modeling a fixed-rate channel.

    Models links and DRAM channels: a transfer of ``nbytes`` occupies the
    channel for ``nbytes / bytes_per_cycle`` cycles, transfers are served
    in arrival order, and each completed transfer additionally experiences
    a fixed pipe ``latency``. This is the standard "rate + latency" channel
    abstraction; queueing delay under contention is emergent.

    The implementation is O(1) per transfer: we track when the channel next
    becomes free instead of simulating per-cycle occupancy.
    """

    def __init__(self, env: Environment, bytes_per_cycle: float,
                 latency: float = 0.0, name: str = "") -> None:
        if bytes_per_cycle <= 0:
            raise SimulationError(
                f"bytes_per_cycle must be positive: {bytes_per_cycle}")
        if latency < 0:
            raise SimulationError(f"latency must be non-negative: {latency}")
        self.env = env
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.name = name
        self._next_free = 0.0
        self.total_bytes = 0
        self.total_transfers = 0
        self._busy_cycles = 0.0

    def transfer_then(self, nbytes: float,
                      fn: Callable[[Any], None]) -> None:
        """Book ``nbytes`` and queue ``fn(None)`` as a call slot at their
        delivery. The slot sits at ``now + (delivery - now)``, the time a
        timeout of that delay would fire at, which float rounding can
        move off the delivery time itself."""
        now = self.env.now
        self.env._schedule_call_at(now + (self.reserve(nbytes) - now), fn)

    def reserve(self, nbytes: float) -> float:
        """Book a transfer and return its absolute delivery time.

        The channel bookkeeping of :meth:`transfer_then`, without queueing
        anything. The NoC books every link of a message this way and
        queues one delivery chain for the whole message
        (:meth:`repro.arch.noc.Noc.unicast_then`).
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        start = self._next_free
        now = self.env.now
        if now > start:
            start = now
        service = nbytes / self.bytes_per_cycle
        finish = start + service
        self._next_free = finish
        self._busy_cycles += service
        self.total_bytes += nbytes
        self.total_transfers += 1
        return finish + self.latency

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time busy over ``elapsed`` (default: env.now)."""
        horizon = self.env.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_cycles / horizon)

    @property
    def backlog_cycles(self) -> float:
        """Cycles until the channel would go idle if no more work arrives."""
        return max(0.0, self._next_free - self.env.now)
