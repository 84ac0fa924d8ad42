"""Stream engines: the data movers between DRAM, NoC, scratchpad and fabric.

A *stream* is a bulk transfer broken into chunks. Chunks flow through the
stage pipeline (DRAM channel -> NoC links -> scratchpad banks), and each
stage is a FIFO bandwidth server, so the stream's steady-state rate is set
by the slowest stage while other streams contend naturally.

Pipelining is modeled by decoupling issue from delivery: the pump waits
for the DRAM stage of chunk *k*, then hands the downstream stages to a
detached delivery chain and immediately issues chunk *k+1*. In-flight
chunks are bounded by a credit :class:`~repro.sim.Resource`, so downstream
backpressure (a slow consumer of ``dest_store``) throttles DRAM issue —
exactly the behaviour hardware credit-based streams have.

``stream_in``, ``read_resident`` and ``stream_out`` are callback chains,
not generator processes, and they run on the callback forms of the
datapath operations (``Resource.acquire_then``, ``Dram.fetch_then``,
``Noc.unicast_then``, ``Scratchpad.access_then``, ``Store.put_then``,
…), which queue each continuation as a bare call slot and make no
``Event``. The event forms (``fetch()``, ``put()``, …) are adapters over
them, kept for the runtimes' generator processes. The ordering rule is
the one a process obeys: each stage runs inside the scheduling slot of
the event it awaits, and each chain starts from a call slot of its own at
the current time, where a freshly started process would take its first
step. So every stage lands in a fixed queue position among the other
events of its cycle, which ``tests/test_slot_order.py`` and the slot
counts of ``tests/golden_pins.json`` pin.

A chain's continuations name each other, so while it runs they form a
reference cycle. Its last step unlinks the cycle by setting one of the
names to ``None``; a finished stream is then freed by reference counting
as soon as nothing holds its event, not by a later garbage collection
(``tests/test_cyclic_garbage.py`` pins what one point leaves).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.arch.dram import Dram
from repro.arch.noc import MEM_NODE, Noc
from repro.arch.spad import Scratchpad
from repro.sim import Environment, Event, Resource, Store
from repro.util.counters import Counters

#: In-flight chunk credits per inbound stream.
MAX_INFLIGHT_CHUNKS = 4


class StreamEngine:
    """All stream data movement for one lane."""

    def __init__(self, env: Environment, counters: Counters, lane_name: str,
                 noc: Noc, dram: Dram, spad: Scratchpad,
                 chunk_bytes: int) -> None:
        self.env = env
        self.counters = counters
        self.lane_name = lane_name
        self.noc = noc
        self.dram = dram
        self.spad = spad
        self.chunk_bytes = chunk_bytes
        self._in_key = f"{lane_name}.stream_in_bytes"
        self._resident_key = f"{lane_name}.resident_read_bytes"
        self._out_key = f"{lane_name}.stream_out_bytes"
        self._credits_name = f"{lane_name}.in_credits"

    # -- helpers -----------------------------------------------------------

    def chunks_of(self, nbytes: float) -> list[int]:
        """Split a transfer into chunk sizes (last chunk may be short)."""
        if nbytes <= 0:
            return []
        full = int(nbytes // self.chunk_bytes)
        sizes = [self.chunk_bytes] * full
        rem = int(nbytes - full * self.chunk_bytes)
        if rem:
            sizes.append(rem)
        return sizes

    def chunk_count(self, nbytes: float) -> int:
        """Number of chunks for a transfer of ``nbytes``."""
        return max(0, math.ceil(nbytes / self.chunk_bytes)) if nbytes > 0 else 0

    # -- memory -> lane ----------------------------------------------------

    def stream_in(self, nbytes: float, locality: float = 1.0,
                  dest_store: Optional[Store] = None,
                  close_dest: bool = False) -> Event:
        """Stream ``nbytes`` from DRAM into this lane's scratchpad.

        If ``dest_store`` is given, a token is put per delivered chunk so
        the lane's compute pipeline can consume data as it arrives. The
        returned event fires when the final chunk has landed.

        Per chunk: take an in-flight credit, fetch from DRAM, then hand
        the chunk to :meth:`_deliver_chunk` and issue the next one. Each
        stage runs in the slot of the event it awaits.
        """
        env = self.env
        complete = Event(env, "stream_in")
        credits = Resource(env, MAX_INFLIGHT_CHUNKS,
                           name=self._credits_name)
        sizes = self.chunks_of(nbytes)
        tails: list[Event] = []
        idx = [0]

        def final(_ev: object) -> None:
            self.counters.add(self._in_key, nbytes)
            if dest_store is not None and close_dest:
                dest_store.close()
            complete.succeed()

        def after_fetch(_arg: object) -> None:
            tails.append(self._deliver_chunk(
                sizes[idx[0]], dest_store, credits))
            idx[0] += 1
            next_chunk(None)

        def after_grant(_arg: object) -> None:
            self.dram.fetch_then(sizes[idx[0]], locality, after_fetch)

        def next_chunk(_arg: object) -> None:
            nonlocal after_grant
            if idx[0] == len(sizes):
                after_grant = None  # unlink the chain: see the module doc
                env.all_of(tails).add_callback(final)
            else:
                credits.acquire_then(after_grant)

        env._schedule_call(next_chunk, complete)
        return complete

    def _deliver_chunk(self, size: int, dest_store: Optional[Store],
                       credits: Resource) -> Event:
        """Move one fetched chunk on: NoC from memory to this lane, a
        scratchpad write, a token into ``dest_store``, then return the
        credit. Starts from its own call slot, like a spawned process."""
        env = self.env
        complete = Event(env, "deliver_chunk")

        def finish(_arg: object) -> None:
            credits.release()
            complete.succeed()

        def after_spad(_arg: object) -> None:
            if dest_store is not None:
                dest_store.put_then(size, finish)
            else:
                finish(None)

        def after_noc(_arg: object) -> None:
            self.spad.access_then(size, True, after_spad)

        def start(_arg: object) -> None:
            self.noc.unicast_then(MEM_NODE, self.lane_name, size, after_noc)

        env._schedule_call(start, complete)
        return complete

    # -- resident scratchpad data -> fabric --------------------------------

    def read_resident(self, nbytes: float,
                      dest_store: Optional[Store] = None,
                      close_dest: bool = False) -> Event:
        """Feed on-chip (multicast-resident) data to the fabric.

        No DRAM or NoC traffic — only scratchpad bank reads, one chunk at
        a time, each followed by its token into ``dest_store``. This is
        the payoff of read-sharing recovery. Each stage runs in the slot
        of the event it awaits.
        """
        env = self.env
        complete = Event(env, "read_resident")
        sizes = self.chunks_of(nbytes)
        idx = [0]

        def final() -> None:
            self.counters.add(self._resident_key, nbytes)
            if dest_store is not None and close_dest:
                dest_store.close()
            complete.succeed()

        def after_put(_arg: object) -> None:
            idx[0] += 1
            step(None)

        def after_access(_arg: object) -> None:
            if dest_store is not None:
                dest_store.put_then(sizes[idx[0]], after_put)
            else:
                after_put(None)

        def step(_arg: object) -> None:
            nonlocal after_access
            if idx[0] == len(sizes):
                after_access = None  # unlink the chain
                final()
            else:
                self.spad.access_then(sizes[idx[0]], False, after_access)

        env._schedule_call(step, complete)
        return complete

    # -- lane -> memory ----------------------------------------------------

    def stream_out(self, nbytes: float, locality: float = 1.0,
                   src_store: Optional[Store] = None) -> Event:
        """Stream ``nbytes`` of results back to DRAM.

        With ``src_store``, chunks are drained as compute produces them
        (tokens put by the lane's compute pipeline); otherwise the whole
        transfer is issued immediately (end-of-task writeback). Each chunk
        is a scratchpad read, a NoC message to memory and a DRAM
        writeback, in that order, and the next chunk starts when its
        writeback is done.
        Each stage runs in the slot of the event it awaits.
        """
        env = self.env
        complete = Event(env, "stream_out")
        remaining = [float(nbytes)]

        def writeback(size: float, then) -> None:
            def after_noc(_arg: object) -> None:
                self.dram.writeback_then(size, locality, then)

            def after_spad(_arg: object) -> None:
                self.noc.unicast_then(self.lane_name, MEM_NODE, size,
                                      after_noc)

            self.spad.access_then(size, False, after_spad)

        def final() -> None:
            self.counters.add(self._out_key, nbytes)
            complete.succeed()

        if src_store is None:
            sizes = self.chunks_of(nbytes)
            idx = [0]

            def step(_arg: object) -> None:
                nonlocal step
                if idx[0] == len(sizes):
                    step = None  # unlink the chain
                    final()
                else:
                    def done(_arg: object) -> None:
                        idx[0] += 1
                        step(None)

                    writeback(sizes[idx[0]], done)

            env._schedule_call(step, complete)
            return complete

        # Consume *every* compute token (or the producer would block on a
        # full store), writing back at most ``nbytes`` total; any bytes
        # left after the stream closes go out as a trailing burst.
        def trailing(_arg: object) -> None:
            nonlocal trailing
            if remaining[0] > 0:
                size = min(self.chunk_bytes, remaining[0])

                def done(_arg: object) -> None:
                    remaining[0] -= size
                    trailing(None)

                writeback(size, done)
            else:
                trailing = None  # unlink the chain
                final()

        def on_token(token: object) -> None:
            nonlocal get_next
            if token is Store.END:
                get_next = None  # unlink the chain
                trailing(None)
                return
            size = min(self.chunk_bytes, remaining[0])
            if size > 0:
                def done(_arg: object) -> None:
                    remaining[0] -= size
                    get_next(None)

                writeback(size, done)
            else:
                get_next(None)

        def get_next(_arg: object) -> None:
            src_store.get_then(on_token)

        env._schedule_call(get_next, complete)
        return complete
