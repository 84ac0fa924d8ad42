"""Mesh network-on-chip joining lanes, memory controller, and dispatcher.

Topology: the N lanes sit on a ``ceil(sqrt(N+2))``-wide 2D mesh together
with two special nodes — the memory controller (``MEM``) and the task
dispatcher (``DISP``). Every directed link between neighbouring mesh nodes
is an independent fixed-rate server.

Messages are wormhole-approximated at message granularity: a message
reserves each link along its XY route in order, paying serialization on
every link plus per-hop latency. That is pessimistic for very long
messages (no virtual-channel overlap across links) but the stream layer
sends chunk-sized messages, which keeps the approximation tight.

**Multicast** is the NoC feature TaskStream's read-sharing recovery relies
on: ``multicast`` charges each link of the destination *tree* once, instead
of once per destination as repeated unicasts would.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Sequence

from repro.sim import BandwidthServer, Environment, Event
from repro.sim.engine import SimulationError
from repro.sim.faults import NULL_INJECTOR, FaultInjector
from repro.sim.sanitize import NULL_SANITIZER, Sanitizer
from repro.util.counters import Counters

Coord = tuple[int, int]

MEM_NODE = "MEM"
DISP_NODE = "DISP"


class Noc:
    """The mesh interconnect."""

    def __init__(self, env: Environment, counters: Counters, lanes: int,
                 link_bytes_per_cycle: float, hop_latency: float,
                 header_bytes: int, multicast_enabled: bool,
                 sanitizer: Optional[Sanitizer] = None,
                 injector: Optional[FaultInjector] = None) -> None:
        if lanes < 1:
            raise SimulationError("NoC needs at least one lane")
        self.env = env
        self.counters = counters
        self.sanitizer = sanitizer or NULL_SANITIZER
        self.injector = injector or NULL_INJECTOR
        self.hop_latency = hop_latency
        self.header_bytes = header_bytes
        self.multicast_enabled = multicast_enabled

        side = max(2, math.ceil(math.sqrt(lanes + 2)))
        self.side = side
        # Node placement: MEM at top-left, DISP next to it, lanes after.
        coords: dict[str, Coord] = {MEM_NODE: (0, 0), DISP_NODE: (0, 1)}
        positions = [(r, c) for r in range(side) for c in range(side)]
        free = [p for p in positions if p not in ((0, 0), (0, 1))]
        for lane_id in range(lanes):
            coords[f"lane{lane_id}"] = free[lane_id]
        self.coords = coords

        self._links: dict[tuple[Coord, Coord], BandwidthServer] = {}
        for r in range(side):
            for c in range(side):
                for dr, dc in ((0, 1), (1, 0)):
                    a, b = (r, c), (r + dr, c + dc)
                    if b[0] < side and b[1] < side:
                        self._links[(a, b)] = BandwidthServer(
                            env, link_bytes_per_cycle,
                            name=f"noc.link{a}-{b}")
                        self._links[(b, a)] = BandwidthServer(
                            env, link_bytes_per_cycle,
                            name=f"noc.link{b}-{a}")
        # Route memoization: XY routing is deterministic and the topology
        # is fixed at construction, so the link list for any endpoint pair
        # (and any multicast destination set) never changes.
        self._route_cache: dict[tuple[str, str],
                                tuple[list[BandwidthServer], int]] = {}
        self._tree_cache: dict[tuple[str, tuple[str, ...]],
                               tuple[list[BandwidthServer], int]] = {}

    # -- routing -----------------------------------------------------------

    def node_coord(self, node: str) -> Coord:
        """Mesh coordinate of a named endpoint (``lane3``, ``MEM``, ...)."""
        try:
            return self.coords[node]
        except KeyError:
            raise SimulationError(f"unknown NoC node {node!r}") from None

    def route(self, src: str, dst: str) -> list[Coord]:
        """Deterministic XY route (X first, then Y) between two nodes."""
        a, b = self.node_coord(src), self.node_coord(dst)
        path = [a]
        r, c = a
        while c != b[1]:
            c += 1 if b[1] > c else -1
            path.append((r, c))
        while r != b[0]:
            r += 1 if b[0] > r else -1
            path.append((r, c))
        return path

    def hops(self, src: str, dst: str) -> int:
        """Number of links on the route."""
        return len(self.route(src, dst)) - 1

    def _route_links(self, src: str,
                     dst: str) -> tuple[list[BandwidthServer], int]:
        """Memoized (link servers, hop count) for an endpoint pair."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            path = self.route(src, dst)
            servers = [self._links[link] for link in zip(path, path[1:])]
            cached = (servers, len(path) - 1)
            self._route_cache[key] = cached
        return cached

    def _tree_links(self, src: str, dsts: tuple[str, ...],
                    ) -> tuple[list[BandwidthServer], int]:
        """Memoized (union-of-routes tree links, max hops) for a fan-out."""
        key = (src, dsts)
        cached = self._tree_cache.get(key)
        if cached is None:
            tree: list[BandwidthServer] = []
            seen: set[tuple[Coord, Coord]] = set()
            max_hops = 0
            for dst in dsts:
                path = self.route(src, dst)
                max_hops = max(max_hops, len(path) - 1)
                for link in zip(path, path[1:]):
                    if link not in seen:
                        seen.add(link)
                        tree.append(self._links[link])
            cached = (tree, max_hops)
            self._tree_cache[key] = cached
        return cached

    # -- transfers ---------------------------------------------------------

    def unicast_then(self, src: str, dst: str, nbytes: float,
                     fn: Callable[[Any], None]) -> None:
        """Send one message; queues ``fn(None)`` as a call slot on
        delivery.

        Every link on the route is booked at once, in route order, with
        :meth:`~repro.sim.BandwidthServer.reserve`; delivery then follows
        the fixed slot chain of :meth:`_deliver`. A message that crosses
        no link is delivered in one slot at the current time.
        """
        servers, hops = self._route_links(src, dst)
        if hops == 0:
            self.env._schedule_call(fn)
            return
        payload = nbytes + self.header_bytes
        counters = self.counters
        finish = self.env.now
        for _ in range(1 + self._drops("unicast")):
            for server in servers:
                counters.add("noc.bytes", payload)
                booked = server.reserve(payload)
                if booked > finish:
                    finish = booked
            counters.add("noc.messages")
            self.sanitizer.noc_message("unicast", payload, self.env.now)
        self._deliver(finish, self.hop_latency * hops, fn)

    def unicast(self, src: str, dst: str, nbytes: float) -> Event:
        """:meth:`unicast_then` as an event."""
        done = Event(self.env, "unicast-delivery")
        self.unicast_then(src, dst, nbytes, done._fire)
        return done

    def multicast_then(self, src: str, dsts: Sequence[str], nbytes: float,
                       fn: Callable[[Any], None]) -> None:
        """Send one payload to many destinations; queues ``fn`` as a call
        slot once every destination has it.

        With multicast hardware, the payload traverses each link of the
        union-of-routes tree exactly once. Without it, falls back to
        repeated unicasts (and the counters show the difference), joined
        like :meth:`~repro.sim.Environment.all_of` joins their events:
        ``fn`` gets one ``None`` per destination, in a slot of its own
        queued when the last one arrives. The tree's links are booked and
        delivered like :meth:`unicast_then`'s route, with the per-hop
        latency of the farthest leaf.
        """
        dsts = list(dict.fromkeys(dsts))  # dedupe, keep order
        if not dsts:
            raise SimulationError("multicast with no destinations")
        if len(dsts) == 1 or not self.multicast_enabled:
            pending = [len(dsts)]

            def arrived(_arg: object) -> None:
                pending[0] -= 1
                if pending[0] == 0:
                    self.env._schedule_call(fn, [None] * len(dsts))

            for dst in dsts:
                self.unicast_then(src, dst, nbytes, arrived)
            return

        tree, max_hops = self._tree_links(src, tuple(dsts))
        payload = nbytes + self.header_bytes
        counters = self.counters
        finish = self.env.now
        for _ in range(1 + self._drops("multicast")):
            for server in tree:
                counters.add("noc.bytes", payload)
                counters.add("noc.multicast_link_bytes", payload)
                booked = server.reserve(payload)
                if booked > finish:
                    finish = booked
            counters.add("noc.multicasts")
            self.sanitizer.noc_message("multicast", payload, self.env.now)
        self._deliver(finish, self.hop_latency * max_hops, fn)

    def multicast(self, src: str, dsts: Sequence[str],
                  nbytes: float) -> Event:
        """:meth:`multicast_then` as an event."""
        done = Event(self.env, "multicast-delivery")
        self.multicast_then(src, dsts, nbytes, done._fire)
        return done

    def _drops(self, kind: str) -> int:
        """Link-level packet loss: how many times the next message is
        dropped (0 on the fault-free path).  Every drop costs a full
        retransmission — links are re-charged, counters and the sanitizer
        see each send — and the loss burst is bounded by the plan's retry
        budget (:class:`~repro.sim.faults.UnrecoverableFault` beyond it).
        """
        if not self.injector.enabled:
            return 0
        drops = self.injector.noc_drops(kind, self.env.now)
        if drops:
            self.counters.add("faults.injected", drops)
            self.counters.add("faults.noc_dropped", drops)
            self.counters.add("recovery.noc_retransmits", drops)
            self.sanitizer.noc_retransmit(kind, drops, self.env.now)
        return drops

    def _deliver(self, finish: float, tail_delay: float,
                 fn: Callable[[Any], None]) -> None:
        """Deliver a message whose links are booked.

        The message clears its last link at ``finish`` and arrives
        ``tail_delay`` (the per-hop latency) later. ``fn`` runs in the
        fourth of four chained call slots: one at ``finish``, a second
        queued behind it at the same time, a third ``tail_delay`` later,
        and ``fn``'s own queued from the third. Those are the slots of the
        last link's transfer event, the join over all link transfers, the
        hop-latency timeout and the delivery event, each stage running in
        the slot of the event it awaits. They fix where a delivery falls
        among other same-cycle events, so they are part of the frozen
        fingerprints (``tests/golden_fingerprints.json``).
        """
        env = self.env

        def slot_hop(_arg: object) -> None:
            env._schedule_call(fn)

        def slot_tail(_arg: object) -> None:
            env._schedule_call_at(env.now + tail_delay, slot_hop)

        def slot_last_link(_arg: object) -> None:
            env._schedule_call_at(env.now, slot_tail)

        env._schedule_call_at(finish, slot_last_link)
