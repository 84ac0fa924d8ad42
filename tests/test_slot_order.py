"""Where the stages of each streamed-chunk chain fall within a cycle.

The frozen fingerprints pin cycles and counters, not the order of events
inside one cycle, so a chain that moved one of its stages a slot earlier
or later could pass them. Each test here runs one datapath operation
beside two ticker processes, ``early`` (started just before the
operation) and ``late`` (started just after), whose timeouts land on the
cycles where the operation's stages run, and checks the exact sequence
of ``(cycle, label)`` entries on both event kernels.

The labels come from observable effects only: a watched counter being
added to (each stage adds its counter when it is issued), a token
reaching a consumer process, a ticker waking, and a process waiting on
the operation's event resuming. The expected lists were captured while
every stage of these chains still waited on an ``Event`` of the resource
it used; the callback forms that replaced those events must keep them.
"""

import pytest

from repro.arch.config import FabricConfig, LaneConfig
from repro.arch.dram import Dram
from repro.arch.lane import Lane
from repro.arch.mapper import Mapper
from repro.arch.noc import MEM_NODE, Noc
from repro.sim import Environment, Store
from repro.sim.fastengine import FastEnvironment
from repro.sim.faults import FaultInjector, FaultPlan
from repro.util.counters import Counters

KERNELS = pytest.mark.parametrize("env_cls", [Environment, FastEnvironment])

#: Counter keys whose additions are logged, and their labels. Each is
#: added when its stage is issued.
WATCHED = {
    "dram.requests": "dram",
    "noc.messages": "noc",
    "lane0.spad.write_bytes": "spad-w",
    "lane0.spad.read_bytes": "spad-r",
    "lane0.stream_in_bytes": "in-final",
    "lane0.resident_read_bytes": "resident-final",
    "lane0.stream_out_bytes": "out-final",
    "faults.dram_spikes": "spike",
}


class _LoggedCounters(Counters):
    """Counters that log each addition to a watched key as it is made."""

    def __init__(self, env, log):
        super().__init__()
        self.env = env
        self.log = log

    def add(self, name, amount=1.0):
        label = WATCHED.get(name)
        if label is not None:
            self.log.append((self.env.now, label))
        super().add(name, amount)


def make_lane(env_cls, log, injector=None):
    """One lane of a two-lane machine; 64-byte chunks, 4 scratchpad banks
    of 8 B/cycle, DRAM at 16 B/cycle with 20 cycles of latency."""
    env = env_cls()
    counters = _LoggedCounters(env, log)
    noc = Noc(env, counters, 2, link_bytes_per_cycle=16, hop_latency=1,
              header_bytes=0, multicast_enabled=True)
    dram = Dram(env, counters, bytes_per_cycle=16, latency=20,
                random_penalty=2.0, injector=injector)
    lane_cfg = LaneConfig(
        fabric=FabricConfig(), spad_bytes=16 * 1024, spad_banks=4,
        spad_bank_bytes_per_cycle=8, config_cycles=0,
        config_cache_entries=2, stream_chunk_bytes=64)
    lane = Lane(env, counters, 0, lane_cfg, noc, dram,
                Mapper(lane_cfg.fabric))
    return env, lane


def ticker(env, log, label, delays):
    for delay in delays:
        yield env.timeout(delay)
        log.append((env.now, label))


def consumer(env, log, store, gap=0):
    """Drain ``store``, logging each token, pausing ``gap`` cycles after
    each one."""
    k = 0
    while True:
        token = yield store.get()
        if token is Store.END:
            log.append((env.now, "end"))
            return
        log.append((env.now, f"tok{k}"))
        k += 1
        if gap:
            yield env.timeout(gap)


def wakeups(cycles, rounds):
    """Ticker delays that wake ``rounds`` times at each of ``cycles``:
    on a timeout to the cycle, then on zero-delay timeouts, each queued
    behind everything the previous wake-up's round queued."""
    delays, now = [], 0
    for cycle in cycles:
        delays += [cycle - now] + [0] * (rounds - 1)
        now = cycle
    return delays


def run_beside(env, log, cycles, start):
    """Start the ``early`` ticker, then a process that starts the
    operation (``start()`` returns its event) and waits on it, then the
    ``late`` ticker, and run to the end. At each of ``cycles`` the
    tickers wake in the first two and the first four rounds of the
    cycle, so a stage that moves by one slot changes places with a
    wake-up, and their timeouts to the next cycle are queued from
    different rounds of this one."""
    def operation():
        yield start()
        log.append((env.now, "done"))

    env.process(ticker(env, log, "early", wakeups(cycles, 2)))
    env.process(operation())
    env.process(ticker(env, log, "late", wakeups(cycles, 4)))
    env.run()
    return log


# ------------------------------------------------------------ scenarios


def stream_in_backpressured(env_cls):
    """Seven chunks into a one-slot ``dest_store`` whose consumer pauses
    200 cycles per token: the puts wait for room, so the four credits run
    out, and the seventh fetch waits until a get at cycle 237 frees one."""
    log = []
    env, lane = make_lane(env_cls, log)
    store = Store(env, capacity=1)
    env.process(consumer(env, log, store, gap=200))
    return run_beside(env, log, (24, 237, 1037),
                      lambda: lane.streams.stream_in(
                          7 * 64, dest_store=store, close_dest=True))


def read_resident_drained(env_cls):
    """Three and a half chunks of resident data into a one-slot store."""
    log = []
    env, lane = make_lane(env_cls, log)
    store = Store(env, capacity=1)
    env.process(consumer(env, log, store, gap=3))
    return run_beside(env, log, (8, 28),
                      lambda: lane.streams.read_resident(
                          3 * 64 + 32, dest_store=store, close_dest=True))


def stream_out_from_store(env_cls):
    """Two compute tokens, 10 cycles apart, then the store closes: two
    chunks drain as the tokens arrive and the last 32 bytes go out as a
    trailing burst."""
    log = []
    env, lane = make_lane(env_cls, log)
    store = Store(env, capacity=1)

    def producer():
        for _ in range(2):
            yield env.timeout(10)
            yield store.put(16)
            log.append((env.now, "put"))
        store.close()

    env.process(producer())
    return run_beside(env, log, (10, 20, 47, 113),
                      lambda: lane.streams.stream_out(
                          2 * 64 + 32, src_store=store))


def stream_out_immediate(env_cls):
    """An end-of-task writeback of two and a half chunks."""
    log = []
    env, lane = make_lane(env_cls, log)
    return run_beside(env, log, (37, 103),
                      lambda: lane.streams.stream_out(2 * 64 + 32))


def one_unicast(env_cls):
    """One 64-byte message from memory to ``lane0`` (one hop): its link
    is clear at cycle 4 and it arrives at cycle 5."""
    log = []
    env, lane = make_lane(env_cls, log)
    return run_beside(env, log, (4, 5),
                      lambda: lane.noc.unicast(MEM_NODE, "lane0", 64))


def hop_free_messages(env_cls):
    """Messages from ``lane0`` to itself cross no link. A unicast is
    delivered in a slot of its own at the current cycle; a multicast to
    ``lane0`` alone is that unicast joined, one slot later."""
    log = []
    env, lane = make_lane(env_cls, log)

    def start():
        lane.noc.unicast("lane0", "lane0", 64).add_callback(
            lambda _ev: log.append((env.now, "unicast")))
        return lane.noc.multicast("lane0", ["lane0"], 64)

    return run_beside(env, log, (0,), start)


def one_spiked_fetch(env_cls):
    """One 64-byte DRAM read, served at cycle 24, whose response a
    7-cycle spike delays to cycle 31."""
    log = []
    injector = FaultInjector(FaultPlan(dram_spike_rate=1.0,
                                       dram_spike_cycles=7.0))
    env, lane = make_lane(env_cls, log, injector=injector)
    return run_beside(env, log, (24, 31), lambda: lane.dram.fetch(64))


# ---------------------------------------------------------------- tests


@KERNELS
def test_stream_in_backpressured_slot_order(env_cls):
    assert stream_in_backpressured(env_cls) == [
        (0, "dram"), (24, "early"), (24, "late"), (24, "early"),
        (24, "late"), (24, "noc"), (24, "dram"), (24, "late"),
        (24, "late"), (29, "spad-w"), (37, "tok0"), (48, "noc"),
        (48, "dram"), (53, "spad-w"), (72, "noc"), (72, "dram"),
        (77, "spad-w"), (96, "noc"), (96, "dram"), (101, "spad-w"),
        (120, "noc"), (120, "dram"), (125, "spad-w"), (144, "noc"),
        (149, "spad-w"), (237, "early"), (237, "late"), (237, "early"),
        (237, "late"), (237, "tok1"), (237, "late"), (237, "dram"),
        (237, "late"), (261, "noc"), (266, "spad-w"), (437, "tok2"),
        (637, "tok3"), (837, "tok4"), (1037, "early"), (1037, "late"),
        (1037, "early"), (1037, "late"), (1037, "tok5"), (1037, "late"),
        (1037, "late"), (1037, "in-final"), (1037, "done"), (1237, "tok6"),
        (1437, "end"),
    ]


@KERNELS
def test_read_resident_drained_slot_order(env_cls):
    assert read_resident_drained(env_cls) == [
        (0, "spad-r"), (8, "early"), (8, "late"), (8, "early"),
        (8, "late"), (8, "tok0"), (8, "spad-r"), (8, "late"), (8, "late"),
        (16, "tok1"), (16, "spad-r"), (24, "tok2"), (24, "spad-r"),
        (28, "early"), (28, "late"), (28, "early"), (28, "late"),
        (28, "tok3"), (28, "resident-final"), (28, "late"), (28, "done"),
        (28, "late"), (31, "end"),
    ]


@KERNELS
def test_stream_out_from_store_slot_order(env_cls):
    assert stream_out_from_store(env_cls) == [
        (10, "early"), (10, "late"), (10, "spad-r"), (10, "put"),
        (10, "early"), (10, "late"), (10, "late"), (10, "late"),
        (18, "noc"), (20, "early"), (20, "late"), (20, "put"),
        (20, "early"), (20, "late"), (20, "late"), (20, "late"),
        (23, "dram"), (47, "early"), (47, "late"), (47, "early"),
        (47, "late"), (47, "spad-r"), (47, "late"), (47, "late"),
        (55, "noc"), (60, "dram"), (84, "spad-r"), (88, "noc"),
        (91, "dram"), (113, "early"), (113, "late"), (113, "out-final"),
        (113, "early"), (113, "late"), (113, "done"), (113, "late"),
        (113, "late"),
    ]


@KERNELS
def test_stream_out_immediate_slot_order(env_cls):
    assert stream_out_immediate(env_cls) == [
        (0, "spad-r"), (8, "noc"), (13, "dram"), (37, "early"),
        (37, "late"), (37, "spad-r"), (37, "early"), (37, "late"),
        (37, "late"), (37, "late"), (45, "noc"), (50, "dram"),
        (74, "spad-r"), (78, "noc"), (81, "dram"), (103, "early"),
        (103, "late"), (103, "out-final"), (103, "early"), (103, "late"),
        (103, "done"), (103, "late"), (103, "late"),
    ]


@KERNELS
def test_one_unicast_slot_order(env_cls):
    assert one_unicast(env_cls) == [
        (0, "noc"), (4, "early"), (4, "late"), (4, "early"), (4, "late"),
        (4, "late"), (4, "late"), (5, "early"), (5, "late"), (5, "early"),
        (5, "done"), (5, "late"), (5, "late"), (5, "late"),
    ]


@KERNELS
def test_hop_free_messages_slot_order(env_cls):
    assert hop_free_messages(env_cls) == [
        (0, "early"), (0, "unicast"), (0, "late"), (0, "early"),
        (0, "done"), (0, "late"), (0, "late"), (0, "late"),
    ]


@KERNELS
def test_one_spiked_fetch_slot_order(env_cls):
    assert one_spiked_fetch(env_cls) == [
        (0, "dram"), (0, "spike"), (24, "early"), (24, "late"),
        (24, "early"), (24, "late"), (24, "late"), (24, "late"),
        (31, "early"), (31, "late"), (31, "done"), (31, "early"),
        (31, "late"), (31, "late"), (31, "late"),
    ]
