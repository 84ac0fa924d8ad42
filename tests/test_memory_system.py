"""Unit tests for scratchpad, DRAM, and NoC models."""

import pytest

from repro.arch.dram import Dram
from repro.arch.noc import DISP_NODE, MEM_NODE, Noc
from repro.arch.spad import CapacityError, Scratchpad
from repro.sim import Environment
from repro.sim.engine import SimulationError
from repro.util.counters import Counters


def make_env():
    env = Environment()
    return env, Counters()


# -------------------------------------------------------------- Scratchpad

def test_spad_access_counts_bytes():
    env, counters = make_env()
    spad = Scratchpad(env, counters, "spad", 1024, banks=2,
                      bank_bytes_per_cycle=4)

    def proc():
        yield spad.access(64, is_write=True)
        yield spad.access(32, is_write=False)

    env.process(proc())
    env.run()
    assert counters.get("spad.write_bytes") == 64
    assert counters.get("spad.read_bytes") == 32


def test_spad_striping_uses_banks_round_robin():
    env, counters = make_env()
    spad = Scratchpad(env, counters, "spad", 1024, banks=2,
                      bank_bytes_per_cycle=1)
    finish = []

    def proc():
        a = spad.access(10, is_write=True)   # bank 0
        b = spad.access(10, is_write=True)   # bank 1
        yield env.all_of([a, b])
        finish.append(env.now)

    env.process(proc())
    env.run()
    # Parallel banks: both 10-cycle transfers overlap.
    assert finish == [10]


def test_spad_same_bank_serializes():
    env, counters = make_env()
    spad = Scratchpad(env, counters, "spad", 1024, banks=1,
                      bank_bytes_per_cycle=1)
    finish = []

    def proc():
        a = spad.access(10, is_write=True)
        b = spad.access(10, is_write=True)
        yield env.all_of([a, b])
        finish.append(env.now)

    env.process(proc())
    env.run()
    assert finish == [20]


def test_spad_residency_lifecycle():
    env, counters = make_env()
    spad = Scratchpad(env, counters, "spad", 100, banks=1,
                      bank_bytes_per_cycle=1)
    spad.allocate("regionA", 60)
    assert spad.is_resident("regionA")
    assert spad.used_bytes == 60
    spad.allocate("regionA", 60)  # idempotent
    assert spad.used_bytes == 60
    with pytest.raises(CapacityError):
        spad.allocate("regionB", 60)
    spad.release("regionA")
    assert spad.free_bytes == 100
    spad.release("missing")  # no-op


def test_spad_eviction_lru():
    env, counters = make_env()
    spad = Scratchpad(env, counters, "spad", 100, banks=1,
                      bank_bytes_per_cycle=1)
    spad.allocate("old", 40)
    spad.allocate("new", 40)
    evicted = spad.evict_lru_until(60)
    assert evicted == ["old"]
    assert spad.resident_regions() == ["new"]
    assert counters.get("spad.evictions") == 1


def test_spad_eviction_impossible_request():
    env, counters = make_env()
    spad = Scratchpad(env, counters, "spad", 100, banks=1,
                      bank_bytes_per_cycle=1)
    with pytest.raises(CapacityError):
        spad.evict_lru_until(200)


def test_spad_peak_usage_counter():
    env, counters = make_env()
    spad = Scratchpad(env, counters, "spad", 100, banks=1,
                      bank_bytes_per_cycle=1)
    spad.allocate("a", 30)
    spad.allocate("b", 50)
    spad.release("a")
    assert counters.get("spad.peak_used_bytes") == 80


# -------------------------------------------------------------------- DRAM

def test_dram_sequential_fetch_time():
    env, counters = make_env()
    dram = Dram(env, counters, bytes_per_cycle=8, latency=10,
                random_penalty=2.0)
    done = []

    def proc():
        yield dram.fetch(80, locality=1.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [80 / 8 + 10]


def test_dram_random_fetch_pays_penalty():
    env, counters = make_env()
    dram = Dram(env, counters, bytes_per_cycle=8, latency=0,
                random_penalty=2.0)
    done = []

    def proc():
        yield dram.fetch(80, locality=0.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [2.0 * 80 / 8]
    assert counters.get("dram.read_bytes") == 80
    assert counters.get("dram.read_effective_bytes") == 160


def test_dram_contention_serializes():
    env, counters = make_env()
    dram = Dram(env, counters, bytes_per_cycle=1, latency=0,
                random_penalty=1.0)
    times = {}

    def proc(tag):
        yield dram.fetch(50)
        times[tag] = env.now

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert times == {"a": 50, "b": 100}


def test_dram_writeback_counted_separately():
    env, counters = make_env()
    dram = Dram(env, counters, bytes_per_cycle=4, latency=0,
                random_penalty=1.0)

    def fetched(_arg):
        dram.writeback_then(24, 1.0, lambda _arg: None)

    dram.fetch_then(40, 1.0, fetched)
    env.run()
    assert counters.get("dram.read_bytes") == 40
    assert counters.get("dram.write_bytes") == 24
    assert dram.total_bytes == 64


def test_dram_validates_inputs():
    env, counters = make_env()
    with pytest.raises(SimulationError):
        Dram(env, counters, 8, 0, random_penalty=0.5)
    dram = Dram(env, counters, 8, 0, random_penalty=1.5)
    with pytest.raises(SimulationError):
        dram.fetch(10, locality=1.5)
    with pytest.raises(SimulationError):
        dram.fetch(-1)


# --------------------------------------------------------------------- NoC

def make_noc(lanes=4, multicast=True, bpc=8.0, hop=1):
    env, counters = make_env()
    noc = Noc(env, counters, lanes, link_bytes_per_cycle=bpc,
              hop_latency=hop, header_bytes=0, multicast_enabled=multicast)
    return env, counters, noc


def test_noc_places_all_nodes():
    _env, _counters, noc = make_noc(lanes=6)
    names = set(noc.coords)
    assert MEM_NODE in names and DISP_NODE in names
    assert {f"lane{i}" for i in range(6)} <= names


def test_noc_route_is_contiguous_xy():
    _env, _counters, noc = make_noc()
    path = noc.route(MEM_NODE, "lane3")
    assert path[0] == noc.node_coord(MEM_NODE)
    assert path[-1] == noc.node_coord("lane3")
    for a, b in zip(path, path[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
    # XY routing: column fixed only after all X movement.
    assert noc.hops(MEM_NODE, "lane3") == len(path) - 1


def test_noc_unknown_node():
    _env, _counters, noc = make_noc()
    with pytest.raises(SimulationError):
        noc.node_coord("lane99")


def test_noc_unicast_latency_and_bytes():
    env, counters, noc = make_noc(bpc=8, hop=2)
    done = []

    def proc():
        yield noc.unicast(MEM_NODE, "lane0", 64)
        done.append(env.now)

    env.process(proc())
    env.run()
    hops = noc.hops(MEM_NODE, "lane0")
    # Wormhole approx: serialization once (links in parallel) + hop latency.
    assert done == [64 / 8 + 2 * hops]
    assert counters.get("noc.bytes") == 64 * hops


def test_noc_self_send_is_free():
    env, counters, noc = make_noc()
    done = []

    def proc():
        yield noc.unicast("lane0", "lane0", 64)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0]
    assert counters.get("noc.bytes") == 0


def test_noc_multicast_cheaper_than_unicasts():
    env_m, counters_m, noc_m = make_noc(multicast=True)
    env_u, counters_u, noc_u = make_noc(multicast=False)
    dsts = [f"lane{i}" for i in range(4)]

    def mproc():
        yield noc_m.multicast(MEM_NODE, dsts, 128)

    def uproc():
        yield noc_u.multicast(MEM_NODE, dsts, 128)

    env_m.process(mproc())
    env_m.run()
    env_u.process(uproc())
    env_u.run()
    assert counters_m.get("noc.bytes") < counters_u.get("noc.bytes")
    assert counters_m.get("noc.multicasts") == 1
    assert counters_u.get("noc.multicasts") == 0


def test_noc_multicast_single_dst_is_unicast():
    env, counters, noc = make_noc(multicast=True)

    def proc():
        yield noc.multicast(MEM_NODE, ["lane1"], 64)

    env.process(proc())
    env.run()
    assert counters.get("noc.multicasts") == 0
    assert counters.get("noc.messages") == 1


def test_noc_multicast_dedupes_destinations():
    env, counters, noc = make_noc(multicast=True)

    def proc():
        yield noc.multicast(MEM_NODE, ["lane1", "lane1", "lane2"], 64)

    env.process(proc())
    env.run()
    assert counters.get("noc.multicasts") == 1


def test_noc_multicast_no_destinations_rejected():
    _env, _counters, noc = make_noc()
    with pytest.raises(SimulationError):
        noc.multicast(MEM_NODE, [], 64)
