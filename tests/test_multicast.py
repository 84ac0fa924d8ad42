"""Unit tests for the multicast manager (repro.core.multicast)."""

import pytest

from repro.arch.config import FabricConfig, LaneConfig
from repro.arch.dram import Dram
from repro.arch.lane import Lane
from repro.arch.mapper import Mapper
from repro.arch.noc import Noc
from repro.core.multicast import MulticastManager
from repro.sim import Environment
from repro.util.counters import Counters


def make_system(lanes=4, window=16, spad_bytes=16 * 1024):
    env = Environment()
    counters = Counters()
    noc = Noc(env, counters, lanes, link_bytes_per_cycle=16, hop_latency=1,
              header_bytes=0, multicast_enabled=True)
    dram = Dram(env, counters, bytes_per_cycle=16, latency=20,
                random_penalty=1.5)
    lane_cfg = LaneConfig(fabric=FabricConfig(), spad_bytes=spad_bytes)
    mapper = Mapper(lane_cfg.fabric)
    lane_objs = [Lane(env, counters, i, lane_cfg, noc, dram, mapper)
                 for i in range(lanes)]
    mgr = MulticastManager(env, counters, noc, dram, lane_objs,
                           window_cycles=window)
    return env, counters, mgr, lane_objs


def ensure(env, mgr, region, nbytes, lane, locality=1.0):
    return env.process(mgr.ensure(region, nbytes, locality, lane))


def test_single_request_fetches_once():
    env, counters, mgr, lanes = make_system()
    ensure(env, mgr, "r", 1024, 0)
    env.run()
    assert counters.get("mcast.fetches") == 1
    assert counters.get("dram.read_bytes") == 1024
    assert mgr.is_resident("r", 0)
    assert lanes[0].spad.is_resident("r")


def test_requests_in_window_coalesce():
    env, counters, mgr, lanes = make_system(window=32)

    def requester(lane, delay):
        yield env.timeout(delay)
        yield from mgr.ensure("r", 2048, 1.0, lane)

    for lane, delay in ((0, 0), (1, 5), (2, 20)):
        env.process(requester(lane, delay))
    env.run()
    assert counters.get("mcast.fetches") == 1
    assert counters.get("mcast.coalesced") == 2
    assert counters.get("dram.read_bytes") == 2048  # ONE fetch
    for lane in (0, 1, 2):
        assert mgr.is_resident("r", lane)


def test_request_after_window_is_separate_fetch():
    env, counters, mgr, lanes = make_system(window=8)

    def late(lane):
        yield env.timeout(5000)
        yield from mgr.ensure("r", 512, 1.0, lane)

    ensure(env, mgr, "r", 512, 0)
    env.process(late(1))
    env.run()
    assert counters.get("mcast.fetches") == 2


def test_resident_hit_is_free():
    env, counters, mgr, lanes = make_system()

    def twice():
        yield from mgr.ensure("r", 256, 1.0, 0)
        t_mid = env.now
        yield from mgr.ensure("r", 256, 1.0, 0)
        assert env.now == t_mid  # second ensure costs nothing

    env.process(twice())
    env.run()
    assert counters.get("mcast.hits") == 1
    assert counters.get("mcast.fetches") == 1


def test_different_regions_fetch_separately():
    env, counters, mgr, lanes = make_system()
    ensure(env, mgr, "a", 256, 0)
    ensure(env, mgr, "b", 256, 1)
    env.run()
    assert counters.get("mcast.fetches") == 2


def test_eviction_updates_manager_residency():
    # Scratchpad fits only one region at a time.
    env, counters, mgr, lanes = make_system(lanes=1, spad_bytes=1024)

    def sequence():
        yield from mgr.ensure("a", 800, 1.0, 0)
        assert mgr.is_resident("a", 0)
        yield from mgr.ensure("b", 800, 1.0, 0)

    env.process(sequence())
    env.run()
    assert mgr.is_resident("b", 0)
    assert not mgr.is_resident("a", 0)
    assert not lanes[0].spad.is_resident("a")


def test_region_larger_than_spad_streams_but_not_resident():
    env, counters, mgr, lanes = make_system(lanes=1, spad_bytes=1024)
    ensure(env, mgr, "huge", 4096, 0)
    env.run()
    assert counters.get("mcast.too_large") == 1
    assert not mgr.is_resident("huge", 0)
    # The fetch still happened (data streamed through).
    assert counters.get("dram.read_bytes") == 4096


def test_multicast_traffic_less_than_unicasts():
    env, counters, mgr, lanes = make_system(lanes=4, window=16)
    for lane in range(4):
        ensure(env, mgr, "r", 4096, lane)
    env.run()
    noc_bytes = counters.get("noc.bytes")
    # Upper bound if each lane had unicast its own copy from MEM:
    noc_mgr = mgr.noc
    per_lane = [4096 * noc_mgr.hops("MEM", f"lane{i}") for i in range(4)]
    assert noc_bytes < sum(per_lane)


def test_resident_lanes_query():
    env, counters, mgr, lanes = make_system(window=16)
    ensure(env, mgr, "r", 128, 0)
    ensure(env, mgr, "r", 128, 2)
    env.run()
    assert mgr.resident_lanes("r") == {0, 2}
