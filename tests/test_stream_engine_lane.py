"""Unit tests for stream engines and the lane (config cache, compute)."""

import pytest

from repro.arch.config import FabricConfig, LaneConfig
from repro.arch.dfg import axpy_dfg, dot_product_dfg, merge_dfg
from repro.arch.dram import Dram
from repro.arch.lane import Lane
from repro.arch.mapper import Mapper
from repro.arch.noc import Noc
from repro.sim import Environment, Store
from repro.sim.fastengine import FastEnvironment
from repro.util.counters import Counters


def make_system(lanes=2, chunk_bytes=64, config_cycles=16,
                config_cache_entries=2, env_cls=Environment):
    env = env_cls()
    counters = Counters()
    noc = Noc(env, counters, lanes, link_bytes_per_cycle=16, hop_latency=1,
              header_bytes=0, multicast_enabled=True)
    dram = Dram(env, counters, bytes_per_cycle=16, latency=20,
                random_penalty=2.0)
    lane_cfg = LaneConfig(
        fabric=FabricConfig(), spad_bytes=16 * 1024, spad_banks=4,
        spad_bank_bytes_per_cycle=8, config_cycles=config_cycles,
        config_cache_entries=config_cache_entries,
        stream_chunk_bytes=chunk_bytes)
    mapper = Mapper(lane_cfg.fabric)
    lane_objs = [Lane(env, counters, i, lane_cfg, noc, dram, mapper)
                 for i in range(lanes)]
    return env, counters, noc, dram, lane_objs


# ----------------------------------------------------------- StreamEngine

def test_chunks_of_splits_exactly():
    env, counters, noc, dram, lanes = make_system(chunk_bytes=64)
    se = lanes[0].streams
    assert se.chunks_of(0) == []
    assert se.chunks_of(64) == [64]
    assert se.chunks_of(100) == [64, 36]
    assert se.chunk_count(100) == 2
    assert se.chunk_count(0) == 0


def test_stream_in_moves_bytes_through_all_stages():
    env, counters, noc, dram, lanes = make_system()
    lane = lanes[0]

    def proc():
        yield lane.streams.stream_in(256, locality=1.0)

    env.process(proc())
    env.run()
    assert counters.get("dram.read_bytes") == 256
    assert counters.get("lane0.spad.write_bytes") == 256
    assert counters.get("lane0.stream_in_bytes") == 256
    assert counters.get("noc.bytes") > 0


def test_stream_in_feeds_dest_store_and_closes():
    env, counters, noc, dram, lanes = make_system(chunk_bytes=64)
    lane = lanes[0]
    store = Store(env, capacity=8)
    tokens = []

    def consumer():
        while True:
            item = yield store.get()
            if item is Store.END:
                break
            tokens.append(item)

    def proc():
        yield lane.streams.stream_in(200, dest_store=store, close_dest=True)

    env.process(consumer())
    env.process(proc())
    env.run()
    assert tokens == [64, 64, 64, 8]


def test_stream_in_pipelines_chunks():
    """Total time for N chunks must be far below N * single-chunk time."""
    env1, _c1, _n1, _d1, lanes1 = make_system(chunk_bytes=64)

    def one(lane):
        yield lane.streams.stream_in(64)

    env1.process(one(lanes1[0]))
    env1.run()
    single = env1.now

    env8, _c8, _n8, _d8, lanes8 = make_system(chunk_bytes=64)

    def many(lane):
        yield lane.streams.stream_in(64 * 8)

    env8.process(many(lanes8[0]))
    env8.run()
    assert env8.now < 8 * single * 0.7  # overlap across stages


def test_read_resident_touches_only_spad():
    env, counters, noc, dram, lanes = make_system()
    lane = lanes[0]

    def proc():
        yield lane.streams.read_resident(256)

    env.process(proc())
    env.run()
    assert counters.get("dram.read_bytes") == 0
    assert counters.get("noc.bytes") == 0
    assert counters.get("lane0.spad.read_bytes") == 256
    assert counters.get("lane0.resident_read_bytes") == 256


def test_stream_out_writes_back():
    env, counters, noc, dram, lanes = make_system()
    lane = lanes[0]

    def proc():
        yield lane.streams.stream_out(128)

    env.process(proc())
    env.run()
    assert counters.get("dram.write_bytes") == 128
    assert counters.get("lane0.spad.read_bytes") == 128


def test_stream_out_drains_src_store():
    env, counters, noc, dram, lanes = make_system(chunk_bytes=64)
    lane = lanes[0]
    store = Store(env, capacity=4)

    def producer():
        yield store.put(64)
        yield store.put(64)
        store.close()

    def proc():
        yield lane.streams.stream_out(128, src_store=store)

    env.process(producer())
    env.process(proc())
    env.run()
    assert counters.get("dram.write_bytes") == 128


# ------------------------------------------------------------------- Lane

def run_gen(env, gen):
    """Helper: run a lane generator method to completion, return value."""
    result = {}

    def wrapper():
        value = yield from gen
        result["value"] = value

    env.process(wrapper())
    env.run()
    return result.get("value")


def run_event(env, event):
    """Helper: run a process that waits on a lane operation's event."""
    def wrapper():
        yield event

    env.process(wrapper())
    env.run()


def test_lane_configure_miss_costs_cycles():
    env, counters, noc, dram, lanes = make_system(config_cycles=16)
    lane = lanes[0]
    mapping = run_gen(env, lane.configure(dot_product_dfg()))
    assert mapping.ii >= 1
    assert env.now == 16
    assert counters.get("lane0.config_misses") == 1


def test_lane_configure_hit_is_free():
    env, counters, noc, dram, lanes = make_system(config_cycles=16)
    lane = lanes[0]
    run_gen(env, lane.configure(dot_product_dfg()))
    t0 = env.now
    run_gen(env, lane.configure(dot_product_dfg()))
    assert env.now == t0
    assert counters.get("lane0.config_hits") == 1
    assert lane.configured_for(dot_product_dfg())


def test_lane_config_cache_evicts_lru():
    env, counters, noc, dram, lanes = make_system(config_cache_entries=2)
    lane = lanes[0]
    run_gen(env, lane.configure(dot_product_dfg()))
    run_gen(env, lane.configure(axpy_dfg()))
    run_gen(env, lane.configure(merge_dfg()))  # evicts dot
    assert not lane.configured_for(dot_product_dfg())
    assert lane.configured_for(merge_dfg())


def test_lane_run_pipeline_timing():
    env, counters, noc, dram, lanes = make_system(chunk_bytes=64)
    lane = lanes[0]
    mapping = run_gen(env, lane.configure(dot_product_dfg()))
    start = env.now
    run_event(env, lane.run_pipeline(mapping, trips=64))
    elapsed = env.now - start
    # 64 trips at II + depth fill.
    assert elapsed == mapping.depth + mapping.ii * 64
    assert counters.get("lane0.trips") == 64
    assert lane.busy_cycles > 0


def test_lane_run_pipeline_zero_trips_closes_outputs():
    env, counters, noc, dram, lanes = make_system()
    lane = lanes[0]
    mapping = run_gen(env, lane.configure(dot_product_dfg()))
    out = Store(env, capacity=2)
    run_event(env, lane.run_pipeline(mapping, trips=0, out_stores=[out]))
    assert out.closed


def test_lane_run_pipeline_waits_for_input_tokens():
    env, counters, noc, dram, lanes = make_system(chunk_bytes=64)
    lane = lanes[0]
    mapping = run_gen(env, lane.configure(dot_product_dfg()))
    feed = Store(env, capacity=4)
    finished = []

    def slow_feeder():
        # One chunk (16 elems at 4B) per 100 cycles: compute is starved.
        for _ in range(4):
            yield env.timeout(100)
            yield feed.put(16)
        feed.close()

    def compute():
        yield lane.run_pipeline(mapping, trips=64, in_streams=[(feed, 4)])
        finished.append(env.now)

    env.process(slow_feeder())
    env.process(compute())
    env.run()
    assert finished[0] >= 400  # gated by the feeder, not the fabric


def test_lane_run_pipeline_emits_output_tokens():
    env, counters, noc, dram, lanes = make_system(chunk_bytes=64)
    lane = lanes[0]
    mapping = run_gen(env, lane.configure(dot_product_dfg()))
    out = Store(env, capacity=16)
    got = []

    def consumer():
        while True:
            item = yield out.get()
            if item is Store.END:
                break
            got.append(item)

    env.process(consumer())
    run_event(env, lane.run_pipeline(mapping, trips=40, out_stores=[out]))
    # chunk_elems = 64/4 = 16 -> tokens 16, 16, 8.
    assert got == [16, 16, 8]


class _BusyLog:
    """Sanitizer stand-in: logs each fabric-busy interval as it accrues."""

    def __init__(self, log):
        self.log = log

    def lane_busy(self, lane_id, cycles, now):
        self.log.append((now, f"busy{cycles}"))


class _LoggedStore(Store):
    """A store that logs each get and put call as it is made."""

    def __init__(self, env, log, name):
        super().__init__(env, capacity=1, name=name)
        self.log = log

    def get_then(self, fn):
        self.log.append((self.env.now, f"get-{self.name}"))
        super().get_then(fn)

    def put_then(self, item, fn):
        self.log.append((self.env.now, f"put-{self.name}"))
        super().put_then(item, fn)


@pytest.mark.parametrize("env_cls", [Environment, FastEnvironment])
def test_lane_run_pipeline_slot_order(env_cls):
    """Where each pipeline stage falls among same-cycle events.

    Two input stores feed the pipeline (``b`` closes one token short of
    its declared total, after a put that waits for room), a consumer
    drains its output, and ``early`` and ``late`` are timeouts of
    processes started just before and just after the pipeline, landing
    on the cycles its steps end. The expected order is the one a
    generator process running the same steps gives, on both kernels."""
    env, counters, noc, dram, lanes = make_system(
        chunk_bytes=64, config_cycles=0, env_cls=env_cls)
    lane = lanes[0]
    log = []
    lane.sanitizer = _BusyLog(log)
    mapping = run_gen(env, lane.configure(dot_product_dfg()))
    assert (env.now, mapping.depth, mapping.ii) == (0, 12, 1)
    feed_a, feed_b, out = (_LoggedStore(env, log, name)
                           for name in ("a", "b", "out"))

    def feeder(store, gaps):
        for k, gap in enumerate(gaps):
            yield env.timeout(gap)
            yield store.put(16)
            log.append((env.now, f"{store.name}{k}"))
        store.close()

    def consumer():
        while True:
            token = yield out.get()
            if token is Store.END:
                log.append((env.now, "out-end"))
                return
            log.append((env.now, f"out{token}"))

    def ticker(label, delays):
        for delay in delays:
            yield env.timeout(delay)
            log.append((env.now, label))

    def waiter(event):
        yield event
        log.append((env.now, "done"))

    env.process(ticker("early", [12, 16, 16, 8]))
    env.process(feeder(feed_a, [4, 4, 4]))
    env.process(feeder(feed_b, [9, 2, 16]))
    done = lane.run_pipeline(mapping, trips=40,
                             in_streams=[(feed_a, 3), (feed_b, 4)],
                             out_stores=[out])
    env.process(ticker("late", [12, 40]))
    env.process(consumer())
    env.process(waiter(done))
    env.run()
    assert log == [
        (0, "get-out"), (4, "put-a"), (4, "a0"), (8, "put-a"),
        (9, "put-b"), (9, "b0"), (11, "put-b"),
        (12, "early"), (12, "busy12"), (12, "get-a"), (12, "late"),
        (12, "get-b"), (12, "a1"), (12, "get-b"), (12, "b1"),
        (16, "put-a"),
        (28, "early"), (28, "put-b"), (28, "busy16"), (28, "put-out"),
        (28, "b2"), (28, "out16"), (28, "get-out"), (28, "get-a"),
        (28, "get-b"), (28, "a2"),
        (44, "early"), (44, "busy16"), (44, "put-out"), (44, "out16"),
        (44, "get-out"), (44, "get-a"), (44, "get-b"),
        (52, "late"), (52, "early"), (52, "busy8"), (52, "put-out"),
        (52, "out8"), (52, "get-out"), (52, "out-end"), (52, "done"),
    ]


def test_stream_in_zero_bytes_completes_immediately():
    env, counters, noc, dram, lanes = make_system()
    store = Store(env, capacity=2)

    def proc():
        yield lanes[0].streams.stream_in(0, dest_store=store,
                                         close_dest=True)

    env.process(proc())
    env.run()
    assert store.closed
    assert counters.get("dram.read_bytes") == 0


def test_run_pipeline_input_larger_than_trips_paced():
    """A stream with more chunks than compute steps drains proportionally."""
    env, counters, noc, dram, lanes = make_system(chunk_bytes=64)
    lane = lanes[0]
    mapping = run_gen(env, lane.configure(dot_product_dfg()))
    feed = Store(env, capacity=64)
    # 8 chunks of input for only 2 compute steps (32 trips, 16/step).
    def feeder():
        for _ in range(8):
            yield feed.put(64)
        feed.close()

    env.process(feeder())
    run_event(env, lane.run_pipeline(mapping, trips=32,
                                     in_streams=[(feed, 8)]))
    # Proportional pacing: all 8 chunks consumed across the 2 steps.
    assert feed.level == 0
