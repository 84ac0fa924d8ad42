"""Unit tests for Resource, Store, and BandwidthServer."""

import pytest

from repro.sim import (
    BandwidthServer,
    Environment,
    Resource,
    SimulationError,
    Store,
)


# ---------------------------------------------------------------- Resource

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    order = []

    def worker(tag, hold):
        def granted(_res):
            order.append((tag, "in", env.now))
            env.timeout(hold).add_callback(done)

        def done(_ev):
            res.release()
            order.append((tag, "out", env.now))

        res.acquire_then(granted)

    worker("a", 10)
    worker("b", 10)
    worker("c", 10)
    env.run()
    entries = [(tag, t) for tag, what, t in order if what == "in"]
    assert entries == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    admitted = []

    def worker(tag):
        def granted(_res):
            admitted.append(tag)
            env.timeout(1).add_callback(lambda _ev: res.release())

        res.acquire_then(granted)

    for tag in range(5):
        worker(tag)
    env.run()
    assert admitted == [0, 1, 2, 3, 4]


def test_resource_release_idle_is_error():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)

    def hold(_res):
        env.timeout(5).add_callback(lambda _ev: res.release())

    def wait(_ev):
        res.acquire_then(lambda granted: granted.release())

    res.acquire_then(hold)
    env.timeout(1).add_callback(wait)
    env.run(until=2)
    assert res.in_use == 1
    assert res.queued == 1
    env.run()
    assert res.in_use == 0


# ------------------------------------------------------------------- Store

def test_store_put_get_order():
    env = Environment()
    store = Store(env, capacity=4)
    received = []

    def producer():
        for i in range(3):
            yield store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [0, 1, 2]


def test_store_backpressure_blocks_producer():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        for i in range(3):
            yield store.put(i)
            log.append(("put", i, env.now))

    def consumer():
        for _ in range(3):
            yield env.timeout(10)
            item = yield store.get()
            log.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    puts = [(i, t) for what, i, t in log if what == "put"]
    # First put succeeds immediately; the rest wait for consumer drains.
    assert puts[0] == (0, 0)
    assert puts[1] == (1, 10)
    assert puts[2] == (2, 20)


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env, capacity=2)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    def producer():
        yield env.timeout(7)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("x", 7)]


def test_store_close_delivers_end_after_drain():
    env = Environment()
    store = Store(env, capacity=4)
    seen = []

    def producer():
        yield store.put(1)
        yield store.put(2)
        store.close()

    def consumer():
        while True:
            item = yield store.get()
            if item is Store.END:
                seen.append("end")
                break
            seen.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert seen == [1, 2, "end"]


def test_store_close_wakes_blocked_getter():
    env = Environment()
    store = Store(env, capacity=1)
    seen = []

    def consumer():
        item = yield store.get()
        seen.append(item)

    def closer():
        yield env.timeout(3)
        store.close()

    env.process(consumer())
    env.process(closer())
    env.run()
    assert seen == [Store.END]


def test_store_put_after_close_is_error():
    env = Environment()
    store = Store(env, capacity=1)
    store.close()
    with pytest.raises(SimulationError):
        store.put(1)


def test_store_multiple_gets_after_close():
    env = Environment()
    store = Store(env, capacity=1)
    store.close()
    results = []

    def consumer():
        a = yield store.get()
        b = yield store.get()
        results.extend([a, b])

    env.process(consumer())
    env.run()
    assert results == [Store.END, Store.END]


def test_store_counts_total_puts():
    env = Environment()
    store = Store(env, capacity=8)

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert store.total_put == 5


# -------------------------------------------------------- BandwidthServer

def test_bandwidth_single_transfer_time():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=4, latency=10)
    done_at = []

    chan.transfer_then(64, lambda _arg: done_at.append(env.now))
    env.run()
    assert done_at == [64 / 4 + 10]


def test_bandwidth_serializes_contending_transfers():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=1, latency=0)
    finish = {}

    def proc(tag):
        def delivered(_arg):
            finish[tag] = env.now

        chan.transfer_then(10, delivered)

    proc("a")
    proc("b")
    env.run()
    assert finish == {"a": 10, "b": 20}


def test_bandwidth_idle_gap_not_counted():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=2, latency=0)

    def idle(_arg):
        env.timeout(90).add_callback(again)

    def again(_ev):
        chan.transfer_then(20, lambda _arg: None)   # busy 10 more

    chan.transfer_then(20, idle)   # busy 10 cycles
    env.run()
    assert env.now == 110
    assert chan.utilization() == pytest.approx(20 / 110)
    assert chan.total_bytes == 40
    assert chan.total_transfers == 2


def test_bandwidth_zero_byte_transfer_only_latency():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=8, latency=5)
    done_at = []

    chan.transfer_then(0, lambda _arg: done_at.append(env.now))
    env.run()
    assert done_at == [5]


def test_bandwidth_invalid_params():
    env = Environment()
    with pytest.raises(SimulationError):
        BandwidthServer(env, bytes_per_cycle=0)
    with pytest.raises(SimulationError):
        BandwidthServer(env, bytes_per_cycle=1, latency=-1)
    chan = BandwidthServer(env, bytes_per_cycle=1)
    with pytest.raises(SimulationError):
        chan.transfer_then(-5, lambda _arg: None)


def test_bandwidth_backlog_reporting():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=1, latency=0)

    def proc():
        chan.transfer_then(100, lambda _arg: None)
        assert chan.backlog_cycles == 100
        yield env.timeout(40)
        assert chan.backlog_cycles == 60

    env.process(proc())
    env.run()


def test_store_peek_nondestructive():
    env = Environment()
    store = Store(env, capacity=4)

    def producer():
        yield store.put("a")
        yield store.put("b")

    env.process(producer())
    env.run()
    assert store.peek() == "a"
    assert store.level == 2  # unchanged


def test_store_peek_empty_returns_none():
    env = Environment()
    assert Store(env, capacity=1).peek() is None


def test_store_pop_newest_takes_tail():
    env = Environment()
    store = Store(env, capacity=4)

    def producer():
        for item in ("a", "b", "c"):
            yield store.put(item)

    env.process(producer())
    env.run()
    assert store.pop_newest() == "c"
    assert store.level == 2
    assert store.peek() == "a"


def test_store_pop_newest_empty_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=1).pop_newest()


def test_store_pop_newest_admits_waiting_putter():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer():
        yield store.put("first")
        yield store.put("second")  # blocks on capacity
        done.append(env.now)

    env.process(producer())
    env.run()
    assert store.pop_newest() == "first"
    env.run()
    assert done and store.peek() == "second"
