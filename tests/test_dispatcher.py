"""Unit tests for the hardware task dispatcher (repro.core.dispatcher).

The dispatcher is driven directly here (no Delta machine): fake lane
workers pop from the queues and report start/completion, so readiness,
policies, and accounting can be checked in isolation.
"""

from repro.arch.config import DispatchConfig, FeatureFlags
from repro.arch.dfg import dot_product_dfg
from repro.core.annotations import WorkHint
from repro.core.dispatcher import Dispatcher
from repro.core.task import TaskType
from repro.sim import Environment
from repro.util.counters import Counters
from repro.util.rng import DeterministicRng


def make_type(name="t"):
    return TaskType(
        name=name, dfg=dot_product_dfg(name),
        kernel=lambda ctx, args: None,
        trips=lambda args: args.get("trips", 10),
        work_hint=WorkHint(lambda args: args.get("trips", 10)),
    )


def make_dispatcher(env, lanes=2, policy="work-aware",
                    features=None, **cfg_kwargs):
    config = DispatchConfig(policy=policy, **cfg_kwargs)
    return Dispatcher(env, Counters(), config, lanes,
                      features or FeatureFlags(),
                      DeterministicRng("test"))


def drain_worker(env, dispatcher, lane_id, log, service=10):
    """A fake lane worker: pop, wait `service` cycles, complete."""

    def worker():
        queue = dispatcher.queues[lane_id]
        while True:
            task = yield queue.get()
            dispatcher.kick()
            dispatcher.task_started(task)
            log.append((env.now, lane_id, task.args.get("i")))
            yield env.timeout(service)
            dispatcher.task_completed(task)

    return env.process(worker())


class TestReadiness:
    def test_independent_task_dispatches_immediately(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log)
        d.submit(make_type().instantiate({"i": 0}))
        env.run()
        assert log and d.drained.triggered

    def test_after_dep_waits_for_completion(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log, service=50)
        tt = make_type()
        first = tt.instantiate({"i": 0})
        second = tt.instantiate({"i": 1}, after=[first])
        d.submit(second)
        d.submit(first)
        env.run()
        order = [i for _t, _l, i in log]
        assert order == [0, 1]
        start_times = {i: t for t, _l, i in log}
        assert start_times[1] >= 50  # waited for first to complete

    def test_stream_dep_waits_only_for_start_with_pipelining(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log, service=100)
        drain_worker(env, d, 1, log, service=100)
        tt = make_type()
        producer = tt.instantiate({"i": 0})
        consumer = tt.instantiate({"i": 1}, stream_from=[producer])
        d.submit(producer)
        d.submit(consumer)
        env.run()
        start_times = {i: t for t, _l, i in log}
        assert start_times[1] < 100  # did not wait for completion

    def test_stream_dep_waits_for_completion_without_pipelining(self):
        env = Environment()
        features = FeatureFlags(pipelining=False)
        d = make_dispatcher(env, lanes=2, dispatch_cycles=0,
                            features=features)
        log = []
        drain_worker(env, d, 0, log, service=100)
        drain_worker(env, d, 1, log, service=100)
        tt = make_type()
        producer = tt.instantiate({"i": 0})
        consumer = tt.instantiate({"i": 1}, stream_from=[producer])
        d.submit(producer)
        d.submit(consumer)
        env.run()
        start_times = {i: t for t, _l, i in log}
        assert start_times[1] >= 100

    def test_already_completed_dep_is_satisfied(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log)
        tt = make_type()
        first = tt.instantiate({"i": 0})
        d.submit(first)
        env.run()
        second = tt.instantiate({"i": 1}, after=[first])
        d.submit(second)
        env.run()
        assert [i for _t, _l, i in log] == [0, 1]


class TestPolicies:
    def submit_mixed(self, d, sizes):
        tt = make_type()
        for i, size in enumerate(sizes):
            d.submit(tt.instantiate({"i": i, "trips": size}))

    def test_work_aware_separates_heavy_tasks(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, dispatch_cycles=0,
                            work_overhead=0)
        placements = {}

        def worker(lane_id):
            queue = d.queues[lane_id]
            while True:
                task = yield queue.get()
                d.kick()
                d.task_started(task)
                placements[task.args["i"]] = lane_id
                yield env.timeout(task.args["trips"])
                d.task_completed(task)

        env.process(worker(0))
        env.process(worker(1))
        self.submit_mixed(d, [1000, 1000, 10, 10])
        env.run()
        # The two heavy tasks must land on different lanes.
        assert placements[0] != placements[1]

    def test_work_aware_lpt_dispatches_largest_first(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, dispatch_cycles=0,
                            work_overhead=0)
        order = []

        def worker():
            queue = d.queues[0]
            while True:
                task = yield queue.get()
                d.kick()
                d.task_started(task)
                order.append(task.args["trips"])
                yield env.timeout(1)
                d.task_completed(task)

        env.process(worker())
        self.submit_mixed(d, [10, 500, 50])
        env.run()
        assert order[0] == 500  # largest ready task goes first

    def test_round_robin_alternates(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="round-robin",
                            dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log)
        drain_worker(env, d, 1, log)
        self.submit_mixed(d, [10] * 6)
        env.run()
        lanes = [lane for _t, lane, _i in sorted(log, key=lambda r: r[2])]
        assert lanes == [0, 1, 0, 1, 0, 1]

    def test_random_policy_uses_all_lanes(self):
        env = Environment()
        d = make_dispatcher(env, lanes=4, policy="random",
                            dispatch_cycles=0)
        log = []
        for lane in range(4):
            drain_worker(env, d, lane, log)
        self.submit_mixed(d, [10] * 40)
        env.run()
        assert len({lane for _t, lane, _i in log}) > 1

    def test_work_aware_ablated_degrades_to_round_robin(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2,
                            features=FeatureFlags(work_aware_lb=False),
                            dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log)
        drain_worker(env, d, 1, log)
        self.submit_mixed(d, [1000, 1000, 10, 10])
        env.run()
        placements = {i: lane
                      for _t, lane, i in log}
        # RR by arrival: heavy tasks 0,1 go to lanes 0,1; order-based.
        assert placements[0] == 0 and placements[1] == 1

    def test_dispatch_cycles_serialize(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, dispatch_cycles=7)
        log = []
        drain_worker(env, d, 0, log, service=0)
        self.submit_mixed(d, [10, 10, 10])
        env.run()
        times = sorted(t for t, _l, _i in log)
        assert times[0] >= 7
        assert times[1] - times[0] >= 7


class TestAccounting:
    def test_pending_work_includes_overhead(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, dispatch_cycles=0,
                            work_overhead=100)
        tt = make_type()
        d.submit(tt.instantiate({"i": 0, "trips": 10}))
        env.run()  # dispatch happens; no worker pops
        assert d.pending_work[0] == 110
        assert d.pending_count[0] == 1

    def test_completion_clears_accounting(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log)
        d.submit(make_type().instantiate({"i": 0}))
        env.run()
        assert d.pending_work[0] == 0
        assert d.pending_count[0] == 0
        assert d.outstanding == 0

    def test_drained_fires_once_all_complete(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log)
        drain_worker(env, d, 1, log)
        tt = make_type()
        for i in range(5):
            d.submit(tt.instantiate({"i": i}))
        assert not d.drained.triggered
        env.run()
        assert d.drained.triggered


class TestStealing:
    def test_steal_moves_queued_tasks(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="steal",
                            dispatch_cycles=0, steal_cycles=5)
        tt = make_type()
        # Fill lane 0's queue directly (no workers yet).
        for i in range(4):
            d.submit(tt.instantiate({"i": i}))
        env.run()
        before = d.queues[0].level + d.queues[1].level

        def thief():
            stolen = yield from d.try_steal(1)
            return stolen

        p = env.process(thief())
        env.run()
        assert p.value >= 1
        assert d.queues[0].level + d.queues[1].level == before
        assert d.counters.get("dispatch.steals") == 1

    def test_steal_noop_for_other_policies(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="work-aware")

        def thief():
            stolen = yield from d.try_steal(1)
            return stolen

        p = env.process(thief())
        env.run()
        assert p.value == 0

    def test_steal_noop_when_nothing_queued(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="steal")

        def thief():
            stolen = yield from d.try_steal(0)
            return stolen

        p = env.process(thief())
        env.run()
        assert p.value == 0

    def test_steal_noop_when_thief_is_richest(self):
        # Round-robin placement puts 2 tasks on lane 0, 1 on lane 1: the
        # richest queue is the thief's own, so the steal must be a no-op —
        # no steal_cycles paid, no counter bump.
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="steal",
                            dispatch_cycles=0, steal_cycles=5)
        tt = make_type()
        for i in range(3):
            d.submit(tt.instantiate({"i": i}))
        env.run()
        assert d.queues[0].level == 2

        def thief():
            stolen = yield from d.try_steal(0)
            return stolen

        p = env.process(thief())
        env.run()
        assert p.value == 0
        assert env.now == 0  # no steal latency charged
        assert d.counters.get("dispatch.steals") == 0

    def test_steal_tie_picks_lowest_indexed_victim(self):
        # Lanes 0 and 1 tie as richest (2 queued each after round-robin
        # placement of 6 tasks over 3 lanes); the victim choice must be
        # deterministic — max() breaks the tie toward the lowest index.
        env = Environment()
        d = make_dispatcher(env, lanes=3, policy="steal",
                            dispatch_cycles=0, steal_cycles=5)
        tt = make_type()
        for i in range(6):
            d.submit(tt.instantiate({"i": i}))
        env.run()
        assert [q.level for q in d.queues] == [2, 2, 2]

        def thief():
            stolen = yield from d.try_steal(2)
            return stolen

        p = env.process(thief())
        env.run()
        assert p.value == 1  # half of the victim's 2 queued tasks
        assert [q.level for q in d.queues] == [1, 2, 3]
        assert d.counters.get("dispatch.steals") == 1


class TestStreamConsumerPlacement:
    def test_consumer_avoids_running_producer_lane(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, dispatch_cycles=0)
        placements = {}

        def worker(lane_id):
            queue = d.queues[lane_id]
            while True:
                task = yield queue.get()
                d.kick()
                d.task_started(task)
                placements[task.args["i"]] = lane_id
                yield env.timeout(200)
                d.task_completed(task)

        env.process(worker(0))
        env.process(worker(1))
        tt = make_type()
        producer = tt.instantiate({"i": 0})
        consumer = tt.instantiate({"i": 1}, stream_from=[producer])
        d.submit(producer)
        d.submit(consumer)
        env.run()
        assert placements[0] != placements[1]
