"""The scheduler lab: registry, policy protocol, and the tournament.

Covers the `repro.sched` seam end to end:

- the name-keyed registry is the single source of truth (config
  validation and the CLI ``--policy`` choices derive from it);
- each tournament policy's decision rule, driven directly against a
  bare dispatcher;
- every registered policy completes every registered workload on both
  runtimes, deterministically, sanitizer-clean, and under lane faults
  (steal policies must never involve a dead lane);
- the opt-in ``sched.*`` counter group is purely observational;
- the policy-matrix tournament produces a ranked table.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import (
    DispatchConfig,
    FeatureFlags,
    default_baseline_config,
    default_delta_config,
)
from repro.arch.dfg import dot_product_dfg
from repro.baseline.static import StaticParallel
from repro.core.annotations import WorkHint
from repro.core.delta import Delta
from repro.core.dispatcher import Dispatcher
from repro.core.task import TaskType
from repro.graph import recover_structure
from repro.sched import (
    SchedulingPolicy,
    StructureHints,
    create_policy,
    policy_names,
    policy_uses_structure,
    register_policy,
)
from repro.sched.structure import hints_from_graph
from repro.sim import Environment
from repro.sim.faults import FaultPlan, LaneFailure
from repro.util.counters import Counters
from repro.util.fingerprint import result_stats
from repro.util.rng import DeterministicRng
from repro.workloads import get_workload
from repro.workloads.registry import workload_names
from tests.test_properties import build_program_from_spec, random_program_spec

EXPECTED_POLICIES = (
    "block-partition", "critical-path", "random", "round-robin",
    "steal", "steal-tuned", "streaming-depth-first", "work-aware",
)


# ------------------------------------------------------------ harness

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
    """A fake lane worker: pop, wait ``service`` cycles, complete."""

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


# ------------------------------------------------------------ registry

class TestRegistry:
    def test_all_builtins_registered(self):
        assert policy_names() == EXPECTED_POLICIES

    def test_create_policy_returns_fresh_instances(self):
        a = create_policy("work-aware")
        b = create_policy("work-aware")
        assert a is not b
        assert a.name == "work-aware"

    def test_create_policy_unknown_name_lists_registry(self):
        with pytest.raises(KeyError, match="work-aware"):
            create_policy("fifo-lifo")

    def test_reregistering_same_class_is_noop(self):
        from repro.sched.policies import WorkAwarePolicy

        assert register_policy(WorkAwarePolicy) is WorkAwarePolicy
        assert policy_names() == EXPECTED_POLICIES

    def test_claiming_taken_name_is_rejected(self):
        class Impostor(SchedulingPolicy):
            name = "work-aware"

        with pytest.raises(ValueError, match="already registered"):
            register_policy(Impostor)

    def test_nameless_policy_is_rejected(self):
        class Nameless(SchedulingPolicy):
            pass

        with pytest.raises(ValueError, match="non-empty"):
            register_policy(Nameless)

    def test_uses_structure_flags(self):
        assert policy_uses_structure("critical-path")
        assert policy_uses_structure("block-partition")
        assert policy_uses_structure("steal-tuned")
        assert not policy_uses_structure("work-aware")
        assert not policy_uses_structure("streaming-depth-first")
        assert not policy_uses_structure("no-such-policy")

    def test_dispatch_config_validates_from_registry(self):
        with pytest.raises(ValueError) as err:
            DispatchConfig(policy="bogus")
        # The error names every registered policy — proof the config
        # layer reads the registry, not a hardcoded list.
        for name in EXPECTED_POLICIES:
            assert name in str(err.value)

    def test_every_registered_policy_is_a_valid_config(self):
        for name in policy_names():
            assert DispatchConfig(policy=name).policy == name

    def test_cli_choices_come_from_registry(self):
        import argparse

        from repro.cli import _build_parser

        seen = []

        def collect(p):
            for action in p._actions:
                if action.dest == "policy":
                    seen.append(tuple(action.choices))
                elif isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        collect(sub)

        collect(_build_parser())
        assert seen, "no --policy option found"
        for choices in seen:
            assert choices == policy_names()


# ------------------------------------------------------------ hints

def chain_spec(works):
    """(trips, write_kb, dep_kind, dep_target, shared) AFTER-chain spec."""
    spec = [(works[0], 0, "none", None, False)]
    for i, work in enumerate(works[1:], start=1):
        spec.append((work, 0, "after", i - 1, False))
    return spec


class TestStructureHints:
    def test_after_chain_bottom_levels_accumulate(self):
        graph = recover_structure(
            build_program_from_spec(chain_spec([100, 10, 1])))
        hints = hints_from_graph(graph)
        # AFTER edges serialize: each task's bottom level includes all
        # downstream work. Tasks share a type, so keys differ by depth.
        assert hints.priority[("rand", 0)] == pytest.approx(111)
        assert hints.priority[("rand", 1)] == pytest.approx(11)
        assert hints.priority[("rand", 2)] == pytest.approx(1)
        assert hints.phase_sizes == (1, 1, 1)
        assert hints.task_count == 3
        assert hints.total_work == pytest.approx(111)
        assert hints.cp_work == pytest.approx(111)
        assert hints.parallelism == pytest.approx(1.0)
        assert hints.mean_task_work == pytest.approx(111 / 3)

    def test_stream_chain_overlaps_bottom_levels(self):
        spec = [(100, 64, "none", None, False),
                (40, 0, "stream", 0, False)]
        graph = recover_structure(build_program_from_spec(spec))
        hints = hints_from_graph(graph)
        # STREAM edges overlap: the producer's level is the max of its
        # own work and its consumer's level, not the sum.
        assert hints.priority[("rand", 0)] == pytest.approx(100)
        assert hints.priority[("rand", 1)] == pytest.approx(40)
        assert hints.parallelism > 1.0

    def test_group_priority_takes_max_member(self):
        # Two depth-0 tasks of the same type: one feeds a long AFTER
        # chain, one is a leaf. Their shared (type, depth) key must get
        # the *critical* member's level.
        spec = [(10, 0, "none", None, False),
                (10, 0, "none", None, False),
                (500, 0, "after", 0, False)]
        graph = recover_structure(build_program_from_spec(spec))
        hints = hints_from_graph(graph)
        assert hints.priority[("rand", 0)] == pytest.approx(510)



# ------------------------------------------------------------ decisions

class TestCriticalPathPolicy:
    def test_dispatch_order_follows_attached_priority(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, policy="critical-path",
                            dispatch_cycles=0)
        # Type "b" outranks "a" despite having less work of its own.
        d.attach_hints(StructureHints(
            priority={("a", 0): 10.0, ("b", 0): 900.0}, task_count=2))
        order = []
        drain_worker(env, d, 0, order, service=1)
        d.submit(make_type("a").instantiate({"i": 0, "trips": 100}))
        d.submit(make_type("b").instantiate({"i": 1, "trips": 10}))
        env.run()
        assert [i for _t, _l, i in order] == [1, 0]

    def test_without_hints_falls_back_to_work(self):
        env = Environment()
        d = make_dispatcher(env, lanes=1, policy="critical-path",
                            dispatch_cycles=0)
        order = []
        drain_worker(env, d, 0, order, service=1)
        tt = make_type()
        d.submit(tt.instantiate({"i": 0, "trips": 10}))
        d.submit(tt.instantiate({"i": 1, "trips": 500}))
        d.submit(tt.instantiate({"i": 2, "trips": 50}))
        env.run()
        assert [i for _t, _l, i in order][0] == 1

    @pytest.mark.parametrize("sched_stats,expected", [(False, 0.0),
                                                      (True, 1.0)])
    def test_inversion_counted_only_with_sched_stats(self, sched_stats,
                                                     expected):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="critical-path",
                            dispatch_cycles=0, sched_stats=sched_stats)
        d.attach_hints(StructureHints(
            priority={("hot", 0): 900.0, ("cold", 0): 1.0}, task_count=2))
        producer = make_type("p").instantiate({"i": 9})
        producer.lane_id = 1
        producer.started = True
        hot = make_type("hot").instantiate({"i": 0},
                                           stream_from=[producer])
        cold = make_type("cold").instantiate({"i": 1})
        # The hot task may only use lane 0 (lane 1 holds its in-flight
        # producer); saturate lane 0 past LOW_WATER, so the cold task
        # dispatches (to lane 1) while the hot one is passed over.
        for i in range(Dispatcher.LOW_WATER):
            d.queues[0].put(make_type("fill").instantiate({"i": 90 + i}))
        d.pool.extend([hot, cold])
        picked = d.policy.select(d)
        assert picked is not None and picked[0] is cold
        assert d.counters.get("sched.priority_inversions") == expected


class TestStreamingDepthFirstPolicy:
    def test_live_stream_consumers_come_first(self):
        from repro.sched.policies import StreamingDepthFirstPolicy

        key = StreamingDepthFirstPolicy._pool_key
        tt = make_type()
        producer = tt.instantiate({"i": 0})
        producer.started = True
        consumer = tt.instantiate({"i": 1}, stream_from=[producer])
        idle_producer = tt.instantiate({"i": 2})
        blocked = tt.instantiate({"i": 3}, stream_from=[idle_producer])
        independent = tt.instantiate({"i": 4})
        assert key(consumer) < key(blocked)
        assert key(consumer) < key(independent)
        # Completed producers stop conferring urgency.
        producer.completed = True
        assert key(consumer)[0] == 1

    def test_deeper_tasks_beat_shallower(self):
        from repro.sched.policies import StreamingDepthFirstPolicy

        key = StreamingDepthFirstPolicy._pool_key
        tt = make_type()
        shallow = tt.instantiate({"i": 0})
        deep = tt.instantiate({"i": 1}, after=[shallow])
        assert deep.depth > shallow.depth
        assert key(deep) < key(shallow)

    def test_end_to_end_dispatch_prefers_live_consumer(self):
        # One lane, so the pool *order* is what decides: the consumer of
        # an in-flight producer must dispatch ahead of the
        # earlier-arrived independent task.
        env = Environment()
        d = make_dispatcher(env, lanes=1, policy="streaming-depth-first",
                            dispatch_cycles=0)
        order = []
        drain_worker(env, d, 0, order, service=1)
        tt = make_type()
        producer = tt.instantiate({"i": 0})
        producer.started = True  # in flight elsewhere
        consumer = tt.instantiate({"i": 1}, stream_from=[producer])
        independent = tt.instantiate({"i": 2})
        d.submit(independent)
        d.submit(consumer)  # ready at once: its producer already started
        env.run()
        assert [i for _t, _l, i in order] == [1, 2]


class TestBlockPartitionPolicy:
    def test_blocks_follow_phase_slots(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="block-partition",
                            dispatch_cycles=0)
        d.attach_hints(StructureHints(phase_sizes=(4,), task_count=4))
        log = []
        drain_worker(env, d, 0, log, service=1)
        drain_worker(env, d, 1, log, service=1)
        tt = make_type()
        for i in range(4):
            d.submit(tt.instantiate({"i": i}))
        env.run()
        placements = {i: lane for _t, lane, i in log}
        # Block split of 4 slots over 2 lanes: first half lane 0,
        # second half lane 1, by arrival order.
        assert placements == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_without_hints_degrades_to_cyclic(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="block-partition",
                            dispatch_cycles=0)
        log = []
        drain_worker(env, d, 0, log, service=1)
        drain_worker(env, d, 1, log, service=1)
        tt = make_type()
        for i in range(4):
            d.submit(tt.instantiate({"i": i}))
        env.run()
        placements = {i: lane for _t, lane, i in log}
        assert placements == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_dead_target_falls_back_to_surviving_lane(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="block-partition",
                            dispatch_cycles=0)
        d.attach_hints(StructureHints(phase_sizes=(2,), task_count=2))
        d.dead_lanes.add(0)  # slots point at lane 0; it is gone
        log = []
        drain_worker(env, d, 1, log, service=1)
        tt = make_type()
        d.submit(tt.instantiate({"i": 0}))
        d.submit(tt.instantiate({"i": 1}))
        env.run()
        assert {lane for _t, lane, _i in log} == {1}
        assert d.drained.triggered



class TestStealTunedPolicy:
    def bind(self, policy, steal_cycles=48, lanes=4, **cfg_kwargs):
        config = DispatchConfig(policy="steal-tuned",
                                steal_cycles=steal_cycles, **cfg_kwargs)
        policy.bind(config, lanes)
        return config

    def test_defaults_without_hints(self):
        policy = create_policy("steal-tuned")
        self.bind(policy)
        assert policy._threshold == 1
        assert policy.idle_backoff == 16

    def test_threshold_scales_with_task_cost(self):
        import math

        policy = create_policy("steal-tuned")
        config = self.bind(policy, steal_cycles=48)
        # Tiny tasks: stealing half a shallow backlog cannot amortize
        # the latency, so the threshold rises.
        policy.attach(StructureHints(total_work=40.0, cp_work=10.0,
                                     task_count=40))
        cost = 1.0 + config.work_overhead
        assert policy._threshold == max(1, math.ceil(96.0 / cost))
        # Huge tasks: any backlog is worth it.
        policy.attach(StructureHints(total_work=4e6, cp_work=10.0,
                                     task_count=4))
        assert policy._threshold == 1

    def test_backoff_doubles_when_parallelism_starved(self):
        policy = create_policy("steal-tuned")
        self.bind(policy, steal_cycles=48, lanes=8)
        # parallelism = 4 < 8 lanes: poll half as often.
        policy.attach(StructureHints(total_work=400.0, cp_work=100.0,
                                     task_count=4))
        assert policy.idle_backoff == 32
        # Ample parallelism: the plain steal_cycles/3 cadence.
        policy.attach(StructureHints(total_work=6400.0, cp_work=100.0,
                                     task_count=64))
        assert policy.idle_backoff == 16

    def test_rebind_resets_tuning(self):
        policy = create_policy("steal-tuned")
        self.bind(policy, work_overhead=0)
        policy.attach(StructureHints(total_work=40.0, cp_work=10.0,
                                     task_count=40))
        assert policy._threshold > 1
        self.bind(policy)
        assert policy._threshold == 1
        assert policy.idle_backoff == 16
        assert policy.hints is None

    def test_threshold_gates_victim_choice(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="steal-tuned",
                            dispatch_cycles=0, steal_cycles=5)
        tt = make_type()
        for i in range(4):
            d.submit(tt.instantiate({"i": i}))
        env.run()
        assert d.queues[0].level == 2
        d.policy._threshold = 3  # richest backlog (2) is below threshold

        def thief():
            stolen = yield from d.try_steal(1)
            return stolen

        p = env.process(thief())
        env.run()
        assert p.value == 0
        assert env.now == 0  # skipped before paying steal latency
        d.policy._threshold = 1
        p = env.process(thief())
        env.run()
        assert p.value >= 1


# ------------------------------------------------------------ steal victims

def oracle_victim(policy, d, thief_lane):
    """The victim rule as first written: the richest alive lane by
    ``max`` (the first one on a tie), then the thief and too-poor rules
    (an empty queue for ``steal``, a backlog below the tuned threshold
    for ``steal-tuned``)."""
    alive = [i for i in range(d.num_lanes) if i not in d.dead_lanes]
    if not alive:
        return None
    victim = max(alive, key=lambda i: d.queues[i].level)
    threshold = policy._threshold if policy.name == "steal-tuned" else 1
    if victim == thief_lane or d.queues[victim].level < threshold:
        return None
    return victim


def queue_view(levels, dead=()):
    """The part of a dispatcher that ``choose_victim`` reads."""
    return SimpleNamespace(
        num_lanes=len(levels), dead_lanes=set(dead),
        queues=[SimpleNamespace(level=level) for level in levels])


class TestChooseVictim:
    def steal_policy(self, name, threshold=1):
        policy = create_policy(name)
        policy.bind(DispatchConfig(policy=name), 4)
        if name == "steal-tuned":
            policy._threshold = threshold
        return policy

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           name=st.sampled_from(["steal", "steal-tuned"]),
           levels=st.lists(st.integers(0, 6), min_size=1, max_size=16),
           threshold=st.integers(1, 7))
    def test_matches_the_oracle(self, data, name, levels, threshold):
        lanes = range(len(levels))
        dead = data.draw(st.sets(st.sampled_from(lanes)))
        thief = data.draw(st.sampled_from(lanes))
        policy = self.steal_policy(name, threshold)
        d = queue_view(levels, dead)
        assert policy.choose_victim(d, thief) == \
            oracle_victim(policy, d, thief)

    @pytest.mark.parametrize("name", ["steal", "steal-tuned"])
    def test_tie_goes_to_the_lowest_index(self, name):
        policy = self.steal_policy(name)
        assert policy.choose_victim(queue_view([3, 5, 5, 2]), 0) == 1
        assert policy.choose_victim(queue_view([3, 5, 5, 2], dead={1}),
                                    0) == 2

    @pytest.mark.parametrize("name", ["steal", "steal-tuned"])
    def test_no_alive_lane_means_no_victim(self, name):
        policy = self.steal_policy(name)
        assert policy.choose_victim(queue_view([4, 2], dead={0, 1}),
                                    1) is None

    @pytest.mark.parametrize("name", ["steal", "steal-tuned"])
    def test_richest_thief_steals_from_nobody(self, name):
        policy = self.steal_policy(name)
        assert policy.choose_victim(queue_view([1, 4, 4]), 1) is None
        assert policy.choose_victim(queue_view([0, 0]), 1) is None

    def test_tuned_threshold_skips_a_shallow_backlog(self):
        assert self.steal_policy("steal-tuned", threshold=3).choose_victim(
            queue_view([2, 0]), 1) is None
        assert self.steal_policy("steal-tuned", threshold=2).choose_victim(
            queue_view([2, 0]), 1) == 0
        assert self.steal_policy("steal").choose_victim(
            queue_view([1, 0]), 1) == 0


# ------------------------------------------------------------ steal x faults

class TestStealUnderFaults:
    def fill_lane0(self, d, n=4):
        tt = make_type()
        for i in range(n):
            d.submit(tt.instantiate({"i": i}))

    def test_dead_lane_is_never_the_victim(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="steal",
                            dispatch_cycles=0, steal_cycles=5)
        self.fill_lane0(d)
        env.run()
        assert d.queues[0].level == 2
        # Lane 0 dies with its backlog still visible on the queue (the
        # victim filter must not rely on fail_lane's rescue).
        d.dead_lanes.add(0)

        def thief():
            stolen = yield from d.try_steal(1)
            return stolen

        p = env.process(thief())
        env.run()
        assert p.value == 0
        assert d.counters.get("dispatch.steals") == 0

    def test_dead_thief_never_steals(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="steal",
                            dispatch_cycles=0, steal_cycles=5)
        self.fill_lane0(d)
        env.run()
        rich_before = d.queues[0].level
        count_before = d.pending_count[1]
        work_before = d.pending_work[1]
        d.dead_lanes.add(1)

        def thief():
            stolen = yield from d.try_steal(1)
            return stolen

        p = env.process(thief())
        env.run()
        # No steal, no latency paid, no work credited to the dead lane.
        assert p.value == 0
        assert env.now == 0
        assert d.queues[0].level == rich_before
        assert d.pending_count[1] == count_before
        assert d.pending_work[1] == work_before

    def test_fail_lane_rescues_then_redispatches_live_only(self):
        env = Environment()
        d = make_dispatcher(env, lanes=2, policy="steal",
                            dispatch_cycles=0)
        self.fill_lane0(d)
        env.run()
        backlog = d.queues[0].level
        assert backlog > 0
        rescued = d.fail_lane(0)
        assert rescued == backlog
        log = []
        drain_worker(env, d, 1, log, service=1)
        env.run()
        assert d.drained.triggered
        assert {lane for _t, lane, _i in log} == {1}

    @pytest.mark.parametrize("policy", ["steal", "steal-tuned"])
    def test_lane_failure_run_is_sanitizer_clean(self, policy):
        workload = get_workload("micro-skewed")
        plan = FaultPlan(lane_failures=(LaneFailure(lane=1, cycle=500.0),))
        config = (default_delta_config(lanes=4).with_policy(policy)
                  .with_sanitize(True).with_faults(plan))
        sched_hints = None
        if policy_uses_structure(policy):
            sched_hints = hints_from_graph(
                recover_structure(workload.build_program()))
        result = Delta(config).run(workload.build_program(),
                                   sched_hints=sched_hints)
        workload.check(result.state)
        assert result.counters.get("faults.lane_failstop") == 1
        # A dead lane gains no work after its fail-stop: every task
        # completed, so conservation held (the sanitizer enforces the
        # per-event invariants on the way).
        assert result.tasks_executed > 0


# ------------------------------------------------------------ seam coverage

ALL_WORKLOADS = tuple(workload_names())
DETERMINISM_WORKLOADS = ("micro-chain", "micro-shared", "spmv")


class TestPolicyCoverage:
    @pytest.mark.parametrize("policy", EXPECTED_POLICIES)
    def test_policy_completes_every_workload_on_delta(self, policy):
        config = default_delta_config(lanes=4).with_policy(policy)
        for name in ALL_WORKLOADS:
            workload = get_workload(name)
            sched_hints = None
            if policy_uses_structure(policy):
                sched_hints = hints_from_graph(
                recover_structure(workload.build_program()))
            result = Delta(config).run(workload.build_program(),
                                       sched_hints=sched_hints)
            workload.check(result.state)
            assert result.cycles > 0

    @pytest.mark.parametrize("policy", EXPECTED_POLICIES)
    def test_policy_partitions_static_baseline(self, policy):
        # Every policy is a valid static config, and the static schedule
        # block-splits its phases the same way whichever one it names.
        config = default_baseline_config(lanes=4)
        runner = StaticParallel(config.with_policy(policy))
        for name in ("micro-chain", "histogram", "wavefront"):
            workload = get_workload(name)
            result = runner.run(workload.build_program())
            workload.check(result.state)
            assert result_stats(result) == result_stats(
                StaticParallel(config).run(workload.build_program()))

    @pytest.mark.parametrize("policy", EXPECTED_POLICIES)
    def test_policy_is_seed_deterministic(self, policy):
        config = default_delta_config(lanes=4).with_policy(policy)
        for name in DETERMINISM_WORKLOADS:
            workload = get_workload(name)
            hints = (hints_from_graph(
                recover_structure(workload.build_program()))
                if policy_uses_structure(policy) else None)
            a = Delta(config).run(workload.build_program(),
                                  sched_hints=hints)
            b = Delta(config).run(workload.build_program(),
                                  sched_hints=hints)
            assert result_stats(a) == result_stats(b)

    @settings(max_examples=12, deadline=None)
    @given(spec=random_program_spec(),
           policy=st.sampled_from(EXPECTED_POLICIES),
           lanes=st.sampled_from([1, 2, 4]))
    def test_any_policy_runs_any_program_sanitizer_clean(
            self, spec, policy, lanes):
        program = build_program_from_spec(spec)
        config = (default_delta_config(lanes=lanes).with_policy(policy)
                  .with_sanitize(True))
        hints = (hints_from_graph(
            recover_structure(build_program_from_spec(spec)))
            if policy_uses_structure(policy) else None)
        result = Delta(config).run(program, sched_hints=hints)
        # Task conservation: every spec task ran exactly once.
        assert sorted(result.state["ran"]) == list(range(len(spec)))
        assert result.tasks_executed == len(spec)


# ------------------------------------------------------------ observability

class TestSchedStats:
    def test_sched_stats_is_observational(self):
        workload = get_workload("micro-shared")
        base = default_delta_config(lanes=4)
        plain = Delta(base).run(workload.build_program())
        armed = Delta(base.with_sched_stats(True)).run(
            workload.build_program())
        assert armed.cycles == plain.cycles
        assert armed.tasks_executed == plain.tasks_executed
        strip = {k: v for k, v in armed.counters.snapshot()
                 if not k.startswith("sched.")}
        assert strip == dict(plain.counters.snapshot())

    def test_default_run_writes_no_sched_counters(self):
        result = Delta(default_delta_config(lanes=4)).run(
            get_workload("micro-shared").build_program())
        assert not [k for k, _v in result.counters.snapshot()
                    if k.startswith("sched.")]

    def test_armed_run_records_pool_peak(self):
        result = Delta(default_delta_config(lanes=4)
                       .with_sched_stats(True)).run(
            get_workload("micro-shared").build_program())
        assert result.counters.get("sched.pool_peak") >= 1

    def test_armed_steal_run_records_attempts(self):
        result = Delta(default_delta_config(lanes=4).with_policy("steal")
                       .with_sched_stats(True)).run(
            get_workload("micro-skewed").build_program())
        assert result.counters.get("sched.steal_attempts") > 0


# ------------------------------------------------------------ tournament

class TestPolicyMatrix:
    def test_smoke_two_workloads(self):
        from repro.eval.policy_matrix import (
            run_policy_matrix,
            tournament_winner,
        )
        from repro.eval.tables import policy_matrix_table

        workloads = [get_workload("micro-chain"),
                     get_workload("micro-shared")]
        outcomes = run_policy_matrix(
            lanes=4, workloads=workloads,
            policies=("work-aware", "steal", "critical-path"), jobs=1)
        assert [o.policy for o in outcomes] == \
            ["work-aware", "steal", "critical-path"]
        for outcome in outcomes:
            assert outcome.speedup > 0
            assert outcome.faulty_speedup > 0
            assert not outcome.failures
        steal_row = outcomes[1]
        assert steal_row.steal_attempts > 0
        winner = tournament_winner(outcomes)
        assert winner.speedup == max(o.speedup for o in outcomes)
        table = policy_matrix_table(outcomes, lanes=4)
        assert "*" + winner.policy in table
        assert "policy tournament" in table

    def test_canned_plan_is_fixed_and_nonempty(self):
        from repro.eval.policy_matrix import canned_fault_plan

        plan = canned_fault_plan()
        assert not plan.is_empty()
        assert plan == canned_fault_plan()  # every policy faces the same

    def test_empty_tournament_rejected(self):
        from repro.eval.policy_matrix import tournament_winner

        with pytest.raises(ValueError):
            tournament_winner([])

    def test_degradation_math(self):
        from repro.eval.policy_matrix import PolicyOutcome

        row = PolicyOutcome(policy="x", uses_structure=False, speedup=2.0,
                            faulty_speedup=1.5, pool_peak=0,
                            steal_attempts=0, steal_hits=0, inversions=0)
        assert row.degradation == pytest.approx(0.25)
        nan_row = PolicyOutcome(policy="x", uses_structure=False,
                                speedup=2.0, faulty_speedup=float("nan"),
                                pool_peak=0, steal_attempts=0,
                                steal_hits=0, inversions=0)
        assert nan_row.degradation != nan_row.degradation
