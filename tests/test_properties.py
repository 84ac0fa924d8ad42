"""Property-based tests over randomly generated programs and graphs.

These are the repository's strongest correctness guarantees:

- *Execution equivalence*: for arbitrary dependence-correct task graphs,
  Delta (under any feature combination) executes exactly the task set the
  static expansion produces, with the same functional result, and always
  terminates (no scheduling deadlock).
- *Mapper validity*: arbitrary well-formed DFGs map to placements that
  respect FU capabilities and routes that are contiguous mesh paths, with
  an II no better than the analytic lower bounds.
- *Kernel invariants*: stores preserve FIFO order; bandwidth servers never
  exceed their configured rate.
"""

from hypothesis import given, settings, strategies as st

from repro.arch.config import FabricConfig, FeatureFlags, default_delta_config
from repro.arch.dfg import Dfg, Op
from repro.arch.mapper import Mapper
from repro.baseline.static import StaticParallel
from repro.arch.config import default_baseline_config
from repro.core.delta import Delta
from repro.core.program import Program
from repro.core.task import TaskType
from repro.graph.ir import EdgeKind, recover_structure
from repro.arch.dfg import dot_product_dfg
from repro.core.annotations import ReadSpec, WorkHint, WriteSpec
from repro.sim import BandwidthServer, Environment, Store
from tests.test_graph import reference_expansion


# ------------------------------------------------------ random programs

@st.composite
def random_program_spec(draw):
    """A dependence-correct random task graph description."""
    n = draw(st.integers(min_value=1, max_value=14))
    tasks = []
    for i in range(n):
        trips = draw(st.integers(min_value=1, max_value=400))
        write_kb = draw(st.sampled_from([0, 64, 256, 1024]))
        dep_kind = "none"
        dep_target = None
        if i > 0:
            dep_kind = draw(st.sampled_from(["none", "after", "stream"]))
            if dep_kind != "none":
                dep_target = draw(st.integers(min_value=0, max_value=i - 1))
        shared = draw(st.booleans())
        tasks.append((trips, write_kb, dep_kind, dep_target, shared))
    return tasks


def build_program_from_spec(spec):
    state = {"ran": []}

    def kernel(ctx, args):
        ctx.state["ran"].append(args["i"])

    task_type = TaskType(
        name="rand",
        dfg=dot_product_dfg("rand"),
        kernel=kernel,
        trips=lambda args: args["trips"],
        reads=lambda args: tuple(
            [ReadSpec(nbytes=args["trips"] * 4)]
            + ([ReadSpec(nbytes=2048, region="shared", shared=True)]
               if args["shared"] else [])),
        writes=lambda args: (
            (WriteSpec(nbytes=args["wb"]),) if args["wb"] else ()),
        work_hint=WorkHint(lambda args: args["trips"]),
    )
    instances = []
    for i, (trips, write_b, dep_kind, dep_target, shared) in enumerate(spec):
        after = []
        stream_from = []
        if dep_kind == "after":
            after = [instances[dep_target]]
        elif dep_kind == "stream":
            stream_from = [instances[dep_target]]
        instances.append(task_type.instantiate(
            {"i": i, "trips": trips, "wb": write_b, "shared": shared},
            after=after, stream_from=stream_from))
    return Program("random", state, instances)


FEATURE_COMBOS = [
    FeatureFlags(False, False, False),
    FeatureFlags(True, False, False),
    FeatureFlags(True, True, False),
    FeatureFlags(True, True, True),
    FeatureFlags(True, True, True, config_affinity=True, prefetch=True),
]


@settings(max_examples=20, deadline=None)
@given(spec=random_program_spec(),
       combo=st.integers(min_value=0, max_value=len(FEATURE_COMBOS) - 1),
       lanes=st.sampled_from([1, 2, 4]))
def test_delta_executes_any_program(spec, combo, lanes):
    """Delta terminates and runs every task exactly once, any features."""
    program = build_program_from_spec(spec)
    config = default_delta_config(lanes=lanes,
                                  features=FEATURE_COMBOS[combo])
    result = Delta(config).run(program)
    assert sorted(result.state["ran"]) == list(range(len(spec)))
    assert result.tasks_executed == len(spec)


@settings(max_examples=15, deadline=None)
@given(spec=random_program_spec())
def test_delta_matches_static_expansion(spec):
    """Delta and the static baseline compute identical functional state."""
    delta_result = Delta(default_delta_config(lanes=2)).run(
        build_program_from_spec(spec))
    static_result = StaticParallel(default_baseline_config(lanes=2)).run(
        build_program_from_spec(spec))
    assert sorted(delta_result.state["ran"]) == \
        sorted(static_result.state["ran"])
    assert delta_result.tasks_executed == static_result.tasks_executed


@settings(max_examples=15, deadline=None)
@given(spec=random_program_spec())
def test_expansion_task_count_matches(spec):
    expanded = recover_structure(build_program_from_spec(spec))
    assert expanded.task_count == len(spec)


@settings(max_examples=25, deadline=None)
@given(spec=random_program_spec())
def test_recovered_structure_matches_legacy_expansion(spec):
    """The TaskGraph IR's task order and barrier phases equal the naive
    breadth-first expansion (``reference_expansion``, what the
    static baseline's phases always were) on arbitrary
    dependence-correct programs."""
    tasks, phases = reference_expansion(build_program_from_spec(spec))
    graph = recover_structure(build_program_from_spec(spec))
    assert graph.task_count == len(tasks)
    assert graph.total_work == sum(t.work for t in tasks)
    assert [(t.type.name, t.depth, t.args) for t in graph.tasks] == \
        [(t.type.name, t.depth, t.args) for t in tasks]
    assert [[t.args["i"] for t in p] for p in graph.phases] == \
        [[t.args["i"] for t in p] for p in phases]
    # Typed edges mirror the spec's dependence choices exactly.
    n_after = sum(1 for t in spec if t[2] == "after")
    n_stream = sum(1 for t in spec if t[2] == "stream")
    assert len(graph.edges_of_kind(EdgeKind.AFTER)) == n_after
    assert len(graph.edges_of_kind(EdgeKind.STREAM)) == n_stream


@settings(max_examples=10, deadline=None)
@given(spec=random_program_spec(), seed=st.integers(0, 3))
def test_delta_deterministic_across_runs(spec, seed):
    config = default_delta_config(lanes=2, seed=seed)
    a = Delta(config).run(build_program_from_spec(spec))
    b = Delta(config).run(build_program_from_spec(spec))
    assert a.cycles == b.cycles


# ------------------------------------------------------ random DFGs

@st.composite
def random_dfg(draw):
    """A small well-formed DFG: DAG edges plus optional accumulators."""
    dfg = Dfg("random")
    n = draw(st.integers(min_value=2, max_value=10))
    ops = [Op.INPUT]
    for _ in range(n - 2):
        ops.append(draw(st.sampled_from(
            [Op.ADD, Op.MUL, Op.CMP, Op.SELECT, Op.SHIFT])))
    ops.append(Op.OUTPUT)
    ids = [dfg.add(op) for op in ops]
    # Chain backbone keeps the graph connected INPUT -> ... -> OUTPUT.
    for a, b in zip(ids, ids[1:]):
        dfg.connect(a, b)
    # Extra forward edges (respect id order => acyclic). Never originate
    # from the OUTPUT node (structurally illegal).
    extra = draw(st.integers(min_value=0, max_value=4))
    for _ in range(extra):
        src = draw(st.integers(min_value=0, max_value=n - 2))
        dst = draw(st.integers(min_value=src + 1, max_value=n - 1))
        dfg.connect(ids[src], ids[dst])
    # Optional self-recurrence on a middle node.
    if n > 2 and draw(st.booleans()):
        node = draw(st.integers(min_value=1, max_value=n - 2))
        dfg.connect(ids[node], ids[node], distance=1)
    return dfg


@settings(max_examples=30, deadline=None)
@given(dfg=random_dfg())
def test_mapper_produces_valid_mapping(dfg):
    mapper = Mapper(FabricConfig())
    Mapper.clear_cache()
    mapping = mapper.map(dfg)
    # Placement respects capabilities.
    for node_id, pos in mapping.placement.items():
        node = dfg.nodes[node_id]
        assert mapper.fabric.cells[pos].supports(node.fu_class)
    # Routes are contiguous and connect the right endpoints.
    for (src, dst, _idx), path in mapping.routes.items():
        assert path[0] == mapping.placement[src]
        assert path[-1] == mapping.placement[dst]
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
    # II bounds.
    assert mapping.ii >= mapping.resource_mii
    assert mapping.ii + 1e-9 >= mapping.recurrence_mii - 1e-6
    assert mapping.depth >= 1


# ------------------------------------------------------ kernel invariants

@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.integers(), min_size=1, max_size=30),
       capacity=st.integers(min_value=1, max_value=8))
def test_store_preserves_fifo_order(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)
        store.close()

    def consumer():
        while True:
            got = yield store.get()
            if got is Store.END:
                return
            received.append(got)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=10000),
                      min_size=1, max_size=20),
       rate=st.floats(min_value=0.5, max_value=64))
def test_bandwidth_server_never_exceeds_rate(sizes, rate):
    env = Environment()
    server = BandwidthServer(env, bytes_per_cycle=rate, latency=0)
    done = []

    for size in sizes:
        server.transfer_then(size, lambda _arg: None)
    # fence: after all queued service
    server.transfer_then(0, lambda _arg: done.append(env.now))
    env.run()
    total = sum(sizes)
    assert env.now >= total / rate - 1e-6
    assert server.utilization() <= 1.0 + 1e-9
    assert server.total_bytes == total
