"""Tests for repro.graph: the TaskGraph IR and its analyses.

Covers the structural contracts the rest of the repository leans on:

- critical path / parallelism on hand-built diamond, chain, and fan-out
  graphs with known answers, under both ``after`` and ``stream`` timing;
- validation diagnostics: dangling dependences (silently accepted by the
  legacy expansion), duplicates, cycles, and insane work estimates;
- view equivalence: ``TaskGraph.as_expanded()`` reproduces the legacy
  ``expand_program`` output on every registered workload;
- sharing sets vs the counters the simulator actually records (multicast
  on Delta, duplicate-fetch bytes on the static baseline).
"""

import pickle

import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.arch.dfg import dot_product_dfg
from repro.baseline.static import StaticParallel
from repro.core.annotations import ReadSpec, WorkHint
from repro.core.delta import Delta
from repro.core.program import Program, expand_program
from repro.core.task import TaskType
from repro.graph import (
    EdgeKind,
    GraphValidationError,
    TaskGraph,
    critical_path,
    graph_dot,
    graph_summary,
    parallelism_profile,
    recover_structure,
    sharing_sets,
    structure_summary,
    summarize,
    work_histogram,
)
from repro.sched.structure import hints_from_graph
from repro.workloads import get_workload
from repro.workloads.registry import workload_names
from repro.workloads.synthetic import SharedReadTasks


def make_type(name="t", shared_region=None, region_bytes=1024):
    """A task type whose work is its ``work`` arg; no-op kernel."""
    reads = (lambda args: ())
    if shared_region is not None:
        reads = (lambda args: (ReadSpec(nbytes=region_bytes,
                                        region=shared_region,
                                        shared=True),))
    return TaskType(
        name=name,
        dfg=dot_product_dfg(name),
        kernel=lambda ctx, args: None,
        trips=lambda args: max(1, int(args["work"])),
        reads=reads,
        work_hint=WorkHint(lambda args: args["work"]),
    )


def program_of(tasks, name="hand-built"):
    return Program(name, {}, tasks)


# ---------------------------------------------------------- critical path

class TestCriticalPath:
    def test_after_chain_is_serial(self):
        tt = make_type()
        a = tt.instantiate({"work": 10})
        b = tt.instantiate({"work": 20}, after=[a])
        c = tt.instantiate({"work": 30}, after=[b])
        graph = recover_structure(program_of([a, b, c]))
        cp = critical_path(graph)
        assert cp.work == 60
        assert cp.length == 3
        assert cp.parallelism == pytest.approx(1.0)
        assert cp.speedup_bound(8) == pytest.approx(1.0)

    def test_stream_chain_pipelines(self):
        # Streamed stages overlap: the span is one stage, not the sum.
        tt = make_type()
        a = tt.instantiate({"work": 10})
        b = tt.instantiate({"work": 10}, stream_from=[a])
        c = tt.instantiate({"work": 10}, stream_from=[b])
        cp = critical_path(recover_structure(program_of([a, b, c])))
        assert cp.work == 10
        assert cp.parallelism == pytest.approx(3.0)

    def test_stream_consumer_cannot_finish_before_producer(self):
        # A cheap consumer of an expensive stream drains when the producer
        # does, so the span is the producer's work, not the consumer's.
        tt = make_type()
        a = tt.instantiate({"work": 100})
        b = tt.instantiate({"work": 1}, stream_from=[a])
        cp = critical_path(recover_structure(program_of([a, b])))
        assert cp.work == 100

    def test_diamond(self):
        tt = make_type()
        root = tt.instantiate({"work": 10})
        left = tt.instantiate({"work": 5}, after=[root])
        right = tt.instantiate({"work": 20}, after=[root])
        join = tt.instantiate({"work": 3}, after=[left, right])
        graph = recover_structure(program_of([root, left, right, join]))
        cp = critical_path(graph)
        assert cp.work == 33  # root -> right -> join
        assert list(cp.task_names) == [root.name, right.name, join.name]
        assert cp.total_work == 38
        assert cp.parallelism == pytest.approx(38 / 33)

    def test_fan_out_bound_by_heaviest_leaf(self):
        tt = make_type()
        root = tt.instantiate({"work": 4})
        leaves = [tt.instantiate({"work": w}, after=[root])
                  for w in (1, 2, 50, 3)]
        cp = critical_path(recover_structure(program_of([root] + leaves)))
        assert cp.work == 54
        assert cp.length == 2

    def test_spawned_children_overlap_spawner(self):
        # SPAWN edges gate on the parent's *start*: a spawned child is in
        # flight while its (heavy) spawner still runs.
        child_type = make_type("child")

        def kernel(ctx, args):
            for _ in range(3):
                ctx.spawn(child_type, {"work": 5})

        root_type = TaskType(
            name="root", dfg=dot_product_dfg("root"), kernel=kernel,
            trips=lambda args: 100,
            work_hint=WorkHint(lambda args: args["work"]))
        graph = recover_structure(
            program_of([root_type.instantiate({"work": 100})]))
        assert len(graph.edges_of_kind(EdgeKind.SPAWN)) == 3
        cp = critical_path(graph)
        assert cp.work == 100  # children hide under the root's work
        assert cp.total_work == 115

    def test_zero_work_parallelism_is_the_task_count(self):
        # No work on the path gives no ratio; every task gets its own lane.
        tt = make_type()
        tasks = [tt.instantiate({"work": 0}) for _ in range(6)]
        graph = recover_structure(program_of(tasks))
        cp = critical_path(graph)
        assert cp.work == 0 and cp.length == 1
        assert cp.parallelism == 6.0
        assert summarize(graph).parallelism == 6.0
        assert hints_from_graph(graph).parallelism == 6.0

    def test_empty_speedup_bound_clamps_to_lanes(self):
        tt = make_type()
        tasks = [tt.instantiate({"work": 1}) for _ in range(64)]
        cp = critical_path(recover_structure(program_of(tasks)))
        assert cp.parallelism == pytest.approx(64.0)
        assert cp.speedup_bound(8) == 8.0
        assert cp.speedup_bound(128) == pytest.approx(64.0)


# ---------------------------------------------------------- analyses

class TestAnalyses:
    def test_phase_profile_matches_depths(self):
        # Phases group by spawn depth, so the joiner must be spawned by a
        # kernel (directly instantiated initial tasks all sit at depth 0).
        tt = make_type()

        def kernel(ctx, args):
            ctx.spawn(tt, {"work": 2},
                      after=[ctx.task] + list(args["join_with"]))

        spawner = TaskType(
            name="r", dfg=dot_product_dfg("r"), kernel=kernel,
            trips=lambda args: 1,
            work_hint=WorkHint(lambda args: args["work"]))
        b = tt.instantiate({"work": 6})
        a = spawner.instantiate({"work": 4, "join_with": [b]})
        profile = parallelism_profile(
            recover_structure(program_of([a, b])))
        assert [p.task_count for p in profile] == [2, 1]
        assert profile[0].work == 10
        assert profile[0].max_task_work == 6
        assert profile[1].balance == pytest.approx(1.0)

    def test_work_histogram_log2_bins(self):
        tt = make_type()
        tasks = [tt.instantiate({"work": w}) for w in (0, 1, 2, 3, 8, 9)]
        hist = dict(work_histogram(recover_structure(program_of(tasks))))
        assert hist == {-1: 1, 0: 1, 1: 2, 3: 2}

    def test_sharing_sets_by_region_name(self):
        shared = make_type("s", shared_region="table", region_bytes=512)
        other = make_type("o", shared_region="aux", region_bytes=128)
        private = make_type("p")
        tasks = [shared.instantiate({"work": 1}) for _ in range(3)] + \
                [other.instantiate({"work": 1})] + \
                [private.instantiate({"work": 1})]
        sets = sharing_sets(recover_structure(program_of(tasks)))
        assert [s.region for s in sets] == ["aux", "table"]
        by_region = {s.region: s for s in sets}
        assert by_region["table"].degree == 3
        assert by_region["table"].duplicate_bytes == 3 * 512
        assert by_region["aux"].degree == 1

    def test_summary_is_pure_data_and_picklable(self):
        graph = recover_structure(
            get_workload("micro-shared").build_program())
        summary = summarize(graph)
        clone = pickle.loads(pickle.dumps(summary))
        assert clone == summary
        assert clone.tasks == graph.task_count
        assert clone.total_work == graph.total_work
        assert clone.sharing_degrees == \
            {s.region: s.degree for s in summary.sharing}
        assert clone.speedup_bound(4) <= 4.0

    def test_render_mentions_critical_path_and_typed_edges(self):
        graph = recover_structure(
            get_workload("micro-chain").build_program())
        text = graph_summary(graph)
        assert "critical path" in text
        assert "speedup bound" in text
        dot = graph_dot(graph)
        assert "digraph taskgraph" in dot
        assert "penwidth=2" in dot  # stream edges rendered


# ---------------------------------------------------------- validation

class TestValidation:
    def test_dangling_after_raises_diagnostic(self):
        # The legacy expansion accepted this silently; the runtimes then
        # stalled waiting for a producer that never runs.
        tt = make_type()
        ghost = tt.instantiate({"work": 1})  # never added to the program
        task = tt.instantiate({"work": 1}, after=[ghost])
        with pytest.raises(GraphValidationError, match="never"):
            recover_structure(program_of([task]))

    def test_dangling_stream_raises(self):
        tt = make_type()
        ghost = tt.instantiate({"work": 1})
        task = tt.instantiate({"work": 1}, stream_from=[ghost])
        with pytest.raises(GraphValidationError, match="stream_from"):
            recover_structure(program_of([task]))

    def test_legacy_expansion_accepts_dangling_silently(self):
        # Documents the failure mode validate() exists to close.
        tt = make_type()
        ghost = tt.instantiate({"work": 1})
        task = tt.instantiate({"work": 1}, after=[ghost])
        expanded = expand_program(program_of([task]))
        assert expanded.task_count == 1  # no error, no ghost

    def test_duplicate_task_raises(self):
        tt = make_type()
        task = tt.instantiate({"work": 1})
        with pytest.raises(GraphValidationError, match="more than once"):
            recover_structure(program_of([task, task]))

    def test_cycle_raises(self):
        tt = make_type()
        a = tt.instantiate({"work": 1})
        b = tt.instantiate({"work": 1}, after=[a])
        a.after.append(b)  # forge the back edge
        with pytest.raises(GraphValidationError, match="cycle"):
            recover_structure(program_of([a, b]))

    def test_nan_work_raises(self):
        tt = make_type()
        task = tt.instantiate({"work": float("nan")})
        with pytest.raises(GraphValidationError, match="work"):
            recover_structure(program_of([task]))

    def test_validate_false_skips_checks(self):
        tt = make_type()
        ghost = tt.instantiate({"work": 1})
        task = tt.instantiate({"work": 1}, after=[ghost])
        graph = recover_structure(program_of([task]), validate=False)
        assert graph.task_count == 1


# ---------------------------------------------------------- view equivalence

class TestLegacyViews:
    @pytest.mark.parametrize("name", workload_names())
    def test_as_expanded_matches_legacy_on_workload(self, name):
        """ExpandedProgram views over the IR equal the legacy output on
        every registered workload (task ids differ per fresh build, so
        compare by type name, depth, args, and phase shape)."""
        legacy = expand_program(get_workload(name).build_program())
        view = recover_structure(
            get_workload(name).build_program()).as_expanded()
        assert view.task_count == legacy.task_count
        assert view.total_work == legacy.total_work
        assert [(t.type.name, t.depth, t.args) for t in view.tasks] == \
            [(t.type.name, t.depth, t.args) for t in legacy.tasks]
        assert [len(p) for p in view.phases] == \
            [len(p) for p in legacy.phases]
        assert [[t.type.name for t in p] for p in view.phases] == \
            [[t.type.name for t in p] for p in legacy.phases]

    def test_topological_order_respects_all_edges(self):
        graph = recover_structure(get_workload("bfs").build_program())
        position = {t.task_id: i
                    for i, t in enumerate(graph.topological_order())}
        for edge in graph.edges:
            assert position[edge.src] < position[edge.dst], edge

    def test_graph_basic_queries(self):
        graph = recover_structure(
            get_workload("micro-uniform").build_program())
        assert len(graph) == graph.task_count == len(graph.tasks)
        first = graph.tasks[0]
        assert graph.node(first.task_id) is first

    def test_initial_tasks_with_deps_land_in_later_phases(self):
        """Regression: an *initial* task carrying an explicit ``after``
        or ``stream_from`` edge must sit strictly below its producer in
        the phase grouping — otherwise the static baseline co-schedules a
        consumer with the producer it waits on (a dependence-legality
        violation the sanitizer catches)."""
        tt = make_type()
        a = tt.instantiate({"work": 8})
        b = tt.instantiate({"work": 8}, after=[a])
        c = tt.instantiate({"work": 8}, stream_from=[b])
        assert (a.depth, b.depth, c.depth) == (0, 1, 2)
        for expanded in (expand_program(program_of([a, b, c])),
                         recover_structure(
                             program_of([a, b, c])).as_expanded()):
            phase_of = {t.task_id: i
                        for i, phase in enumerate(expanded.phases)
                        for t in phase}
            assert phase_of[a.task_id] < phase_of[b.task_id]
            assert phase_of[b.task_id] < phase_of[c.task_id]


# ------------------------------------------------- sharing vs the machine

class TestSharingAgainstSimulator:
    def test_mcast_counters_account_for_every_reader(self):
        """With multicast on, every shared-read request is a fetch, a hit,
        or a coalesced join — summed, they equal the recovered sharing
        degrees."""
        workload = SharedReadTasks(num_tasks=24, region_bytes=4096)
        summary = structure_summary(workload)
        degrees = sum(s.degree for s in summary.sharing)
        assert degrees > 0
        result = Delta(default_delta_config(lanes=4)).run(
            workload.build_program())
        m = result.metrics.mcast
        assert m.fetches + m.hits + m.coalesced == degrees

    def test_static_duplicate_bytes_equal_sharing_sets(self):
        """The static baseline re-fetches each shared region once per
        reader; its counter equals the IR's duplicate-byte analysis."""
        workload = SharedReadTasks(num_tasks=16, region_bytes=2048)
        summary = structure_summary(workload)
        result = StaticParallel(default_baseline_config(lanes=4)).run(
            workload.build_program())
        assert result.metrics.static.duplicate_shared_bytes == \
            summary.duplicate_shared_bytes
        assert summary.duplicate_shared_bytes == \
            sum(s.nbytes * s.degree for s in summary.sharing)


# ---------------------------------------------------------- structure cache

class TestStructureCache:
    """Recovered structure has no cache of its own: its critical-path
    bound rides in eval-cache entries, so editing repro/graph/ must
    invalidate those through the shared code-version digest."""

    def test_graph_layer_is_covered_by_the_digest(self):
        from repro.store.keys import source_files
        covered = {p.as_posix() for p in source_files()}
        for module in ("graph/__init__.py", "graph/ir.py",
                       "graph/analyses.py", "graph/cache.py",
                       "graph/render.py"):
            assert any(path.endswith(f"repro/{module}")
                       for path in covered), \
                f"repro/{module} missing from code-version digest"
