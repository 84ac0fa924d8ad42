"""The TaskGraph IR: one program's recovered inter-task structure.

:func:`recover_structure` is the one elaboration of a program: every
kernel runs functionally (mutating program state and spawning children)
in breadth-first spawn order, and the pass records *typed* dependence
edges:

- ``AFTER``  — completion ordering (``after=[...]`` at spawn).
- ``STREAM`` — pipelined producer→consumer streams (``stream_from=[...]``);
  the consumer may co-schedule with its producer.
- ``SPAWN``  — parent kernel → child task. A child cannot exist before its
  spawner has started, but does not wait for the spawner to finish.

The graph validates before it is returned (see :meth:`TaskGraph.validate`):
dangling dependences — a task whose ``after``/``stream_from`` references a
producer that was never spawned, which the runtimes would stall on —
raise a diagnostic :class:`GraphValidationError`, as do duplicate task
instances, dependence cycles, and non-finite or negative work estimates.

:meth:`TaskGraph.phases` groups the tasks into the barrier phases the
static-parallel baseline schedules.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.core.program import Program
from repro.core.task import Task, run_kernel


class GraphValidationError(ValueError):
    """A recovered task graph is structurally malformed."""


class EdgeKind(enum.Enum):
    """The dependence type of one edge in the IR."""

    AFTER = "after"
    STREAM = "stream"
    SPAWN = "spawn"


@dataclass(frozen=True)
class Edge:
    """One typed dependence edge, by task id (src must precede dst)."""

    src: int
    dst: int
    kind: EdgeKind


class TaskGraph:
    """The fully elaborated, typed task graph of one program run.

    ``tasks`` is in spawn (BFS) order. Adjacency is exposed as
    ``predecessors``/``successors`` (task id → list of
    ``(task id, EdgeKind)``).
    """

    def __init__(self, program: Program, tasks: list[Task],
                 edges: list[Edge]) -> None:
        self.program = program
        self.tasks = tasks
        self.edges = edges
        self.nodes: dict[int, Task] = {t.task_id: t for t in tasks}
        self.predecessors: dict[int, list[tuple[int, EdgeKind]]] = {
            t.task_id: [] for t in tasks}
        self.successors: dict[int, list[tuple[int, EdgeKind]]] = {
            t.task_id: [] for t in tasks}
        for edge in edges:
            if edge.src in self.successors:
                self.successors[edge.src].append((edge.dst, edge.kind))
            if edge.dst in self.predecessors:
                self.predecessors[edge.dst].append((edge.src, edge.kind))

    # -- basic queries -------------------------------------------------------

    @property
    def task_count(self) -> int:
        """Number of tasks in the graph."""
        return len(self.tasks)

    @property
    def total_work(self) -> float:
        """Sum of all task work estimates (T1 in Brent's bound)."""
        return sum(t.work for t in self.tasks)

    def node(self, task_id: int) -> Task:
        """The task with ``task_id``."""
        return self.nodes[task_id]

    def edges_of_kind(self, kind: EdgeKind) -> list[Edge]:
        """Every edge of one dependence type."""
        return [e for e in self.edges if e.kind == kind]

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TaskGraph {self.program.name!r} tasks={len(self.tasks)} "
                f"edges={len(self.edges)}>")

    # -- barrier phases -------------------------------------------------------

    @property
    def phases(self) -> list[list[Task]]:
        """Barrier phases (tasks grouped by dependence depth, spawn order).

        The static-parallel baseline partitions exactly these lists.
        """
        max_depth = max(t.depth for t in self.tasks)
        phases: list[list[Task]] = [[] for _ in range(max_depth + 1)]
        for task in self.tasks:
            phases[task.depth].append(task)
        return phases

    # -- ordering ------------------------------------------------------------

    def topological_order(self) -> list[Task]:
        """Tasks in dependence order (raises on cycles).

        Kahn's algorithm over all edge kinds, seeded in spawn order so the
        result is deterministic.
        """
        indegree = {t.task_id: len(self.predecessors[t.task_id])
                    for t in self.tasks}
        ready = deque(t.task_id for t in self.tasks
                      if indegree[t.task_id] == 0)
        order: list[Task] = []
        while ready:
            task_id = ready.popleft()
            order.append(self.nodes[task_id])
            for succ, _kind in self.successors[task_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.tasks):
            stuck = sorted(task_id for task_id, d in indegree.items()
                           if d > 0)
            names = ", ".join(self.nodes[i].name for i in stuck[:5])
            raise GraphValidationError(
                f"program {self.program.name!r}: dependence cycle through "
                f"{len(stuck)} task(s) ({names}{', ...' if len(stuck) > 5 else ''})")
        return order

    # -- validation ----------------------------------------------------------

    def validate(self) -> "TaskGraph":
        """Check structural invariants; returns self so calls chain.

        Raises :class:`GraphValidationError` on:

        - *duplicate tasks* — the same instance spawned or listed twice;
        - *dangling dependences* — an ``after``/``stream_from`` edge whose
          producer was never spawned (the program would stall waiting for
          a task that never runs);
        - *dependence cycles* (``after``/``stream``/``spawn`` combined);
        - *work-estimate insanity* — a negative, NaN or infinite work
          estimate, which would corrupt every downstream analysis and the
          work-aware dispatcher.
        """
        seen: set[int] = set()
        for task in self.tasks:
            if task.task_id in seen:
                raise GraphValidationError(
                    f"program {self.program.name!r}: task {task.name} "
                    f"appears more than once in the expansion")
            seen.add(task.task_id)
        for task in self.tasks:
            for dep, label in [(d, "after") for d in task.after] + \
                              [(d, "stream_from") for d in task.stream_from]:
                if dep.task_id not in self.nodes:
                    raise GraphValidationError(
                        f"program {self.program.name!r}: task {task.name} "
                        f"{label}-depends on {dep.name}, which is never "
                        f"spawned — the program would stall waiting for it")
        self.topological_order()
        for task in self.tasks:
            work = task.work
            if not math.isfinite(work) or work < 0:
                raise GraphValidationError(
                    f"program {self.program.name!r}: task {task.name} has "
                    f"an invalid work estimate ({work!r}); work must be "
                    f"finite and non-negative")
        return self


def _typed_edges(tasks: Iterable[Task],
                 spawns: list[tuple[int, int]]) -> list[Edge]:
    """Derive the typed edge list from task fields plus recorded spawns."""
    edges: list[Edge] = []
    for task in tasks:
        for dep in task.after:
            edges.append(Edge(dep.task_id, task.task_id, EdgeKind.AFTER))
        for producer in task.stream_from:
            edges.append(Edge(producer.task_id, task.task_id,
                              EdgeKind.STREAM))
    edges.extend(Edge(src, dst, EdgeKind.SPAWN) for src, dst in spawns)
    return edges


def recover_structure(program: Program) -> TaskGraph:
    """Elaborate ``program`` once and recover its full typed task graph.

    Runs every kernel functionally (no timing) in breadth-first spawn
    order — kernels mutate ``program.state``, so call this on a *fresh*
    program instance — while recording spawn edges, then derives the
    typed dependence edges from the task annotations. The graph is
    validated before it is returned: a malformed program raises
    :class:`GraphValidationError` with a diagnostic.
    """
    queue = deque(program.initial_tasks)
    tasks: list[Task] = []
    spawns: list[tuple[int, int]] = []
    expanded_ids: set[int] = set()
    while queue:
        task = queue.popleft()
        if task.task_id in expanded_ids:
            # Preserve the task list (validation reports the duplicate)
            # without running the kernel twice.
            tasks.append(task)
            continue
        expanded_ids.add(task.task_id)
        tasks.append(task)
        for child in run_kernel(task, program.state):
            spawns.append((task.task_id, child.task_id))
            queue.append(child)
    return TaskGraph(program, tasks, _typed_edges(tasks, spawns)).validate()
