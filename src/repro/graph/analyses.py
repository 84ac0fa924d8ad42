"""Analyses over the TaskGraph IR, and the picklable StructureSummary.

Everything a consumer used to re-derive from a raw task list lives here,
computed once per program:

- :func:`critical_path` — the longest dependence chain (T∞ in Brent's
  bound), honouring edge semantics: ``after`` waits for the producer to
  *finish*, ``stream``/``spawn`` only for it to *start* (pipelining).
  :func:`inherent_parallelism` — T1/T∞, the one definition every
  consumer uses; the speedup achievable on L lanes is bounded by
  ``min(L, parallelism)``, which evaluation reports print next to the
  measured speedup.
- :func:`parallelism_profile` — per-barrier-phase task count and work,
  showing where the static baseline's barriers leave lanes idle.
- :func:`work_histogram` — log2-binned task work, quantifying the skew
  that work-aware dispatch exploits.
- :func:`sharing_sets` — for every ``shared=True`` read region, the set of
  reader tasks and the bytes moved; the T2 table and the static
  baseline's duplicate-fetch accounting agree on them by region name.

:class:`StructureSummary` packages all of the above as pure frozen data —
no Task objects, no kernel closures — for the reports that print them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.graph.ir import EdgeKind, TaskGraph


def inherent_parallelism(total_work: float, cp_work: float,
                         tasks: int) -> float:
    """Inherent parallelism T1/T∞ (>= 1 for non-empty graphs).

    A graph whose critical path carries no work (every estimate zero)
    gives no ratio; then each of its ``tasks`` could run on its own lane.
    """
    if cp_work <= 0:
        return float(tasks) or 1.0
    return total_work / cp_work


@dataclass(frozen=True)
class CriticalPath:
    """The longest dependence chain through a task graph.

    ``work`` is T∞ — the span; ``task_names`` walks the chain from entry
    to exit; ``total_work`` is T1 and ``task_count`` the graph's task
    count. ``parallelism`` is T1/T∞.
    """

    work: float
    task_names: tuple[str, ...]
    total_work: float
    task_count: int

    @property
    def length(self) -> int:
        """Number of tasks on the path."""
        return len(self.task_names)

    @property
    def parallelism(self) -> float:
        """Inherent parallelism T1/T∞ (:func:`inherent_parallelism`)."""
        return inherent_parallelism(self.total_work, self.work,
                                    self.task_count)

    def speedup_bound(self, lanes: int) -> float:
        """Upper bound on speedup at ``lanes`` lanes: min(L, T1/T∞)."""
        return min(float(lanes), self.parallelism)


def critical_path(graph: TaskGraph) -> CriticalPath:
    """Longest chain under the typed-edge timing semantics.

    For each task t: ``start(t)`` is the max over predecessors of
    ``finish(p)`` for AFTER edges and ``start(p)`` for STREAM/SPAWN edges
    (a stream consumer or spawned child can overlap its producer);
    ``finish(t) = start(t) + work(t)``, except a stream consumer can never
    drain before its producer finishes, so ``finish(t)`` is additionally
    clamped to ``finish(p)`` of every STREAM predecessor.
    """
    start: dict[int, float] = {}
    finish: dict[int, float] = {}
    # Longest-path predecessor for path reconstruction.
    via: dict[int, Optional[int]] = {}
    for task in graph.topological_order():
        t_start = 0.0
        t_via: Optional[int] = None
        for pred, kind in graph.predecessors[task.task_id]:
            bound = finish[pred] if kind == EdgeKind.AFTER else start[pred]
            if bound > t_start or t_via is None and bound == t_start:
                t_start = bound
                t_via = pred
        t_finish = t_start + task.work
        for pred, kind in graph.predecessors[task.task_id]:
            if kind == EdgeKind.STREAM and finish[pred] > t_finish:
                t_finish = finish[pred]
                t_via = pred
        start[task.task_id] = t_start
        finish[task.task_id] = t_finish
        via[task.task_id] = t_via
    if not finish:
        return CriticalPath(0.0, (), 0.0, 0)
    # Ties broken toward the latest-spawned task so the reported chain is
    # the deepest one (a fully pipelined chain finishes all at once).
    tail = max(finish, key=lambda tid: (finish[tid], tid))
    chain: list[str] = []
    cursor: Optional[int] = tail
    while cursor is not None:
        chain.append(graph.node(cursor).name)
        cursor = via[cursor]
    chain.reverse()
    return CriticalPath(finish[tail], tuple(chain), graph.total_work,
                        graph.task_count)


def bottom_levels(graph: TaskGraph) -> dict[int, float]:
    """Longest remaining path from each task to a sink, by task id.

    The list-scheduling "bottom level" b(t): t's own work plus the
    longest chain below it, under the same typed-edge timing semantics as
    :func:`critical_path` — an AFTER successor waits for t to *finish*
    (its chain adds to t's work), while a STREAM/SPAWN successor overlaps
    t's execution (the chain through it is bounded below by whichever of
    the two is longer, not their sum). The entry task's bottom level
    equals T∞ on a single-entry graph; scheduling priority by descending
    b(t) is classic critical-path list scheduling (HPDC'23 uses the same
    rank over its streaming task graphs).
    """
    levels: dict[int, float] = {}
    for task in reversed(graph.topological_order()):
        best = task.work
        for succ, kind in graph.successors[task.task_id]:
            if kind == EdgeKind.AFTER:
                below = task.work + levels[succ]
            else:
                below = max(task.work, levels[succ])
            if below > best:
                best = below
        levels[task.task_id] = best
    return levels


@dataclass(frozen=True)
class PhaseProfile:
    """One barrier phase: how many tasks, how much work, how skewed."""

    phase: int
    task_count: int
    work: float
    max_task_work: float

    @property
    def balance(self) -> float:
        """Mean/max task work in the phase — 1.0 is perfectly uniform."""
        if self.max_task_work <= 0 or self.task_count == 0:
            return 1.0
        return (self.work / self.task_count) / self.max_task_work


def parallelism_profile(graph: TaskGraph) -> tuple[PhaseProfile, ...]:
    """Per-phase parallelism: where barriers strand work."""
    profiles = []
    for index, phase in enumerate(graph.phases):
        works = [t.work for t in phase]
        profiles.append(PhaseProfile(
            phase=index,
            task_count=len(phase),
            work=sum(works),
            max_task_work=max(works, default=0.0),
        ))
    return tuple(profiles)


def work_histogram(graph: TaskGraph) -> tuple[tuple[int, int], ...]:
    """Log2-binned task-work histogram: ((bin_exponent, count), ...).

    Bin b holds tasks with work in [2^b, 2^(b+1)); zero-work tasks land in
    a sentinel bin -1. The spread across bins is the skew that makes
    task-count load balancing lose to work-aware dispatch.
    """
    bins: dict[int, int] = {}
    for task in graph.tasks:
        work = task.work
        exponent = int(math.floor(math.log2(work))) if work > 0 else -1
        bins[exponent] = bins.get(exponent, 0) + 1
    return tuple(sorted(bins.items()))


@dataclass(frozen=True)
class SharingSet:
    """One shared read region and everything known about its readers."""

    region: str
    nbytes: int
    reader_task_ids: tuple[int, ...]

    @property
    def degree(self) -> int:
        """How many tasks read the region (multicast fan-out)."""
        return len(self.reader_task_ids)

    @property
    def duplicate_bytes(self) -> int:
        """Bytes a sharing-blind runtime fetches for this region."""
        return self.nbytes * self.degree


def sharing_sets(graph: TaskGraph) -> tuple[SharingSet, ...]:
    """Every ``shared=True`` read region with its reader set, by name.

    Regions are returned sorted by name; ``nbytes`` is the region's
    largest declared read size (readers of one region declare the same
    size in practice). The sum over sets of ``degree`` equals the number
    of shared-read requests the multicast manager will see, and
    ``duplicate_bytes`` is what the static baseline re-fetches.
    """
    readers: dict[str, list[int]] = {}
    sizes: dict[str, int] = {}
    for task in graph.tasks:
        for spec in task.reads:
            if not spec.shared or spec.region is None:
                continue
            readers.setdefault(spec.region, []).append(task.task_id)
            sizes[spec.region] = max(sizes.get(spec.region, 0), spec.nbytes)
    return tuple(
        SharingSet(region, sizes[region], tuple(task_ids))
        for region, task_ids in sorted(readers.items()))


@dataclass(frozen=True)
class StructureSummary:
    """Pure-data digest of one program's recovered structure.

    Unlike :class:`~repro.graph.ir.TaskGraph` this holds no Task objects
    (whose types carry kernel closures), so it pickles cleanly — it is
    the object the T2 table reads.
    """

    program: str
    tasks: int
    edges: int
    phases: int
    total_work: float
    cp_work: float
    cp_tasks: int
    sharing: tuple[SharingSet, ...] = ()
    phase_profile: tuple[PhaseProfile, ...] = ()
    work_hist: tuple[tuple[int, int], ...] = field(default=())

    @property
    def parallelism(self) -> float:
        """Inherent parallelism T1/T∞ (:func:`inherent_parallelism`)."""
        return inherent_parallelism(self.total_work, self.cp_work,
                                    self.tasks)

    def speedup_bound(self, lanes: int) -> float:
        """Upper bound on speedup at ``lanes`` lanes: min(L, T1/T∞)."""
        return min(float(lanes), self.parallelism)

    @property
    def shared_regions(self) -> int:
        """Number of distinct shared read regions."""
        return len(self.sharing)

    @property
    def duplicate_shared_bytes(self) -> int:
        """Bytes a sharing-blind runtime fetches across all regions."""
        return sum(s.duplicate_bytes for s in self.sharing)


def summarize(graph: TaskGraph) -> StructureSummary:
    """Compute every analysis once and fold it into a StructureSummary."""
    cp = critical_path(graph)
    return StructureSummary(
        program=graph.program.name,
        tasks=graph.task_count,
        edges=len(graph.edges),
        phases=len(graph.phases),
        total_work=graph.total_work,
        cp_work=cp.work,
        cp_tasks=cp.length,
        sharing=sharing_sets(graph),
        phase_profile=parallelism_profile(graph),
        work_hist=work_histogram(graph),
    )
