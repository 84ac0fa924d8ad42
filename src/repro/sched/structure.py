"""Deriving :class:`~repro.sched.api.StructureHints` from a recovered graph.

The bridge between the graph layer and structure-aware policies:
:func:`hints_from_graph` digests a :class:`~repro.graph.ir.TaskGraph`
into pure data. :func:`~repro.graph.ir.recover_structure` executes the
kernels and mutates program state, so the graph always comes from
another build than the one Delta runs: ``compare()`` passes the graph its
static baseline recovers anyway, and ``repro run`` recovers a build of
its own. Task ids differ between builds (ids are process-global), which
is why hints key on stable (type name, depth) coordinates rather than
ids or names.
"""

from __future__ import annotations

from repro.graph.analyses import bottom_levels, critical_path
from repro.graph.ir import TaskGraph
from repro.sched.api import StructureHints, TaskKey

__all__ = ["hints_from_graph"]


def hints_from_graph(graph: TaskGraph) -> StructureHints:
    """Digest one recovered task graph into pure-data scheduling hints.

    ``priority`` takes the **max** bottom level within each (type, depth)
    group: scheduling the group as urgently as its most critical member
    can only advance the critical chain, never delay it.
    """
    levels = bottom_levels(graph)
    priority: dict[TaskKey, float] = {}
    for task in graph.tasks:
        key = (task.type.name, task.depth)
        level = levels[task.task_id]
        if level > priority.get(key, float("-inf")):
            priority[key] = level
    cp = critical_path(graph)
    return StructureHints(
        program=graph.program.name,
        priority=priority,
        phase_sizes=tuple(len(phase) for phase in graph.phases),
        total_work=graph.total_work,
        cp_work=cp.work,
        task_count=graph.task_count,
    )

