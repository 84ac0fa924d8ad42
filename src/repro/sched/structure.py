"""Deriving :class:`~repro.sched.api.StructureHints` from recovered graphs.

The bridge between the graph layer and structure-aware policies. Two
entry points:

- :func:`hints_from_graph` — digest an already-recovered
  :class:`~repro.graph.ir.TaskGraph`. ``compare()`` passes the static
  baseline's graph, which it recovers anyway, and hands the hints to
  Delta's fresh build of the same workload.
- :func:`hints_from_factory` — build a **twin** program instance and
  recover its structure, for callers with no static graph (``repro
  run``). :func:`~repro.graph.ir.recover_structure` executes the kernels
  functionally and mutates program state, so it must never run on the
  same program instance the simulator will execute.

Either way the hints come from another build than the one Delta runs.
Its task ids differ (ids are process-global), which is why hints key on
stable (type name, depth) coordinates rather than ids or names.

Recovery failures degrade to ``None`` — every policy works hint-free.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.graph.analyses import bottom_levels, critical_path
from repro.graph.ir import GraphValidationError, TaskGraph, recover_structure
from repro.sched.api import StructureHints, TaskKey

__all__ = ["hints_from_factory", "hints_from_graph"]


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


def hints_from_factory(build_program: Callable[[], object],
                       ) -> Optional[StructureHints]:
    """Recover hints from a twin program instance, or None on failure.

    ``build_program`` is any zero-argument factory returning a fresh
    :class:`~repro.core.program.Program` (e.g. a workload's
    ``build_program`` bound method — passed as a callable so this layer
    needs no knowledge of workload objects).
    """
    try:
        graph = recover_structure(build_program())
    except GraphValidationError:
        return None
    return hints_from_graph(graph)
