"""A task-parallel program: types, shared state, and the initial task set.

Programs are built fresh per simulation run (the functional kernels mutate
``state``), so workloads expose ``build_program()`` factories rather than
module-level singletons. A program is elaborated into its full task set
in exactly one place, :func:`repro.graph.recover_structure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.task import Task, TaskType


@dataclass
class Program:
    """One executable task-parallel program instance."""

    name: str
    state: Any
    initial_tasks: list[Task]
    task_types: list[TaskType] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.initial_tasks:
            raise ValueError(f"program {self.name!r} has no initial tasks")
        if not self.task_types:
            types = {t.type.name: t.type for t in self.initial_tasks}
            self.task_types = list(types.values())


def partition_block(tasks: Sequence[Task], lanes: int) -> list[list[Task]]:
    """Static block partition: contiguous, near-equal *task counts*.

    This is the work-oblivious split a static-parallel design bakes in at
    compile time — the thing work-aware balancing improves on.
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    n = len(tasks)
    base, extra = divmod(n, lanes)
    out: list[list[Task]] = []
    start = 0
    for lane in range(lanes):
        size = base + (1 if lane < extra else 0)
        out.append(list(tasks[start:start + size]))
        start += size
    return out

