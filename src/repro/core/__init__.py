"""TaskStream: the paper's task execution model, applied as Delta.

This package is the paper's primary contribution:

- :mod:`repro.core.annotations` — dependence annotations that make
  inter-task structure recoverable (read specs, shared-read regions,
  stream dependences, work hints).
- :mod:`repro.core.task` — task types and task instances; tasks are
  first-class objects with annotated arguments.
- :mod:`repro.core.program` — a task-parallel program: task-type registry,
  shared functional state, and the initial task set.
- :mod:`repro.core.dispatcher` — the hardware task dispatcher implementing
  work-aware load balancing (plus the comparison policies).
- :mod:`repro.core.multicast` — recovery of inter-task read sharing:
  coalesces SharedRead regions across tasks and multicasts one fetch.
- :mod:`repro.core.delta` — the Delta execution model (dispatcher +
  multicast manager + pipelined inter-task streams) as a policy over the
  shared :mod:`repro.machine` datapath.
- :mod:`repro.core.software` — the software-task-runtime model: the same
  execution engine under software cost constants with recovery disabled.
"""

from repro.core.annotations import ReadSpec, WriteSpec, WorkHint
from repro.core.task import Task, TaskType, TaskContext
from repro.core.program import Program
from repro.machine.result import RunResult
from repro.core.delta import Delta
from repro.core.software import SoftwareRuntime

__all__ = [
    "ReadSpec",
    "WriteSpec",
    "WorkHint",
    "Task",
    "TaskType",
    "TaskContext",
    "Program",
    "RunResult",
    "Delta",
    "SoftwareRuntime",
]
