"""repro.graph — the first-class program-structure layer.

The paper's claim is that annotations on task dependences let hardware
*recover inter-task program structure*. This package makes that structure
explicit in software: :func:`recover_structure` elaborates a program once
into a :class:`TaskGraph` IR (nodes = tasks, typed edges = ``after`` /
``stream`` / ``spawn``, read-sharing sets derived from annotations), with
validation and analyses (critical path, parallelism profile, work
histogram, sharing sets) that every consumer — the static baseline, the
evaluation tables, the CLI renderers — reads instead of re-deriving
ad hoc.

Layering: ``repro.core`` (tasks, annotations, programs) sits *below* this
package; execution models (``repro.baseline``), workloads, and the harness
sit above and consume the IR. Enforced by ``tools/check_layering.py``.
"""

from repro.graph.analyses import (
    CriticalPath,
    PhaseProfile,
    SharingSet,
    StructureSummary,
    critical_path,
    parallelism_profile,
    sharing_sets,
    summarize,
    work_histogram,
)
from repro.graph.cache import structure_summary
from repro.graph.ir import (
    Edge,
    EdgeKind,
    GraphValidationError,
    TaskGraph,
    recover_structure,
)
from repro.graph.render import graph_dot, graph_summary

__all__ = [
    "CriticalPath",
    "Edge",
    "EdgeKind",
    "GraphValidationError",
    "PhaseProfile",
    "SharingSet",
    "StructureSummary",
    "TaskGraph",
    "critical_path",
    "graph_dot",
    "graph_summary",
    "parallelism_profile",
    "recover_structure",
    "sharing_sets",
    "structure_summary",
    "summarize",
    "work_histogram",
]
