"""A workload's recovered-structure summary.

Recovering structure means elaborating the whole program — every kernel
runs. :func:`structure_summary` does it once for a workload and folds the
graph into a picklable :class:`StructureSummary`. Sweeps never call it:
each :class:`~repro.eval.runner.Comparison` carries the critical-path
bound of the graph its static baseline recovered anyway.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.analyses import StructureSummary, summarize
# This module stays: benchmarks/e2e/spans.py wraps its recover_structure.
from repro.graph.ir import recover_structure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import Workload


def structure_summary(workload: "Workload") -> StructureSummary:
    """Recovered structure of a freshly built program of ``workload``."""
    return summarize(recover_structure(workload.build_program()))
