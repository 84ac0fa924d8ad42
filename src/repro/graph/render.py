"""Textual renders of a recovered task graph: DOT and a plain summary.

Consumed by ``repro show --what tasks|graph`` and usable from tests; kept
free of evaluation-layer imports (layering: graph sits below eval).
"""

from __future__ import annotations

from repro.core.visualize import dot_escape
from repro.graph.analyses import (
    critical_path,
    parallelism_profile,
    sharing_sets,
    work_histogram,
)
from repro.graph.ir import EdgeKind, TaskGraph


#: DOT attributes per edge kind.
_EDGE_STYLES = {
    EdgeKind.AFTER: "[style=dashed]",
    EdgeKind.STREAM: "[penwidth=2]",
    EdgeKind.SPAWN: "[style=dotted, color=grey]",
}

_PALETTE = ["lightblue", "lightyellow", "lightpink", "lightgreen",
            "lightgrey", "orange", "cyan", "violet"]


def graph_dot(graph: TaskGraph, max_tasks: int = 400) -> str:
    """Graphviz DOT of the typed IR, renderable with Graphviz.

    Bold edges are pipelined stream dependences, dashed edges completion
    (``after``) dependences, and dotted grey edges spawns. Nodes are
    coloured per task type. Raises :class:`ValueError` for graphs beyond
    ``max_tasks`` (DOT renders of huge graphs help nobody — render a
    smaller instance).
    """
    tasks = graph.tasks
    if len(tasks) > max_tasks:
        raise ValueError(
            f"task graph has {len(tasks)} tasks (> {max_tasks}); "
            f"render a smaller instance")
    type_names = sorted({t.type.name for t in tasks})
    colors = {name: _PALETTE[i % len(_PALETTE)]
              for i, name in enumerate(type_names)}
    lines = [
        "digraph taskgraph {",
        "  rankdir=TB;",
        '  node [shape=box, style=filled, fontsize=10];',
    ]
    for task in tasks:
        label = dot_escape(f"{task.type.name}#{task.task_id}")
        lines.append(
            f'  t{task.task_id} [label="{label}", '
            f'fillcolor={colors[task.type.name]}];')
    for edge in graph.edges:
        lines.append(
            f"  t{edge.src} -> t{edge.dst} {_EDGE_STYLES[edge.kind]};")
    lines.append("}")
    return "\n".join(lines)


def graph_summary(graph: TaskGraph, lanes: int = 8) -> str:
    """Human-readable structure report for one program.

    Includes the critical path (so CI can grep for it), the per-phase
    parallelism profile, the work histogram, and every sharing set.
    """
    cp = critical_path(graph)
    kinds = {kind: len(graph.edges_of_kind(kind)) for kind in EdgeKind}
    lines = [
        f"program {graph.program.name}: {graph.task_count} tasks, "
        f"{len(graph.edges)} edges "
        f"(after={kinds[EdgeKind.AFTER]}, stream={kinds[EdgeKind.STREAM]}, "
        f"spawn={kinds[EdgeKind.SPAWN]})",
        f"total work {graph.total_work:.0f}, "
        f"critical path {cp.work:.0f} over {cp.length} task(s)",
        f"inherent parallelism {cp.parallelism:.2f} -> speedup bound "
        f"{cp.speedup_bound(lanes):.2f}x at {lanes} lanes",
    ]
    if cp.task_names:
        shown = " -> ".join(cp.task_names[:8])
        if cp.length > 8:
            shown += f" -> ... (+{cp.length - 8})"
        lines.append(f"critical path tasks: {shown}")
    lines.append("phases:")
    for profile in parallelism_profile(graph):
        lines.append(
            f"  phase {profile.phase}: {profile.task_count} task(s), "
            f"work {profile.work:.0f}, balance {profile.balance:.2f}")
    hist = work_histogram(graph)
    if hist:
        cells = ", ".join(
            ("work=0" if exp < 0 else f"2^{exp}") + f": {count}"
            for exp, count in hist)
        lines.append(f"work histogram: {cells}")
    sharing = sharing_sets(graph)
    if sharing:
        lines.append("sharing sets:")
        for s in sharing:
            lines.append(
                f"  {s.region}: {s.degree} reader(s) x {s.nbytes} B "
                f"= {s.duplicate_bytes} duplicate B without multicast")
    else:
        lines.append("sharing sets: none (no shared read regions)")
    return "\n".join(lines)
