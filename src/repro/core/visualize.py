"""Visualization: DOT exports and ASCII renders for kernels and mappings.

Two views, all plain text so they work anywhere (the task-graph DOT is
:func:`repro.graph.graph_dot`, over the recovered IR):

- :func:`dfg_dot` — one task type's dataflow graph.
- :func:`mapping_ascii` — where a DFG's operations landed on the fabric
  grid (the mapper's placement), as a character grid.
"""

from __future__ import annotations

from repro.arch.dfg import Dfg, FuClass
from repro.arch.mapper import Mapping


def dot_escape(text: str) -> str:
    """Escape double quotes for a DOT string literal."""
    return text.replace('"', r'\"')


def dfg_dot(dfg: Dfg) -> str:
    """Graphviz DOT for one dataflow graph.

    Loop-carried edges (distance > 0) are drawn dashed and labelled with
    their distance; node shapes distinguish FU classes.
    """
    shapes = {
        FuClass.ALU: "box",
        FuClass.MUL: "ellipse",
        FuClass.MEM: "parallelogram",
        FuClass.NONE: "plaintext",
    }
    lines = [f'digraph "{dot_escape(dfg.name)}" {{',
             "  rankdir=LR;",
             "  node [fontsize=10];"]
    for node in dfg.nodes.values():
        shape = shapes[node.fu_class]
        label = dot_escape(f"{node.name}\\n{node.op.value}")
        lines.append(f'  n{node.node_id} [label="{label}", shape={shape}];')
    for edge in dfg.edges:
        if edge.distance:
            lines.append(
                f'  n{edge.src} -> n{edge.dst} '
                f'[style=dashed, label="d={edge.distance}"];')
        else:
            lines.append(f"  n{edge.src} -> n{edge.dst};")
    lines.append("}")
    return "\n".join(lines)


def mapping_ascii(dfg: Dfg, mapping: Mapping) -> str:
    """Character-grid view of a placement.

    Each fabric cell shows the (possibly stacked) node ids placed on it,
    ``.`` for an empty cell. A legend maps ids to op names, and the
    header reports the achieved II and pipeline depth.
    """
    if not mapping.placement:
        return f"{dfg.name}: (no placed nodes)"
    rows = 1 + max(pos[0] for pos in mapping.placement.values())
    cols = 1 + max(pos[1] for pos in mapping.placement.values())
    grid: dict[tuple[int, int], list[int]] = {}
    for node_id, pos in mapping.placement.items():
        grid.setdefault(pos, []).append(node_id)
    cell_texts = {}
    width = 1
    for pos, ids in grid.items():
        text = "/".join(str(i) for i in sorted(ids))
        cell_texts[pos] = text
        width = max(width, len(text))
    lines = [f"{dfg.name}: II={mapping.ii} depth={mapping.depth} "
             f"(resource MII={mapping.resource_mii}, "
             f"recurrence MII={mapping.recurrence_mii:.2f})"]
    for r in range(rows):
        row_cells = []
        for c in range(cols):
            row_cells.append(cell_texts.get((r, c), ".").center(width))
        lines.append("  " + " ".join(row_cells))
    legend = ", ".join(
        f"{node_id}={dfg.nodes[node_id].name}"
        for node_id in sorted(mapping.placement))
    lines.append(f"  legend: {legend}")
    return "\n".join(lines)
