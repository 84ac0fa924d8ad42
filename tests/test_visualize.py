"""Tests for DOT/ASCII visualization (repro.core.visualize and the
task-graph DOT of repro.graph)."""

import pytest

from repro.arch.config import FabricConfig
from repro.arch.dfg import dot_product_dfg, merge_dfg
from repro.arch.mapper import Mapper
from repro.core.visualize import dfg_dot, mapping_ascii
from repro.graph import graph_dot, recover_structure
from repro.workloads.mergesort import MergesortWorkload
from repro.workloads.synthetic import SpawnTree


def test_task_graph_dot_structure():
    expanded = recover_structure(
        MergesortWorkload(n=512, leaf=128).build_program())
    dot = graph_dot(expanded)
    assert dot.startswith("digraph taskgraph {")
    assert dot.rstrip().endswith("}")
    # Every task appears as a node.
    for task in expanded.tasks:
        assert f"t{task.task_id} [" in dot
    # Stream dependences render with heavy edges.
    assert "penwidth=2" in dot


def test_task_graph_dot_after_edges_dashed():
    expanded = recover_structure(SpawnTree(depth=2).build_program())
    dot = graph_dot(expanded)
    # Spawn trees have no after/stream edges, only dotted spawn edges.
    assert "style=dashed" not in dot
    assert "penwidth=2" not in dot
    assert dot.count("[style=dotted, color=grey];") == \
        expanded.task_count - 1


def test_task_graph_dot_rejects_huge_graphs():
    expanded = recover_structure(SpawnTree(depth=2).build_program())
    with pytest.raises(ValueError, match="render a smaller"):
        graph_dot(expanded, max_tasks=3)


def test_dfg_dot_structure():
    dot = dfg_dot(dot_product_dfg())
    assert "digraph" in dot
    assert "parallelogram" in dot      # MEM nodes
    assert "ellipse" in dot            # MUL node
    assert 'label="d=1"' in dot        # recurrence edge


def test_dfg_dot_plain_edges():
    dot = dfg_dot(merge_dfg())
    assert "->" in dot


def test_mapping_ascii_contains_all_nodes():
    dfg = dot_product_dfg()
    mapping = Mapper(FabricConfig()).map(dfg)
    art = mapping_ascii(dfg, mapping)
    assert f"II={mapping.ii}" in art
    for node_id in mapping.placement:
        assert f"{node_id}={dfg.nodes[node_id].name}" in art


def test_mapping_ascii_grid_dimensions():
    dfg = dot_product_dfg()
    mapping = Mapper(FabricConfig(rows=4, cols=4)).map(dfg)
    art = mapping_ascii(dfg, mapping)
    grid_lines = [l for l in art.splitlines()
                  if l.startswith("  ") and "legend" not in l]
    assert len(grid_lines) <= 4
