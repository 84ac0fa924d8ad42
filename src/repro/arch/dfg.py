"""Dataflow-graph IR describing a task's inner compute loop.

A :class:`Dfg` is the unit of configuration for one CGRA lane: nodes are
operations bound to functional-unit classes, edges are value flows. Edges
may carry a *dependence distance* (> 0 for loop-carried values), which makes
the graph a cyclic dependence graph in the usual modulo-scheduling sense.

Two quantities drive the timing model:

- **recurrence MII** — the minimum initiation interval imposed by cycles,
  ``max over cycles (sum latency / sum distance)``, computed exactly with
  Lawler's binary search over Bellman-Ford feasibility.
- **resource MII** — ``max over FU classes ceil(#ops / #FUs)``, computed by
  the mapper against a concrete fabric.

The achieved II of a mapping is at least the max of both, plus congestion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable


class Op(enum.Enum):
    """Operation classes, grouped by the FU capability they require."""

    # ALU class (every FU supports these).
    ADD = "add"
    SUB = "sub"
    CMP = "cmp"
    SELECT = "select"
    LOGIC = "logic"
    SHIFT = "shift"
    PHI = "phi"
    # MUL class.
    MUL = "mul"
    MAC = "mac"
    DIV = "div"
    SQRT = "sqrt"
    # MEM class (stream interface nodes).
    INPUT = "input"
    OUTPUT = "output"
    GATHER = "gather"
    SCATTER = "scatter"
    # Free (constants fold into FU configuration).
    CONST = "const"


class FuClass(enum.Enum):
    """Functional-unit capability classes present in the fabric."""

    ALU = "alu"
    MUL = "mul"
    MEM = "mem"
    NONE = "none"  # consumes no FU (constants)


#: Which FU class each op needs.
OP_FU_CLASS: dict[Op, FuClass] = {
    Op.ADD: FuClass.ALU,
    Op.SUB: FuClass.ALU,
    Op.CMP: FuClass.ALU,
    Op.SELECT: FuClass.ALU,
    Op.LOGIC: FuClass.ALU,
    Op.SHIFT: FuClass.ALU,
    Op.PHI: FuClass.ALU,
    Op.MUL: FuClass.MUL,
    Op.MAC: FuClass.MUL,
    Op.DIV: FuClass.MUL,
    Op.SQRT: FuClass.MUL,
    Op.INPUT: FuClass.MEM,
    Op.OUTPUT: FuClass.MEM,
    Op.GATHER: FuClass.MEM,
    Op.SCATTER: FuClass.MEM,
    Op.CONST: FuClass.NONE,
}

#: Pipeline latency (cycles) of each op on its FU.
OP_LATENCY: dict[Op, int] = {
    Op.ADD: 1, Op.SUB: 1, Op.CMP: 1, Op.SELECT: 1, Op.LOGIC: 1,
    Op.SHIFT: 1, Op.PHI: 1,
    Op.MUL: 3, Op.MAC: 3, Op.DIV: 8, Op.SQRT: 8,
    Op.INPUT: 1, Op.OUTPUT: 1, Op.GATHER: 2, Op.SCATTER: 2,
    Op.CONST: 0,
}


class DfgError(ValueError):
    """Raised for malformed dataflow graphs."""


@dataclass(frozen=True)
class Node:
    """One operation in the graph."""

    node_id: int
    op: Op
    name: str = ""

    @property
    def fu_class(self) -> FuClass:
        """The FU capability class this op requires."""
        return OP_FU_CLASS[self.op]

    @property
    def latency(self) -> int:
        """Pipeline latency in cycles."""
        return OP_LATENCY[self.op]


@dataclass(frozen=True)
class Edge:
    """A value flow ``src -> dst``; ``distance`` > 0 marks loop-carried."""

    src: int
    dst: int
    distance: int = 0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise DfgError(f"edge distance must be >= 0, got {self.distance}")


@dataclass
class Dfg:
    """A dataflow graph plus derived properties used by the mapper.

    Build with :meth:`add` / :meth:`connect`, then call :meth:`validate`
    (or use :class:`DfgBuilder` which validates on ``build``).
    """

    name: str
    nodes: dict[int, Node] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    _next_id: int = 0

    # -- construction ------------------------------------------------------

    def add(self, op: Op, name: str = "") -> int:
        """Add a node; returns its id."""
        node_id = self._next_id
        self._next_id += 1
        self.nodes[node_id] = Node(node_id, op, name or f"{op.value}{node_id}")
        self.__dict__.pop("_signature", None)
        return node_id

    def connect(self, src: int, dst: int, distance: int = 0) -> None:
        """Add an edge from ``src`` to ``dst``."""
        if src not in self.nodes or dst not in self.nodes:
            raise DfgError(f"edge references unknown node: {src}->{dst}")
        self.edges.append(Edge(src, dst, distance))
        self.__dict__.pop("_signature", None)

    def __getstate__(self) -> dict:
        # The signature memo is derived state: a graph pickles to the
        # same bytes whether or not it was ever asked for its signature.
        state = dict(self.__dict__)
        state.pop("_signature", None)
        return state

    # -- queries -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of operation nodes."""
        return len(self.nodes)

    def inputs(self) -> list[Node]:
        """All INPUT/GATHER nodes, in id order."""
        return [n for n in self._ordered_nodes()
                if n.op in (Op.INPUT, Op.GATHER)]

    def outputs(self) -> list[Node]:
        """All OUTPUT/SCATTER nodes, in id order."""
        return [n for n in self._ordered_nodes()
                if n.op in (Op.OUTPUT, Op.SCATTER)]

    def op_histogram(self) -> dict[FuClass, int]:
        """Count of nodes per FU class (excluding NONE)."""
        hist: dict[FuClass, int] = {}
        for node in self.nodes.values():
            cls = node.fu_class
            if cls is FuClass.NONE:
                continue
            hist[cls] = hist.get(cls, 0) + 1
        return hist

    def _ordered_nodes(self) -> list[Node]:
        return [self.nodes[i] for i in sorted(self.nodes)]

    def successors(self) -> dict[int, list[Edge]]:
        """Adjacency: node id -> outgoing edges."""
        adj: dict[int, list[Edge]] = {i: [] for i in self.nodes}
        for edge in self.edges:
            adj[edge.src].append(edge)
        return adj

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`DfgError` on failure.

        Invariants: at least one node; every zero-distance subgraph is
        acyclic (cycles must carry distance); OUTPUT nodes have no
        zero-distance successors; INPUT nodes have no predecessors.
        """
        if not self.nodes:
            raise DfgError(f"dfg {self.name!r} has no nodes")
        preds: dict[int, int] = {i: 0 for i in self.nodes}
        for edge in self.edges:
            if edge.distance == 0:
                preds[edge.dst] += 1
            if edge.distance == 0 and self.nodes[edge.src].op is Op.OUTPUT:
                raise DfgError(
                    f"{self.name}: OUTPUT node {edge.src} feeds {edge.dst}")
        for edge in self.edges:
            if self.nodes[edge.dst].op in (Op.INPUT,) and edge.distance == 0:
                raise DfgError(
                    f"{self.name}: INPUT node {edge.dst} has a predecessor")
        # Kahn's algorithm over zero-distance edges only.
        ready = [i for i, c in preds.items() if c == 0]
        seen = 0
        adj = self.successors()
        while ready:
            node = ready.pop()
            seen += 1
            for edge in adj[node]:
                if edge.distance != 0:
                    continue
                preds[edge.dst] -= 1
                if preds[edge.dst] == 0:
                    ready.append(edge.dst)
        if seen != len(self.nodes):
            raise DfgError(
                f"{self.name}: zero-distance cycle detected "
                f"(loop-carried edges must declare distance > 0)")

    # -- analysis ----------------------------------------------------------

    def critical_path(self) -> int:
        """Longest latency path over zero-distance edges (pipeline depth)."""
        self.validate()
        order = self._topo_order_zero_distance()
        dist = {i: self.nodes[i].latency for i in self.nodes}
        adj = self.successors()
        for node in order:
            for edge in adj[node]:
                if edge.distance != 0:
                    continue
                cand = dist[node] + self.nodes[edge.dst].latency
                if cand > dist[edge.dst]:
                    dist[edge.dst] = cand
        return max(dist.values())

    def recurrence_mii(self) -> float:
        """Minimum II imposed by loop-carried cycles (max cycle ratio).

        Uses Lawler's scheme: binary-search the ratio ``r``; a cycle with
        positive weight under ``w(e) = latency(src) - r * distance(e)``
        means ``r`` is below the max cycle ratio. Positive-cycle detection
        is Bellman-Ford from a virtual source. Acyclic graphs return 1.0
        (an II of one: fully pipelined).
        """
        self.validate()
        if not any(e.distance > 0 for e in self.edges):
            return 1.0
        lo, hi = 1.0, float(sum(n.latency for n in self.nodes.values()) + 1)
        for _ in range(48):  # ~1e-14 relative precision, plenty for IIs
            mid = (lo + hi) / 2
            if self._has_positive_cycle(mid):
                lo = mid
            else:
                hi = mid
        return hi

    def _has_positive_cycle(self, ratio: float) -> bool:
        ids = list(self.nodes)
        dist = {i: 0.0 for i in ids}
        for _ in range(len(ids)):
            changed = False
            for edge in self.edges:
                weight = self.nodes[edge.src].latency - ratio * edge.distance
                cand = dist[edge.src] + weight
                if cand > dist[edge.dst] + 1e-12:
                    dist[edge.dst] = cand
                    changed = True
            if not changed:
                return False
        return True

    def _topo_order_zero_distance(self) -> list[int]:
        preds = {i: 0 for i in self.nodes}
        for edge in self.edges:
            if edge.distance == 0:
                preds[edge.dst] += 1
        ready = sorted(i for i, c in preds.items() if c == 0)
        order = []
        adj = self.successors()
        while ready:
            node = ready.pop(0)
            order.append(node)
            for edge in adj[node]:
                if edge.distance != 0:
                    continue
                preds[edge.dst] -= 1
                if preds[edge.dst] == 0:
                    ready.append(edge.dst)
        return order

    def signature(self) -> tuple:
        """Hashable identity used by lane config caches.

        Computed on first use and kept until :meth:`add` or
        :meth:`connect` changes the graph.
        """
        signature = self.__dict__.get("_signature")
        if signature is None:
            signature = self._signature = (
                self.name, len(self.nodes),
                tuple(sorted((n.node_id, n.op.value)
                             for n in self.nodes.values())),
                tuple(sorted((e.src, e.dst, e.distance)
                             for e in self.edges)))
        return signature


class DfgBuilder:
    """Fluent builder producing validated graphs.

    Example::

        dfg = (DfgBuilder("dot")
               .input("a").input("b")
               .op(Op.MUL, "prod", after=("a", "b"))
               .accumulate(Op.ADD, "sum", after=("prod",))
               .output("out", after=("sum",))
               .build())
    """

    def __init__(self, name: str) -> None:
        self._dfg = Dfg(name)
        self._by_name: dict[str, int] = {}

    def _register(self, name: str, node_id: int) -> None:
        if name in self._by_name:
            raise DfgError(f"duplicate node name {name!r}")
        self._by_name[name] = node_id

    def input(self, name: str) -> "DfgBuilder":
        """Add a stream-input node."""
        self._register(name, self._dfg.add(Op.INPUT, name))
        return self

    def output(self, name: str, after: Iterable[str]) -> "DfgBuilder":
        """Add a stream-output node fed by ``after``."""
        node_id = self._dfg.add(Op.OUTPUT, name)
        self._register(name, node_id)
        for producer in after:
            self._dfg.connect(self._by_name[producer], node_id)
        return self

    def op(self, op: Op, name: str, after: Iterable[str] = ()) -> "DfgBuilder":
        """Add a compute node fed by ``after``."""
        node_id = self._dfg.add(op, name)
        self._register(name, node_id)
        for producer in after:
            self._dfg.connect(self._by_name[producer], node_id)
        return self

    def accumulate(self, op: Op, name: str,
                   after: Iterable[str] = (),
                   distance: int = 1) -> "DfgBuilder":
        """Add a self-recurrent node (e.g. a running sum)."""
        node_id = self._dfg.add(op, name)
        self._register(name, node_id)
        for producer in after:
            self._dfg.connect(self._by_name[producer], node_id)
        self._dfg.connect(node_id, node_id, distance=distance)
        return self

    def build(self) -> Dfg:
        """Validate and return the graph."""
        self._dfg.validate()
        return self._dfg


# ---------------------------------------------------------------------------
# A small library of kernel graphs reused by the workloads.
# ---------------------------------------------------------------------------

def dot_product_dfg(name: str = "dot") -> Dfg:
    """Multiply-accumulate over two input streams."""
    return (DfgBuilder(name)
            .input("a").input("b")
            .op(Op.MUL, "prod", after=("a", "b"))
            .accumulate(Op.ADD, "acc", after=("prod",))
            .output("out", after=("acc",))
            .build())


def axpy_dfg(name: str = "axpy") -> Dfg:
    """Elementwise multiply-add: out = alpha * x + y."""
    return (DfgBuilder(name)
            .input("x").input("y")
            .op(Op.CONST, "alpha")
            .op(Op.MUL, "ax", after=("x", "alpha"))
            .op(Op.ADD, "sum", after=("ax", "y"))
            .output("out", after=("sum",))
            .build())


def merge_dfg(name: str = "merge") -> Dfg:
    """Two-way sorted-stream merge (compare/select with recurrence)."""
    return (DfgBuilder(name)
            .input("a").input("b")
            .op(Op.CMP, "cmp", after=("a", "b"))
            .accumulate(Op.SELECT, "sel", after=("cmp",))
            .output("out", after=("sel",))
            .build())


def compare_count_dfg(name: str = "cmpcount") -> Dfg:
    """Stream intersection / comparison counting (triangle counting)."""
    return (DfgBuilder(name)
            .input("a").input("b")
            .op(Op.CMP, "eq", after=("a", "b"))
            .op(Op.LOGIC, "mask", after=("eq",))
            .accumulate(Op.ADD, "count", after=("mask",))
            .output("out", after=("count",))
            .build())


def stencil5_dfg(name: str = "stencil5") -> Dfg:
    """Five-point stencil over one input stream (shifted taps)."""
    b = DfgBuilder(name).input("center")
    b.op(Op.CONST, "w0").op(Op.CONST, "w1")
    b.op(Op.MUL, "c0", after=("center", "w0"))
    # Shifted taps come through PHI chains (register delays on the fabric).
    b.op(Op.PHI, "n", after=("center",))
    b.op(Op.PHI, "s", after=("center",))
    b.op(Op.PHI, "e", after=("center",))
    b.op(Op.PHI, "w", after=("center",))
    b.op(Op.ADD, "ns", after=("n", "s"))
    b.op(Op.ADD, "ew", after=("e", "w"))
    b.op(Op.ADD, "nsew", after=("ns", "ew"))
    b.op(Op.MUL, "c1", after=("nsew", "w1"))
    b.op(Op.ADD, "out_sum", after=("c0", "c1"))
    b.output("out", after=("out_sum",))
    return b.build()


def smith_waterman_dfg(name: str = "swcell") -> Dfg:
    """Smith-Waterman inner cell: max of three neighbours plus score."""
    return (DfgBuilder(name)
            .input("above").input("left").input("diag").input("score")
            .op(Op.ADD, "dscore", after=("diag", "score"))
            .op(Op.CMP, "m1", after=("above", "left"))
            .op(Op.SELECT, "best_al", after=("m1",))
            .op(Op.CMP, "m2", after=("best_al", "dscore"))
            .op(Op.SELECT, "best", after=("m2",))
            .output("out", after=("best",))
            .build())


def histogram_dfg(name: str = "hist") -> Dfg:
    """Histogram update: gather bin, increment, scatter back."""
    return (DfgBuilder(name)
            .input("keys")
            .op(Op.SHIFT, "bin", after=("keys",))
            .op(Op.GATHER, "old", after=("bin",))
            .accumulate(Op.ADD, "inc", after=("old",))
            .op(Op.SCATTER, "store", after=("inc", "bin"))
            .output("out", after=("store",))
            .build())


def cholesky_update_dfg(name: str = "trsm_gemm") -> Dfg:
    """Tile update kernel for Cholesky (MAC-heavy with divide)."""
    return (DfgBuilder(name)
            .input("a").input("l")
            .op(Op.MUL, "p1", after=("a", "l"))
            .op(Op.MAC, "p2", after=("p1", "l"))
            .accumulate(Op.ADD, "acc", after=("p2",))
            .op(Op.DIV, "scaled", after=("acc",))
            .output("out", after=("scaled",))
            .build())


def distance_dfg(name: str = "l2dist") -> Dfg:
    """Squared L2 distance between two streams (kNN kernel)."""
    return (DfgBuilder(name)
            .input("q").input("c")
            .op(Op.SUB, "diff", after=("q", "c"))
            .op(Op.MUL, "sq", after=("diff", "diff"))
            .accumulate(Op.ADD, "acc", after=("sq",))
            .output("out", after=("acc",))
            .build())


def edge_expand_dfg(name: str = "bfs_expand") -> Dfg:
    """BFS frontier expansion: gather neighbour, test visited, emit."""
    return (DfgBuilder(name)
            .input("edges")
            .op(Op.GATHER, "visited", after=("edges",))
            .op(Op.CMP, "fresh", after=("visited",))
            .op(Op.SELECT, "emit", after=("fresh", "edges"))
            .op(Op.SCATTER, "mark", after=("emit",))
            .output("out", after=("mark",))
            .build())
