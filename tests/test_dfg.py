"""Unit tests for the dataflow-graph IR (repro.arch.dfg)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.arch.dfg import (
    Dfg,
    DfgBuilder,
    DfgError,
    FuClass,
    Op,
    OP_LATENCY,
    axpy_dfg,
    cholesky_update_dfg,
    compare_count_dfg,
    distance_dfg,
    dot_product_dfg,
    edge_expand_dfg,
    histogram_dfg,
    merge_dfg,
    smith_waterman_dfg,
    stencil5_dfg,
)

ALL_KERNELS = [
    dot_product_dfg, axpy_dfg, merge_dfg, compare_count_dfg, stencil5_dfg,
    smith_waterman_dfg, histogram_dfg, cholesky_update_dfg, distance_dfg,
    edge_expand_dfg,
]


def test_builder_constructs_valid_graph():
    dfg = dot_product_dfg()
    assert dfg.num_nodes == 5
    assert len(dfg.inputs()) == 2
    assert len(dfg.outputs()) == 1


def test_builder_rejects_duplicate_names():
    b = DfgBuilder("dup").input("a")
    with pytest.raises(DfgError, match="duplicate"):
        b.input("a")


def test_validate_rejects_empty():
    with pytest.raises(DfgError, match="no nodes"):
        Dfg("empty").validate()


def test_validate_rejects_zero_distance_cycle():
    dfg = Dfg("cyc")
    a = dfg.add(Op.ADD)
    b = dfg.add(Op.ADD)
    dfg.connect(a, b)
    dfg.connect(b, a)  # distance 0 -> illegal
    with pytest.raises(DfgError, match="cycle"):
        dfg.validate()


def test_distance_cycle_is_legal():
    dfg = Dfg("rec")
    a = dfg.add(Op.ADD)
    dfg.connect(a, a, distance=1)
    dfg.validate()


def test_validate_rejects_output_feeding_compute():
    dfg = Dfg("bad-out")
    out = dfg.add(Op.OUTPUT)
    add = dfg.add(Op.ADD)
    dfg.connect(out, add)
    with pytest.raises(DfgError, match="OUTPUT"):
        dfg.validate()


def test_validate_rejects_input_with_predecessor():
    dfg = Dfg("bad-in")
    add = dfg.add(Op.ADD)
    inp = dfg.add(Op.INPUT)
    dfg.connect(add, inp)
    with pytest.raises(DfgError, match="INPUT"):
        dfg.validate()


def test_connect_unknown_node_rejected():
    dfg = Dfg("unk")
    a = dfg.add(Op.ADD)
    with pytest.raises(DfgError, match="unknown node"):
        dfg.connect(a, 99)


def test_negative_edge_distance_rejected():
    dfg = Dfg("neg")
    a = dfg.add(Op.ADD)
    b = dfg.add(Op.ADD)
    with pytest.raises(DfgError):
        dfg.connect(a, b, distance=-1)


def test_critical_path_linear_chain():
    dfg = Dfg("chain")
    n1 = dfg.add(Op.INPUT)    # latency 1
    n2 = dfg.add(Op.MUL)      # latency 3
    n3 = dfg.add(Op.ADD)      # latency 1
    n4 = dfg.add(Op.OUTPUT)   # latency 1
    dfg.connect(n1, n2)
    dfg.connect(n2, n3)
    dfg.connect(n3, n4)
    assert dfg.critical_path() == 1 + 3 + 1 + 1


def test_critical_path_takes_longest_branch():
    dfg = Dfg("branch")
    src = dfg.add(Op.INPUT)
    fast = dfg.add(Op.ADD)
    slow = dfg.add(Op.DIV)  # latency 8
    join = dfg.add(Op.ADD)
    dfg.connect(src, fast)
    dfg.connect(src, slow)
    dfg.connect(fast, join)
    dfg.connect(slow, join)
    assert dfg.critical_path() == 1 + 8 + 1


def test_recurrence_mii_acyclic_is_one():
    assert axpy_dfg().recurrence_mii() == 1.0


def test_recurrence_mii_simple_self_loop():
    # ADD accumulator, latency 1, distance 1 -> MII 1.
    dfg = dot_product_dfg()
    assert dfg.recurrence_mii() == pytest.approx(1.0, abs=1e-6)


def test_recurrence_mii_slow_op_in_loop():
    dfg = Dfg("divloop")
    d = dfg.add(Op.DIV)  # latency 8
    dfg.connect(d, d, distance=1)
    assert dfg.recurrence_mii() == pytest.approx(8.0, abs=1e-6)


def test_recurrence_mii_distance_two_halves_ratio():
    dfg = Dfg("dist2")
    d = dfg.add(Op.DIV)
    dfg.connect(d, d, distance=2)
    assert dfg.recurrence_mii() == pytest.approx(4.0, abs=1e-6)


def test_recurrence_mii_multi_node_cycle():
    dfg = Dfg("loop2")
    a = dfg.add(Op.MUL)   # 3
    b = dfg.add(Op.ADD)   # 1
    dfg.connect(a, b)
    dfg.connect(b, a, distance=1)
    assert dfg.recurrence_mii() == pytest.approx(4.0, abs=1e-6)


def test_op_histogram_classes():
    hist = dot_product_dfg().op_histogram()
    assert hist[FuClass.MEM] == 3   # two inputs + one output
    assert hist[FuClass.MUL] == 1
    assert hist[FuClass.ALU] == 1


def test_const_not_counted_in_histogram():
    hist = axpy_dfg().op_histogram()
    assert FuClass.NONE not in hist


def test_signature_stable_and_distinguishing():
    assert dot_product_dfg().signature() == dot_product_dfg().signature()
    assert dot_product_dfg().signature() != merge_dfg().signature()


def replay(ops, edges, upto=None):
    """A fresh graph built from ``ops`` and the first ``upto`` ``edges``,
    never asked for its signature before."""
    dfg = Dfg("sig")
    for op in ops:
        dfg.add(op)
    for src, dst, distance in edges[:upto]:
        dfg.connect(src, dst, distance)
    return dfg


@given(ops=st.lists(st.sampled_from(list(Op)), min_size=1, max_size=6),
       edge_picks=st.lists(st.tuples(st.integers(0, 99),
                                     st.integers(0, 99),
                                     st.integers(0, 2)), max_size=6))
def test_signature_follows_add_and_connect(ops, edge_picks):
    """Property: a signature asked for between edits is the signature of
    a fresh graph with the same contents, and each edit changes it."""
    edges = [(s % len(ops), d % len(ops), k) for s, d, k in edge_picks]
    dfg = replay(ops, [])
    before = dfg.signature()
    assert before == replay(ops, []).signature()
    extra = dfg.add(Op.MUL)
    assert dfg.signature() != before
    assert dfg.signature() == replay(ops + [Op.MUL], []).signature()
    for count, (src, dst, distance) in enumerate(edges, start=1):
        before = dfg.signature()
        dfg.connect(src, dst, distance)
        assert dfg.signature() != before
        assert dfg.signature() == replay(ops + [Op.MUL], edges,
                                         upto=count).signature()
    assert extra == len(ops)


@pytest.mark.parametrize("factory", ALL_KERNELS)
def test_signature_leaves_the_pickle_unchanged(factory):
    """The signature memo is not part of a graph's pickled state."""
    dfg = factory()
    before = pickle.dumps(dfg)
    signature = dfg.signature()
    assert pickle.dumps(dfg) == before
    restored = pickle.loads(before)
    assert restored == dfg
    assert restored.signature() == signature


@pytest.mark.parametrize("factory", ALL_KERNELS)
def test_kernel_library_graphs_are_valid(factory):
    dfg = factory()
    dfg.validate()
    assert dfg.critical_path() >= 1
    assert dfg.recurrence_mii() >= 1.0
    assert dfg.inputs(), f"{dfg.name} has no inputs"
    assert dfg.outputs(), f"{dfg.name} has no outputs"


@pytest.mark.parametrize("factory", ALL_KERNELS)
def test_kernel_latencies_known(factory):
    for node in factory().nodes.values():
        assert node.op in OP_LATENCY


@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=4))
def test_recurrence_mii_equals_latency_over_distance(latency_ops, distance):
    """Property: a single cycle's MII is sum(latency)/distance."""
    dfg = Dfg("prop")
    nodes = [dfg.add(Op.ADD) for _ in range(latency_ops)]
    for a, b in zip(nodes, nodes[1:]):
        dfg.connect(a, b)
    dfg.connect(nodes[-1], nodes[0], distance=distance)
    expected = max(1.0, latency_ops / distance)
    assert dfg.recurrence_mii() == pytest.approx(expected, rel=1e-6)
