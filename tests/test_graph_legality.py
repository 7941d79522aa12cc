"""Unit tests for legality predicates (Lemma 2.1, Theorem 3.1, Section 3.1)."""

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.graph import (
    MLDG,
    VectorClass,
    check_legal,
    classify_vector,
    fusion_preventing_edges,
    is_deadlock_free,
    is_fusion_legal,
    is_legal,
    is_sequence_executable,
    lemma_2_1_holds,
    mldg_from_table,
    zero_weight_cycle,
)
from repro.gallery import figure2_mldg, figure8_mldg, figure14_mldg
from repro.graph.analysis import canonical_cycle
from repro.vectors import IVec


class TestClassifyVector:
    """The Section-3.1 case analysis, with the sign convention of Thm 3.1."""

    def test_outer_carried_safe(self):
        assert classify_vector(IVec(1, -100)) == VectorClass.OUTER_CARRIED
        assert classify_vector(IVec(2, 1)) == VectorClass.OUTER_CARRIED

    def test_forward_safe(self):
        assert classify_vector(IVec(0, 0)) == VectorClass.FORWARD
        assert classify_vector(IVec(0, 3)) == VectorClass.FORWARD

    def test_fusion_preventing(self):
        # the paper's Figure 8 discussion explicitly names (0,-2) and (0,-3)
        assert classify_vector(IVec(0, -2)) == VectorClass.FUSION_PREVENTING
        assert classify_vector(IVec(0, -3)) == VectorClass.FUSION_PREVENTING

    def test_illegal(self):
        assert classify_vector(IVec(-1, 0)) == VectorClass.ILLEGAL


class TestLegality:
    def test_paper_graphs_legal(self):
        for g in (figure2_mldg(), figure8_mldg(), figure14_mldg()):
            assert is_legal(g)

    def test_negative_cycle_illegal(self):
        g = mldg_from_table(
            {("A", "B"): [(0, -1)], ("B", "A"): [(0, 0)]}, nodes=["A", "B"]
        )
        report = check_legal(g)
        assert not report.legal
        assert "negative" in report.violations[0]

    def test_negative_self_loop_illegal(self):
        g = mldg_from_table({("A", "A"): [(0, -1)]}, nodes=["A"])
        assert not is_legal(g)

    def test_dangling_negative_edge_is_legal(self):
        """An edge with negative weight off any cycle is retimable, hence legal."""
        g = mldg_from_table({("A", "B"): [(0, -5)]}, nodes=["A", "B"])
        assert is_legal(g)


class TestDeadlockFreedom:
    def test_figure14_has_zero_cycle(self):
        # canonical: from the earliest node in program order, every process
        assert zero_weight_cycle(figure14_mldg()) == ["B", "C", "D", "E"]
        assert not is_deadlock_free(figure14_mldg())

    def test_figures_2_and_8_deadlock_free(self):
        assert is_deadlock_free(figure2_mldg())
        assert is_deadlock_free(figure8_mldg())

    def test_zero_self_loop_is_deadlock(self):
        g = mldg_from_table({("A", "A"): [(0, 0)]}, nodes=["A"])
        assert is_legal(g)
        assert not is_deadlock_free(g)

    def test_on_illegal_graph_raises(self):
        g = mldg_from_table({("A", "A"): [(0, -1)]}, nodes=["A"])
        with pytest.raises(ValueError):
            zero_weight_cycle(g)


@st.composite
def small_mldgs(draw):
    """Graphs of at most 6 nodes whose short vectors make zero-weight cycles common."""
    names = [chr(ord("A") + k) for k in range(draw(st.integers(1, 6)))]
    g = MLDG(dim=2)
    for name in names:
        g.add_node(name)
    vectors = st.builds(IVec, st.integers(0, 1), st.integers(-1, 1))
    for src, dst, vecs in draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.sampled_from(names),
                st.lists(vectors, min_size=1, max_size=3),
            ),
            max_size=10,
        )
    ):
        g.add_dependence(src, dst, *vecs)
    return g


def _zero_cycle_of_retimed_graph(g, solution):
    """The zero-weight cycle read off the whole retimed graph."""
    zero = IVec.zero(g.dim)
    zero_graph = nx.DiGraph()
    zero_graph.add_nodes_from(g.nodes)
    for e in g.retimed(solution).edges():
        if e.delta == zero:
            zero_graph.add_edge(e.src, e.dst)
    return canonical_cycle(zero_graph, g.nodes)


class TestZeroWeightCycleWithoutRetiming:
    """LF203 shifts each edge's delta instead of retiming the graph: a
    retiming adds one vector to every vector of an edge, which keeps their
    lexicographic order, so the zero-weight subgraph is the same."""

    @given(small_mldgs())
    @settings(deadline=None)
    def test_same_cycle_as_the_retimed_graph(self, g):
        report = check_legal(g)
        assume(report.legal)
        expected = _zero_cycle_of_retimed_graph(g, report.solution)
        assert zero_weight_cycle(g, solution=report.solution) == expected
        assert zero_weight_cycle(g) == expected

    @given(small_mldgs(), st.data())
    @settings(deadline=None)
    def test_same_zero_subgraph_under_any_retiming(self, g, data):
        shift = st.builds(IVec, st.integers(-1, 1), st.integers(-1, 1))
        r = {n: data.draw(shift) for n in g.nodes if data.draw(st.booleans())}
        assert zero_weight_cycle(g, solution=r) == _zero_cycle_of_retimed_graph(g, r)


class TestSequenceExecutability:
    def test_figure2_executable(self):
        assert is_sequence_executable(figure2_mldg()).legal

    def test_figure8_executable(self):
        assert is_sequence_executable(figure8_mldg()).legal

    def test_figure14_not_executable(self):
        """Figure 14's D->C edge carries (0,-2): backwards in loop order."""
        report = is_sequence_executable(figure14_mldg())
        assert not report.legal
        assert any("D->C" in v for v in report.violations)

    def test_negative_outer_distance(self):
        g = mldg_from_table({("A", "B"): [(-1, 0)]}, nodes=["A", "B"])
        report = is_sequence_executable(g)
        assert not report.legal

    def test_self_loop_same_iteration(self):
        g = mldg_from_table({("A", "A"): [(0, 1)]}, nodes=["A"])
        assert not is_sequence_executable(g).legal


class TestFusionLegality:
    def test_figure2_direct_fusion_illegal(self):
        """Figure 4: fusing Figure 2 directly is illegal ((0,-2) on B->C)."""
        g = figure2_mldg()
        assert not is_fusion_legal(g)
        bad = fusion_preventing_edges(g)
        assert {e.key for e in bad} == {("B", "C"), ("C", "D")}

    def test_figure6_retimed_graph_fusable(self):
        from repro.gallery.paper import figure2_expected_llofra_retiming

        gr = figure2_expected_llofra_retiming().apply(figure2_mldg())
        assert is_fusion_legal(gr)

    def test_all_nonnegative_is_fusable(self):
        g = mldg_from_table(
            {("A", "B"): [(0, 0), (1, -5)], ("B", "C"): [(0, 2)]},
            nodes=["A", "B", "C"],
        )
        assert is_fusion_legal(g)


class TestLemma21:
    def test_holds_on_figures_2_and_8(self):
        assert lemma_2_1_holds(figure2_mldg())
        assert lemma_2_1_holds(figure8_mldg())

    def test_fails_on_figure14(self):
        """Documented paper anomaly: cycle C->D->C has weight (0,1) < (1,-1)."""
        assert not lemma_2_1_holds(figure14_mldg())

    def test_explicit_cycle_weights_figure2(self):
        from repro.graph import cycle_weight

        g = figure2_mldg()
        assert cycle_weight(g, ["A", "B", "C", "D"]) == IVec(3, -1)
        assert cycle_weight(g, ["A", "C", "D"]) == IVec(2, 1)
