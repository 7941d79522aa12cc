"""Unit tests for Algorithms 2-5, pinned to the paper's reported results."""

import pytest

from repro.fusion import (
    IllegalMLDGError,
    NoParallelRetimingError,
    NotAcyclicError,
    acyclic_constraint_graph,
    acyclic_parallel_retiming,
    cyclic_parallel_retiming,
    cyclic_phase_graphs,
    hyperplane_parallel_fusion,
    legal_fusion_retiming,
    llofra_constraint_graph,
)
from repro.gallery import figure2_mldg, figure8_mldg, figure14_mldg
from repro.gallery.paper import (
    figure2_expected_alg4_retiming,
    figure2_expected_llofra_retiming,
    figure8_expected_retiming,
    figure14_expected_hyperplane,
    figure14_expected_retiming,
    figure14_expected_schedule,
)
from repro.graph import is_fusion_legal, mldg_from_table
from repro.retiming import is_doall_after_fusion, verify_retiming
from repro.vectors import IVec


class TestLLOFRA:
    """Algorithm 2."""

    def test_figure6_exact(self):
        assert legal_fusion_retiming(figure2_mldg()) == figure2_expected_llofra_retiming()

    def test_figure15_exact(self):
        assert legal_fusion_retiming(figure14_mldg()) == figure14_expected_retiming()

    def test_result_makes_fusion_legal(self):
        for build in (figure2_mldg, figure8_mldg, figure14_mldg):
            g = build()
            gr = legal_fusion_retiming(g).apply(g)
            assert is_fusion_legal(gr)

    def test_cycle_weights_preserved(self):
        g = figure2_mldg()
        r = legal_fusion_retiming(g)
        assert verify_retiming(g, r).cycles_preserved

    def test_illegal_graph_raises(self):
        g = mldg_from_table(
            {("A", "B"): [(0, -1)], ("B", "A"): [(0, 0)]}, nodes=["A", "B"]
        )
        with pytest.raises(IllegalMLDGError):
            legal_fusion_retiming(g)

    def test_constraint_graph_shape(self):
        cg = llofra_constraint_graph(figure2_mldg())
        # 4 nodes + v0; 6 dependence edges + 4 source edges
        assert len(cg.nodes) == 5
        assert len(cg.edges) == 10

    def test_single_node_graph(self):
        g = mldg_from_table({("A", "A"): [(1, 0)]}, nodes=["A"])
        r = legal_fusion_retiming(g)
        assert r["A"] == IVec(0, 0)


class TestAcyclic:
    """Algorithm 3."""

    def test_figure10_exact(self):
        assert acyclic_parallel_retiming(figure8_mldg()) == figure8_expected_retiming()

    def test_figure10_retimed_weights(self):
        """The retimed edge weights printed in Figure 10."""
        gr = figure8_expected_retiming().apply(figure8_mldg())
        assert gr.delta("A", "B") == IVec(1, 1)
        assert gr.delta("B", "C") == IVec(1, -2)
        assert gr.delta("C", "D") == IVec(1, 3)
        assert gr.delta("D", "E") == IVec(1, -2)
        assert gr.delta("B", "F") == IVec(1, -2)
        assert gr.delta("F", "G") == IVec(1, 2)
        assert gr.delta("B", "E") == IVec(1, 2)
        assert gr.delta("A", "D") == IVec(2, -3)

    def test_result_is_doall(self):
        g = figure8_mldg()
        gr = acyclic_parallel_retiming(g).apply(g)
        assert is_doall_after_fusion(gr)
        assert is_fusion_legal(gr)

    def test_second_components_zero(self):
        r = acyclic_parallel_retiming(figure8_mldg())
        assert all(v[1] == 0 for _n, v in r.items())

    def test_cyclic_input_rejected(self):
        with pytest.raises(NotAcyclicError):
            acyclic_parallel_retiming(figure2_mldg())

    def test_constraint_graph_uses_infinite_second(self):
        """Figure 9's weights have the form (delta[0]-1, inf)."""
        import math

        cg = acyclic_constraint_graph(figure8_mldg())
        dep_edges = [e for e in cg.edges if e[0] != cg.source]
        assert all(w[1] == math.inf for (_u, _v, w) in dep_edges)

    def test_chain_of_fusion_preventing_edges(self):
        g = mldg_from_table(
            {("A", "B"): [(0, -4)], ("B", "C"): [(0, -4)]}, nodes=["A", "B", "C"]
        )
        r = acyclic_parallel_retiming(g)
        gr = r.apply(g)
        assert is_doall_after_fusion(gr)
        assert gr.delta("A", "B")[0] >= 1
        assert gr.delta("B", "C")[0] >= 1


class TestCyclic:
    """Algorithm 4."""

    def test_figure12_exact(self):
        assert cyclic_parallel_retiming(figure2_mldg()) == figure2_expected_alg4_retiming()

    def test_result_is_doall_and_legal(self):
        g = figure2_mldg()
        gr = cyclic_parallel_retiming(g).apply(g)
        assert is_doall_after_fusion(gr)
        assert is_fusion_legal(gr)

    def test_figure12_vector_sets(self):
        """All retimed vectors satisfy Property 4.2 (>= (1,-1) or (0,0))."""
        gr = figure2_expected_alg4_retiming().apply(figure2_mldg())
        for d in gr.all_vectors():
            assert d == IVec(0, 0) or d >= IVec(1, -1) or d[0] >= 1

    def test_figure14_fails_theorem_4_2(self):
        with pytest.raises(NoParallelRetimingError) as err:
            cyclic_parallel_retiming(figure14_mldg())
        assert err.value.phase in ("x", "y")

    def test_works_on_acyclic_too(self):
        """Algorithm 4 subsumes the acyclic case."""
        g = figure8_mldg()
        gr = cyclic_parallel_retiming(g).apply(g)
        assert is_doall_after_fusion(gr)

    def test_phase_graphs_figure11(self):
        """Figure 11a: the hard-edge B->C gets weight -1 in x."""
        graphs = cyclic_phase_graphs(figure2_mldg())
        x_weights = {(u, v): w for (u, v, w) in graphs.x_graph.edges if u != graphs.x_graph.source}
        assert x_weights[("B", "C")] == -1
        assert x_weights[("C", "D")] == 0
        assert x_weights[("A", "B")] == 1
        assert x_weights[("D", "A")] == 2

    def test_phase_two_has_back_edges(self):
        """Figure 11b: C->D appears with weight -1 and back-edge D->C with 1."""
        graphs = cyclic_phase_graphs(figure2_mldg())
        y_edges = [(u, v, w) for (u, v, w) in graphs.y_graph.edges if u != graphs.y_graph.source]
        assert ("C", "D", -1) in y_edges
        assert ("D", "C", 1) in y_edges

    def test_y_phase_failure(self):
        """Inconsistent same-iteration coupling fails in the y phase."""
        g = mldg_from_table(
            {("R", "U"): [(0, -1)], ("U", "R"): [(0, 3)]}, nodes=["R", "U"]
        )
        with pytest.raises(NoParallelRetimingError) as err:
            cyclic_parallel_retiming(g)
        assert err.value.phase == "y"

    def test_non_2d_rejected(self):
        g = mldg_from_table({("A", "B"): [(1, 0, 0)]}, nodes=["A", "B"], dim=3)
        with pytest.raises(ValueError):
            cyclic_parallel_retiming(g)


class TestHyperplane:
    """Algorithm 5."""

    def test_figure14_full_result(self):
        hp = hyperplane_parallel_fusion(figure14_mldg())
        assert hp.retiming == figure14_expected_retiming()
        assert hp.schedule == figure14_expected_schedule()
        assert hp.hyperplane == figure14_expected_hyperplane()
        assert not hp.is_row_parallel

    def test_figure15_retimed_vector_sets(self):
        """The D_Lr sets Section 4.4 lists explicitly."""
        gr = figure14_expected_retiming().apply(figure14_mldg())
        assert gr.D("A", "B") == frozenset({IVec(0, 5)})
        assert gr.D("B", "C") == frozenset({IVec(0, 0), IVec(0, 5)})
        assert gr.D("C", "D") == frozenset({IVec(0, 0), IVec(0, 2)})
        assert gr.D("D", "C") == frozenset({IVec(0, 1)})
        assert gr.D("D", "E") == frozenset({IVec(0, 0)})
        assert gr.D("E", "B") == frozenset({IVec(0, 0), IVec(1, 0)})
        assert gr.D("B", "F") == frozenset({IVec(0, 0)})
        assert gr.D("F", "G") == frozenset({IVec(1, -4)})
        assert gr.D("B", "E") == frozenset({IVec(1, 3)})
        assert gr.D("A", "D") == frozenset({IVec(0, 0), IVec(1, 3)})

    def test_schedule_is_strict_for_retimed_vectors(self):
        from repro.vectors import is_strict_schedule_vector

        hp = hyperplane_parallel_fusion(figure14_mldg())
        assert is_strict_schedule_vector(hp.schedule, hp.retimed_vectors)

    def test_works_on_every_legal_graph(self):
        for build in (figure2_mldg, figure8_mldg, figure14_mldg):
            hp = hyperplane_parallel_fusion(build())
            assert hp.schedule.dot(hp.hyperplane) == 0

    def test_non_2d_rejected(self):
        g = mldg_from_table({("A", "B"): [(1, 0, 0)]}, nodes=["A", "B"], dim=3)
        with pytest.raises(ValueError):
            hyperplane_parallel_fusion(g)
