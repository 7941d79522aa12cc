"""Unit tests for the MLDG data structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import MLDG, mldg_from_table
from repro.graph.edges import DependenceEdge
from repro.vectors import IVec


@pytest.fixture
def simple():
    g = MLDG(dim=2)
    g.add_dependence("A", "B", IVec(1, 1), IVec(2, 1))
    g.add_dependence("B", "C", IVec(0, -2), IVec(0, 1))
    return g


class TestConstruction:
    def test_nodes_in_program_order(self, simple):
        assert simple.nodes == ("A", "B", "C")

    def test_explicit_node_order(self):
        g = MLDG()
        for n in ["Z", "Y", "X"]:
            g.add_node(n)
        g.add_dependence("X", "Z", IVec(1, 0))
        assert g.nodes == ("Z", "Y", "X")
        assert g.program_index("Y") == 1

    def test_readd_node_noop(self, simple):
        simple.add_node("A")
        assert simple.nodes == ("A", "B", "C")

    def test_vectors_accumulate(self):
        g = MLDG()
        g.add_dependence("A", "B", IVec(1, 1))
        g.add_dependence("A", "B", IVec(2, 1))
        assert g.D("A", "B") == frozenset({IVec(1, 1), IVec(2, 1)})

    def test_duplicate_vectors_dedupe(self):
        g = MLDG()
        g.add_dependence("A", "B", IVec(1, 1), IVec(1, 1))
        assert len(g.D("A", "B")) == 1

    def test_dimension_enforced(self):
        g = MLDG(dim=2)
        with pytest.raises(ValueError):
            g.add_dependence("A", "B", IVec(1, 2, 3))

    def test_requires_ivec(self):
        g = MLDG()
        with pytest.raises(TypeError):
            g.add_dependence("A", "B", (1, 2))  # type: ignore[arg-type]

    def test_empty_vector_list_rejected(self):
        g = MLDG()
        with pytest.raises(ValueError):
            g.add_dependence("A", "B")

    def test_bad_node_name(self):
        g = MLDG()
        with pytest.raises(ValueError):
            g.add_node("")

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            MLDG(dim=0)


class TestQueries:
    def test_delta_is_lex_min(self, simple):
        assert simple.delta("A", "B") == IVec(1, 1)
        assert simple.delta("B", "C") == IVec(0, -2)

    def test_hard_edge(self, simple):
        assert simple.is_hard_edge("B", "C")
        assert not simple.is_hard_edge("A", "B")

    def test_D_missing_edge_empty(self, simple):
        assert simple.D("A", "C") == frozenset()

    def test_has_edge(self, simple):
        assert simple.has_edge("A", "B")
        assert not simple.has_edge("B", "A")

    def test_edges_deterministic_order(self, simple):
        keys = [e.key for e in simple.edges()]
        assert keys == [("A", "B"), ("B", "C")]

    def test_all_vectors(self, simple):
        assert sorted(simple.all_vectors()) == [
            IVec(0, -2), IVec(0, 1), IVec(1, 1), IVec(2, 1)
        ]

    def test_successors_predecessors(self, simple):
        assert simple.successors("A") == ["B"]
        assert simple.predecessors("C") == ["B"]

    def test_counts(self, simple):
        assert simple.num_nodes == 3
        assert simple.num_edges == 2


class TestTransforms:
    def test_copy_independent(self, simple):
        c = simple.copy()
        c.add_dependence("C", "A", IVec(1, 0))
        assert not simple.has_edge("C", "A")
        assert c.has_edge("C", "A")

    def test_retimed_shifts_vectors(self, simple):
        r = {"B": IVec(0, -2)}
        gr = simple.retimed(r)
        # A->B: d + r(A) - r(B) = d - (0,-2)
        assert gr.D("A", "B") == frozenset({IVec(1, 3), IVec(2, 3)})
        # B->C: d + r(B) - r(C) = d + (0,-2)
        assert gr.D("B", "C") == frozenset({IVec(0, -4), IVec(0, -1)})

    def test_retimed_preserves_original(self, simple):
        simple.retimed({"A": IVec(5, 5)})
        assert simple.delta("A", "B") == IVec(1, 1)

    def test_restricted_to(self, simple):
        sub = simple.restricted_to(["A", "B"])
        assert sub.nodes == ("A", "B")
        assert sub.has_edge("A", "B")
        assert not sub.has_edge("B", "C")

    def test_restricted_to_unknown(self, simple):
        with pytest.raises(KeyError):
            simple.restricted_to(["A", "Q"])

    def test_remove_edge(self, simple):
        simple.remove_edge("A", "B")
        assert not simple.has_edge("A", "B")
        with pytest.raises(KeyError):
            simple.remove_edge("A", "B")


class TestViews:
    def test_networkx_view(self, simple):
        nxg = simple.to_networkx()
        assert set(nxg.nodes) == {"A", "B", "C"}
        attrs = list(nxg.get_edge_data("B", "C").values())[0]
        assert attrs["hard"] is True
        assert attrs["delta"] == IVec(0, -2)

    def test_structure_digraph(self, simple):
        dg = simple.structure_digraph()
        assert set(dg.edges) == {("A", "B"), ("B", "C")}

    def test_equality(self, simple):
        other = mldg_from_table(
            {
                ("A", "B"): [(1, 1), (2, 1)],
                ("B", "C"): [(0, -2), (0, 1)],
            },
            nodes=["A", "B", "C"],
        )
        assert simple == other

    def test_inequality_on_order(self):
        a = mldg_from_table({("A", "B"): [(1, 1)]}, nodes=["A", "B"])
        b = mldg_from_table({("A", "B"): [(1, 1)]}, nodes=["B", "A"])
        assert a != b

    def test_describe_mentions_hard_edge(self, simple):
        text = simple.describe()
        assert "B -> C *" in text


def _fresh_edges(g):
    """The edge list built from ``D(u, v)`` in program order of the endpoints."""
    return [
        DependenceEdge(u, v, g.D(u, v))
        for u in g.nodes
        for v in g.nodes
        if g.has_edge(u, v)
    ]


class TestEdgeView:
    """``edges()`` builds its ordered edge tuple once; every mutation drops it."""

    def test_repeated_calls_share_the_edge_objects(self, simple):
        first = list(simple.edges())
        assert all(a is b for a, b in zip(first, simple.edges()))

    def test_add_dependence_is_seen(self, simple):
        list(simple.edges())
        simple.add_dependence("A", "C", IVec(1, 0))
        simple.add_dependence("A", "B", IVec(3, 0))
        assert list(simple.edges()) == _fresh_edges(simple)
        assert [e.key for e in simple.edges()] == [("A", "B"), ("A", "C"), ("B", "C")]
        assert IVec(3, 0) in simple.edge("A", "B").vectors

    def test_remove_dependence_is_seen(self, simple):
        list(simple.edges())
        simple.remove_dependence("B", "C", IVec(0, -2))
        assert list(simple.edges()) == _fresh_edges(simple)
        simple.remove_dependence("B", "C", IVec(0, 1))
        assert [e.key for e in simple.edges()] == [("A", "B")]

    def test_remove_edge_is_seen(self, simple):
        list(simple.edges())
        simple.remove_edge("A", "B")
        assert [e.key for e in simple.edges()] == [("B", "C")]

    def test_add_node_is_seen(self, simple):
        list(simple.edges())
        simple.add_node("D")
        simple.add_dependence("D", "A", IVec(1, 0))
        assert list(simple.edges()) == _fresh_edges(simple)
        assert simple.nodes == ("A", "B", "C", "D")

    def test_derived_graphs_build_their_own_view(self, simple):
        list(simple.edges())
        for derived in (
            simple.copy(),
            simple.retimed({"B": IVec(0, -2)}),
            simple.restricted_to(["B", "C"]),
        ):
            assert list(derived.edges()) == _fresh_edges(derived)

    @given(st.data())
    @settings(deadline=None)
    def test_view_matches_a_fresh_build_after_any_mutations(self, data):
        names = ["A", "B", "C", "D", "E"]
        vectors = st.builds(IVec, st.integers(-2, 2), st.integers(-2, 2))
        g = MLDG(dim=2)
        for _ in range(data.draw(st.integers(0, 25))):
            op = data.draw(st.sampled_from(["add", "node", "remove", "prune"]))
            keys = [e.key for e in _fresh_edges(g)]
            if op == "add":
                src, dst = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
                g.add_dependence(src, dst, *data.draw(st.lists(vectors, min_size=1, max_size=3)))
            elif op == "node":
                g.add_node(data.draw(st.sampled_from(names)))
            elif op == "remove" and keys:
                g.remove_edge(*data.draw(st.sampled_from(keys)))
            elif op == "prune" and keys:
                src, dst = data.draw(st.sampled_from(keys))
                vecs = sorted(g.D(src, dst))
                g.remove_dependence(src, dst, *data.draw(st.lists(
                    st.sampled_from(vecs), min_size=1, max_size=len(vecs), unique=True
                )))
            assert list(g.edges()) == _fresh_edges(g)
