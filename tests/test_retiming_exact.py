"""The edge-wise cycle-weight check is exact.

``cycle_weights_preserved`` compares the retimed graph with the original
edge by edge.  Because retiming shifts telescope around every cycle, that
decides cycle-weight invariance for all cycles at once; these tests hold it
against full cycle enumeration and show it catches what a 100-cycle sample
missed.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.graph import cycle_weight, enumerate_cycles, random_legal_mldg
from repro.graph.mldg import MLDG
from repro.retiming import Retiming, cycle_weights_preserved, verify_retiming
from repro.vectors import IVec


def _weights_preserved_by_enumeration(g: MLDG, gr: MLDG) -> bool:
    return all(cycle_weight(g, c) == cycle_weight(gr, c) for c in enumerate_cycles(g))


def _tampered(gr: MLDG, src: str, dst: str, by: IVec) -> MLDG:
    """``gr`` with every vector on ``src -> dst`` shifted by ``by``."""
    out = gr.copy()
    old = gr.D(src, dst)
    out.remove_dependence(src, dst, *old)
    out.add_dependence(src, dst, *(d + by for d in old))
    return out


def _on_a_cycle(g: MLDG, src: str, dst: str) -> bool:
    return any(
        (src, dst) in zip(c, c[1:] + c[:1]) for c in enumerate_cycles(g)
    )


shifts = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda t: IVec(*t))


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_edgewise_check_agrees_with_enumeration(seed, n, data):
    g = random_legal_mldg(n, seed=seed)
    r = Retiming({v: data.draw(shifts) for v in g.nodes}, dim=2)
    gr = r.apply(g)
    # any retiming preserves every cycle weight (Section 2.3)
    assert cycle_weights_preserved(g, r, gr)
    assert _weights_preserved_by_enumeration(g, gr)

    edges = [e.key for e in g.edges()]
    if not edges:
        return
    src, dst = data.draw(st.sampled_from(edges))
    by = data.draw(shifts.filter(lambda v: not v.is_zero()))
    bad = _tampered(gr, src, dst, by)
    assert not cycle_weights_preserved(g, r, bad)
    assert not verify_retiming(g, r, retimed=bad).cycles_preserved
    if _on_a_cycle(g, src, dst):
        # a simple cycle uses the edge once, so its weight moves by ``by``
        assert not _weights_preserved_by_enumeration(g, bad)


def _complete_digraphs(count: int, size: int) -> MLDG:
    g = MLDG(dim=2)
    for k in range(count):
        names = [f"K{k}_{i}" for i in range(size)]
        for name in names:
            g.add_node(name)
        for u in names:
            for v in names:
                if u != v:
                    g.add_dependence(u, v, IVec(1, 0))
    return g


def test_tamper_beyond_the_hundredth_cycle_is_caught():
    g = _complete_digraphs(3, 5)  # 3 x 84 simple cycles
    sampled = list(enumerate_cycles(g, limit=100))
    sampled_edges = {e for c in sampled for e in zip(c, c[1:] + c[:1])}
    later = [
        e
        for c in enumerate_cycles(g)
        for e in zip(c, c[1:] + c[:1])
        if e not in sampled_edges
    ]
    assert later, "every edge lies on one of the first 100 cycles"
    src, dst = later[0]

    r = Retiming({v: IVec(0, k % 3) for k, v in enumerate(g.nodes)}, dim=2)
    bad = _tampered(r.apply(g), src, dst, IVec(0, 1))
    # a check over the first 100 cycles is fooled ...
    assert all(cycle_weight(g, c) == cycle_weight(bad, c) for c in sampled)
    # ... the edge-wise check is not
    assert not cycle_weights_preserved(g, r, bad)
    assert not verify_retiming(g, r, retimed=bad).ok_for_legal_fusion


def test_structural_changes_are_caught():
    g = MLDG(dim=2)
    for v in "ABC":
        g.add_node(v)
    g.add_dependence("A", "B", IVec(1, 0))
    g.add_dependence("B", "A", IVec(1, -1))
    r = Retiming({"B": IVec(0, 2)}, dim=2)
    gr = r.apply(g)
    assert cycle_weights_preserved(g, r, gr)

    extra_edge = gr.copy()
    extra_edge.add_dependence("A", "C", IVec(1, 0))
    assert not cycle_weights_preserved(g, r, extra_edge)

    extra_vector = gr.copy()
    extra_vector.add_dependence("A", "B", IVec(5, 5))
    assert not cycle_weights_preserved(g, r, extra_vector)

    missing_node = gr.restricted_to(["A", "B"])
    assert not cycle_weights_preserved(g, r, missing_node)
