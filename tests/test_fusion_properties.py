"""Property-based tests: the paper's theorems on random legal MLDGs."""

from hypothesis import given, settings, strategies as st

from repro.fusion import (
    NoParallelRetimingError,
    acyclic_parallel_retiming,
    cyclic_parallel_retiming,
    fuse,
    hyperplane_parallel_fusion,
    legal_fusion_retiming,
)
from repro.graph import is_fusion_legal, random_acyclic_mldg, random_legal_mldg
from repro.retiming import is_doall_after_fusion, verify_retiming
from repro.vectors import IVec, is_strict_schedule_vector

seeds = st.integers(min_value=0, max_value=10**6)
sizes = st.integers(min_value=1, max_value=12)


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_theorem_3_2_llofra_always_succeeds(seed, n):
    """Every legal MLDG admits a retiming making fusion legal."""
    g = random_legal_mldg(n, seed=seed)
    r = legal_fusion_retiming(g)
    gr = r.apply(g)
    assert is_fusion_legal(gr)


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_retiming_preserves_cycle_weights(seed, n):
    g = random_legal_mldg(n, seed=seed)
    r = legal_fusion_retiming(g)
    assert verify_retiming(g, r).cycles_preserved


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_theorem_4_1_acyclic_always_doall(seed, n):
    """Every legal acyclic MLDG admits a DOALL fusion retiming."""
    g = random_acyclic_mldg(n, seed=seed)
    r = acyclic_parallel_retiming(g)
    gr = r.apply(g)
    assert is_fusion_legal(gr)
    assert is_doall_after_fusion(gr)


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_theorem_4_2_soundness(seed, n):
    """When Algorithm 4 succeeds, the fused loop really is DOALL."""
    g = random_legal_mldg(n, seed=seed)
    try:
        r = cyclic_parallel_retiming(g)
    except NoParallelRetimingError:
        return
    gr = r.apply(g)
    assert is_fusion_legal(gr)
    assert is_doall_after_fusion(gr)


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_theorem_4_4_hyperplane_always_works(seed, n):
    """Algorithm 5 succeeds on every legal MLDG with a strict schedule."""
    g = random_legal_mldg(n, seed=seed)
    hp = hyperplane_parallel_fusion(g)
    gr = hp.retiming.apply(g)
    assert is_fusion_legal(gr)
    assert is_strict_schedule_vector(hp.schedule, gr.all_vectors())
    assert hp.schedule.dot(hp.hyperplane) == 0


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_driver_always_produces_parallel_result(seed, n):
    """fuse() on any legal MLDG yields DOALL or hyperplane parallelism,
    never a serial fused loop."""
    g = random_legal_mldg(n, seed=seed)
    res = fuse(g)
    assert res.parallelism.value in ("doall", "hyperplane")
    assert res.verification.ok_for_legal_fusion


@given(seeds, sizes)
@settings(max_examples=40, deadline=None)
def test_doall_means_row_schedule_is_strict(seed, n):
    """Property 4.1 round-trip: DOALL results admit the (1,0) schedule."""
    g = random_legal_mldg(n, seed=seed)
    res = fuse(g)
    if res.is_doall:
        assert is_strict_schedule_vector(IVec(1, 0), res.retimed.all_vectors())


@given(seeds, st.integers(min_value=2, max_value=10))
@settings(max_examples=40, deadline=None)
def test_algorithm4_retiming_shape(seed, n):
    """Property 4.2: after Algorithm 4 every vector is carried or zero."""
    g = random_legal_mldg(n, seed=seed)
    try:
        r = cyclic_parallel_retiming(g)
    except NoParallelRetimingError:
        return
    gr = r.apply(g)
    for d in gr.all_vectors():
        assert d[0] >= 1 or d == IVec(0, 0)
