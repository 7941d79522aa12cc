"""Unit and property tests for unimodular transformations."""

import pytest

from repro.fusion import fuse, hyperplane_parallel_fusion
from repro.gallery import figure2_mldg, figure14_mldg, floyd_steinberg_mldg
from repro.retiming import is_doall_after_fusion
from repro.transforms import (
    Unimodular,
    interchange,
    reversal,
    skew,
    transform_mldg,
    wavefront_transform,
)
from repro.vectors import IVec


class TestUnimodularBasics:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            Unimodular(rows=((2, 0), (0, 1)))

    def test_identity_composition(self):
        ident = Unimodular(rows=((1, 0), (0, 1)))
        t = skew(3)
        assert t.compose(ident).rows == t.rows
        assert ident.compose(t).rows == t.rows

    def test_inverse(self):
        for t in (interchange(), reversal(0), reversal(1), skew(4), skew(-2, of=0)):
            ti = t.inverse()
            v = IVec(7, -3)
            assert ti.apply(t.apply(v)) == v
            assert t.apply(ti.apply(v)) == v

    def test_compose_matches_sequential_application(self):
        a, b = skew(2), interchange()
        v = IVec(3, 5)
        assert a.compose(b).apply(v) == a.apply(b.apply(v))

    def test_named_constructors(self):
        assert interchange().apply(IVec(1, 2)) == IVec(2, 1)
        assert reversal(0).apply(IVec(1, 2)) == IVec(-1, 2)
        assert reversal(1).apply(IVec(1, 2)) == IVec(1, -2)
        assert skew(3).apply(IVec(1, 0)) == IVec(1, 3)
        assert skew(3, of=0, by=1).apply(IVec(0, 1)) == IVec(3, 1)

    def test_reversal_axis_checked(self):
        with pytest.raises(ValueError):
            reversal(2)

    def test_non_2d_vector_rejected(self):
        with pytest.raises(ValueError):
            interchange().apply(IVec(1, 2, 3))


class TestWavefrontTransform:
    def test_first_row_is_schedule(self):
        t = wavefront_transform(IVec(5, 1))
        assert t.rows[0] == (5, 1)
        assert t.det in (1, -1)

    @pytest.mark.parametrize("s", [IVec(1, 0), IVec(0, 1), IVec(5, 1), IVec(3, 2), IVec(-2, 1)])
    def test_unimodular_for_coprime_schedules(self, s):
        t = wavefront_transform(s)
        assert t.det in (1, -1)
        assert t.rows[0] == tuple(s)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            wavefront_transform(IVec(4, 2))

    def test_levels_become_rows(self):
        """Transformed first coordinate equals s . x for every iteration."""
        t = wavefront_transform(IVec(5, 1))
        for x in (IVec(0, 0), IVec(2, 3), IVec(-1, 7)):
            assert t.apply(x)[0] == IVec(5, 1).dot(x)

    @pytest.mark.parametrize(
        "build", [figure14_mldg, floyd_steinberg_mldg], ids=lambda b: b.__name__
    )
    def test_algorithm5_result_becomes_row_parallel(self, build):
        """The headline composition: retime (Alg 5), skew by the wavefront
        transform, and the nest is inner-DOALL -- Algorithm 5's schedule is
        compilable as ordinary loops."""
        g = build()
        hp = hyperplane_parallel_fusion(g)
        skewed = transform_mldg(hp.retiming.apply(g), wavefront_transform(hp.schedule))
        assert is_doall_after_fusion(skewed)
        # and still sequentially valid: every vector lexicographically >= 0
        assert all(tuple(d) >= (0, 0) for d in skewed.all_vectors())


class TestTransformMldg:
    def test_structure_preserved(self):
        g = figure2_mldg()
        gt = transform_mldg(g, interchange())
        assert gt.nodes == g.nodes
        assert gt.num_edges == g.num_edges

    def test_vectors_mapped(self):
        g = figure2_mldg()
        gt = transform_mldg(g, interchange())
        assert gt.D("A", "B") == frozenset({IVec(1, 1), IVec(1, 2)})

    def test_interchange_alone_cannot_parallelise_figure2(self):
        """The Section-1 point: classic single-nest transformations do not
        substitute for retiming-based fusion on multi-loop problems."""
        g = figure2_mldg()
        for t in (interchange(), skew(1), skew(2), skew(3)):
            gt = transform_mldg(g, t)
            # either some dependence now flows backwards (invalid as a
            # sequential nest) or the inner loop still carries a dependence
            valid = all(tuple(d) >= (0, 0) for d in gt.all_vectors())
            assert not (valid and is_doall_after_fusion(gt)), t

    def test_retiming_then_skew_succeeds_where_skew_alone_fails(self):
        g = figure2_mldg()
        res = fuse(g)  # Algorithm 4: already DOALL without skewing
        assert is_doall_after_fusion(res.retimed)
