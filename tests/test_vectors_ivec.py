"""Unit tests for the IVec integer-vector type."""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.vectors import IVec


class TestConstruction:
    def test_varargs(self):
        assert tuple(IVec(1, -2)) == (1, -2)

    def test_iterable(self):
        assert IVec([3, 4, 5]) == IVec(3, 4, 5)

    def test_generator(self):
        assert IVec(x for x in (1, 2)) == IVec(1, 2)

    def test_single_component(self):
        v = IVec([7])
        assert v.dim == 1
        assert v[0] == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IVec([])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            IVec(1.5, 2)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            IVec(True, 0)

    def test_zero_constructor(self):
        assert IVec.zero(3) == IVec(0, 0, 0)

    def test_unit_constructor(self):
        assert IVec.unit(3, 1) == IVec(0, 1, 0)

    def test_unit_out_of_range(self):
        with pytest.raises(ValueError):
            IVec.unit(2, 2)


class TestOrdering:
    """Tuple comparison must be lexicographic -- Section 2.1's order."""

    def test_first_coordinate_dominates(self):
        assert IVec(0, 100) < IVec(1, -100)

    def test_tie_broken_by_second(self):
        assert IVec(1, -2) < IVec(1, -1)

    def test_equality(self):
        assert IVec(2, 3) == IVec(2, 3)
        assert not IVec(2, 3) < IVec(2, 3)

    def test_paper_example(self):
        # delta_L(B,C) = min{(0,-2),(0,1)} = (0,-2)
        assert min([IVec(0, -2), IVec(0, 1)]) == IVec(0, -2)

    def test_sorting(self):
        vecs = [IVec(1, 0), IVec(0, 5), IVec(0, -1), IVec(2, -9)]
        assert sorted(vecs) == [IVec(0, -1), IVec(0, 5), IVec(1, 0), IVec(2, -9)]


class TestArithmetic:
    def test_add(self):
        assert IVec(2, 1) + IVec(-1, -1) == IVec(1, 0)

    def test_sub(self):
        assert IVec(2, 1) - IVec(0, -3) == IVec(2, 4)

    def test_neg(self):
        assert -IVec(1, -2) == IVec(-1, 2)

    def test_scalar_mul(self):
        assert 3 * IVec(1, 2) == IVec(3, 6)
        assert IVec(1, 2) * -1 == IVec(-1, -2)

    def test_add_is_not_tuple_concat(self):
        assert (IVec(1, 2) + IVec(3, 4)).dim == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IVec(1, 2) + IVec(1, 2, 3)

    def test_retiming_identity(self):
        """delta_Lr = delta + r(u) - r(v) on the paper's edge e5 (D -> A)."""
        delta = IVec(2, 1)
        r_d, r_a = IVec(-1, -1), IVec(0, 0)
        assert delta + r_d - r_a == IVec(1, 0)

    def test_dot(self):
        assert IVec(5, 1).dot(IVec(1, -4)) == 1

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: IVec(1, 2) + (1.5, 0),
            lambda: (1.5, 0) + IVec(1, 2),
            lambda: IVec(1, 2) - (0, 1.0),
            lambda: (1.0, 2) - IVec(1, 2),
        ],
        ids=["add", "radd", "sub", "rsub"],
    )
    def test_plain_tuple_with_a_float_is_rejected(self, compute):
        with pytest.raises(TypeError, match="plain ints"):
            compute()

    def test_plain_tuple_with_a_bool_gives_plain_ints(self):
        # bool + int is an int, so no bool component reaches the result
        for v in (IVec(1, 2) + (True, 0), (True, 0) + IVec(1, 2), IVec(1, 2) - (False, True)):
            assert all(type(c) is int for c in v)
        assert IVec(1, 2) + (True, 0) == IVec(2, 2)

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    @pytest.mark.parametrize(
        "left, right",
        [
            (IVec(1, 2), IVec(1, 2, 3)),
            (IVec(1, 2, 3), IVec(1, 2)),
            (IVec(1, 2), (1, 2, 3)),
            ((1, 2, 3), IVec(1, 2)),
        ],
        ids=["ivec-short", "ivec-long", "tuple-right", "tuple-left"],
    )
    def test_dimension_mismatch_every_operand_kind(self, op, left, right):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(left, right)

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    def test_results_are_ivecs_in_both_operand_orders(self, op):
        for left, right in [
            (IVec(3, -1), IVec(1, 2)),
            (IVec(3, -1), (1, 2)),
            ((3, -1), IVec(1, 2)),
        ]:
            result = op(left, right)
            assert type(result) is IVec
            assert result == IVec(op(left[0], right[0]), op(left[1], right[1]))

    @given(
        st.lists(st.integers(), min_size=1, max_size=4).flatmap(
            lambda xs: st.tuples(
                st.just(xs), st.lists(st.integers(), min_size=len(xs), max_size=len(xs))
            )
        ),
        st.booleans(),
    )
    @settings(deadline=None)
    def test_arithmetic_is_componentwise(self, pair, plain_right):
        xs, ys = pair
        left, right = IVec(xs), (tuple(ys) if plain_right else IVec(ys))
        for op in (operator.add, operator.sub):
            result = op(left, right)
            assert type(result) is IVec
            assert all(type(c) is int for c in result)
            assert list(result) == [op(a, b) for a, b in zip(xs, ys)]
        assert list(IVec(ys) - tuple(xs)) == [b - a for a, b in zip(xs, ys)]
        assert list(tuple(ys) - left) == [b - a for a, b in zip(xs, ys)]

    def test_dot_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IVec(1, 2).dot([1, 2, 3])


class TestMisc:
    def test_is_zero(self):
        assert IVec(0, 0).is_zero()
        assert not IVec(0, 1).is_zero()

    def test_xy_accessors(self):
        v = IVec(3, -7)
        assert v.x == 3 and v.y == -7

    def test_y_on_1d_raises(self):
        with pytest.raises(IndexError):
            IVec([4]).y

    def test_with_component(self):
        assert IVec(1, 2).with_component(1, 9) == IVec(1, 9)

    def test_with_component_out_of_range(self):
        with pytest.raises(IndexError):
            IVec(1, 2).with_component(2, 0)

    def test_prefix(self):
        assert IVec(1, 2, 3).prefix(2) == IVec(1, 2)

    def test_hashable(self):
        assert len({IVec(1, 2), IVec(1, 2), IVec(2, 1)}) == 2

    def test_repr_and_str(self):
        assert repr(IVec(1, -2)) == "IVec(1, -2)"
        assert str(IVec(1, -2)) == "(1, -2)"

    def test_immutable(self):
        v = IVec(1, 2)
        with pytest.raises(TypeError):
            v[0] = 5  # type: ignore[index]
