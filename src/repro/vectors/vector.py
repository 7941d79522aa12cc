"""Immutable integer vectors with lexicographic order.

The multi-dimensional retiming framework of the paper manipulates elements of
:math:`\\mathbb{Z}^n` in three roles:

* **loop dependence vectors** ``d_L = (i1 - i2, j1 - j2)`` between a producer
  iteration ``(i2, j2)`` and a consumer iteration ``(i1, j1)`` (Def. 2.1);
* **retiming vectors** ``r(u)`` attached to MLDG nodes (Section 2.3);
* **schedule vectors** and **hyperplanes** (Section 2.3 and Lemma 4.3).

All three are represented by :class:`IVec`.  ``IVec`` subclasses :class:`tuple`
so equality, hashing and comparison are inherited -- and tuple comparison *is*
lexicographic comparison, exactly the order the paper uses.  Arithmetic
operators are overridden to act componentwise.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Union

__all__ = ["IVec"]

_Scalar = int


class IVec(tuple):
    """An immutable vector in :math:`\\mathbb{Z}^n`, ordered lexicographically.

    Construction accepts either an iterable of integers or the components as
    separate arguments::

        >>> IVec(1, -2)
        IVec(1, -2)
        >>> IVec([1, -2]) == IVec(1, -2)
        True

    Comparison operators (``<``, ``<=``, ...) are inherited from ``tuple`` and
    therefore lexicographic, matching Section 2.1 of the paper:

        >>> IVec(0, 5) < IVec(1, -100)
        True
        >>> IVec(1, -1) <= IVec(1, 0)
        True

    Arithmetic is componentwise; ``+``/``-`` require equal dimension:

        >>> IVec(2, 1) + IVec(-1, -1)
        IVec(1, 0)
        >>> -IVec(1, -2)
        IVec(-1, 2)
        >>> 3 * IVec(1, 2)
        IVec(3, 6)
    """

    __slots__ = ()

    def __new__(cls, *components: Union[_Scalar, Iterable[_Scalar]]) -> "IVec":
        if len(components) == 1 and not isinstance(components[0], int):
            items = tuple(components[0])
        else:
            items = components
        for c in items:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(
                    f"IVec components must be plain ints, got {c!r} of type {type(c).__name__}"
                )
        if not items:
            raise ValueError("IVec must have dimension >= 1")
        return tuple.__new__(cls, items)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zero(cls, dim: int) -> "IVec":
        """The all-zeros vector of the given dimension."""
        return cls([0] * dim)

    @classmethod
    def unit(cls, dim: int, axis: int) -> "IVec":
        """The standard basis vector ``e_axis`` of the given dimension."""
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        return cls([1 if k == axis else 0 for k in range(dim)])

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        """Number of components."""
        return len(self)

    @property
    def x(self) -> int:
        """First component (the outermost-loop coordinate)."""
        return self[0]

    @property
    def y(self) -> int:
        """Second component (the innermost-loop coordinate in the 2-D case)."""
        if len(self) < 2:
            raise IndexError("IVec has no second component")
        return self[1]

    def is_zero(self) -> bool:
        """True iff every component is zero."""
        return all(c == 0 for c in self)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def _check_dim(self, other: "IVec") -> None:
        if len(self) != len(other):
            raise ValueError(
                f"dimension mismatch: {len(self)}-vector vs {len(other)}-vector"
            )

    # Two IVecs hold plain ints already, so their sum or difference skips
    # the per-component check of __new__; a plain-tuple operand goes through
    # it before the arithmetic, where a bool would already be an int.

    def __add__(self, other: object) -> "IVec":  # type: ignore[override]
        if not isinstance(other, tuple):
            return NotImplemented
        self._check_dim(other)  # type: ignore[arg-type]
        if not isinstance(other, IVec):
            other = IVec(other)
        return tuple.__new__(IVec, map(add, self, other))

    __radd__ = __add__

    def __sub__(self, other: object) -> "IVec":
        if not isinstance(other, tuple):
            return NotImplemented
        self._check_dim(other)  # type: ignore[arg-type]
        if not isinstance(other, IVec):
            other = IVec(other)
        return tuple.__new__(IVec, map(sub, self, other))

    def __rsub__(self, other: object) -> "IVec":
        if not isinstance(other, tuple):
            return NotImplemented
        self._check_dim(other)  # type: ignore[arg-type]
        return tuple.__new__(IVec, map(sub, IVec(other), self))

    def __neg__(self) -> "IVec":
        return IVec(-a for a in self)

    def __pos__(self) -> "IVec":
        return self

    def __mul__(self, scalar: object) -> "IVec":  # type: ignore[override]
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        return IVec(scalar * a for a in self)

    __rmul__ = __mul__

    def dot(self, other: Iterable[_Scalar]) -> int:
        """Inner product; used for schedule-vector tests ``s . d > 0``."""
        other_t = tuple(other)
        if len(other_t) != len(self):
            raise ValueError("dimension mismatch in dot product")
        return sum(a * b for a, b in zip(self, other_t))

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def with_component(self, axis: int, value: int) -> "IVec":
        """A copy of this vector with one component replaced."""
        if not 0 <= axis < len(self):
            raise IndexError(f"axis {axis} out of range")
        items = list(self)
        items[axis] = value
        return IVec(items)

    def prefix(self, k: int) -> "IVec":
        """The first ``k`` components as an ``IVec``."""
        if not 1 <= k <= len(self):
            raise ValueError(f"prefix length {k} out of range")
        return IVec(self[:k])

    def __repr__(self) -> str:
        return f"IVec({', '.join(map(str, self))})"

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self)) + ")"

