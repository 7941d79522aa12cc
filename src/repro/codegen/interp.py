"""Execution of original and fused loop nests over numpy array stores.

The interpreter is the ground truth for the semantic-equivalence
verification (DESIGN.md S11): the original program and its fused, retimed
form must produce bit-identical arrays from identical initial stores --
every statement instance computes the same expression over the same values,
so no floating-point tolerance is needed.

Execution modes for fused programs:

* ``"serial"``   -- fused iterations row-major, ascending; always valid for
  a legal fusion (all retimed vectors >= 0).
* ``"doall"``    -- rows ascending, but the iterations *within* each row run
  in a seeded random permutation.  Valid exactly when the fused loop is
  DOALL (Property 4.1); running a non-DOALL fusion this way is how the
  verification suite demonstrates the difference.
* ``"hyperplane"`` -- iterations grouped by ``t = s . (i, j)`` ascending,
  randomly permuted within each wavefront (Lemma 4.3).

A read of a cell that no statement ever writes returns the store's initial
(seeded random) content, mirroring how the paper's boundary reads like
``e[i-2][-1]`` pick up whatever the arrays held before the loop.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.codegen.fused import FusedProgram
from repro.loopir.ast_nodes import (
    ArrayRef,
    Assignment,
    BinOp,
    Const,
    Expr,
    LoopNest,
    UnaryOp,
)
from repro.vectors import IVec

__all__ = ["ArrayStore", "run_original", "run_fused", "ExecutionOrderError"]


class ExecutionOrderError(Exception):
    """An execution mode was requested that the fusion does not support."""


class ArrayStore:
    """Numpy-backed arrays with halo margins and logical indexing.

    Each array covers the logical index box its program can touch
    (iteration range extended by the extreme access offsets); cells outside
    every write are "halo" and keep their initial values.
    """

    def __init__(self, data: Dict[str, np.ndarray], origins: Dict[str, Tuple[int, int]]):
        self._data = data
        self._origins = origins

    # -------------------------------------------------------------- #
    # construction
    # -------------------------------------------------------------- #

    @classmethod
    def for_program(
        cls, nest: LoopNest, n: int, m: int, *, seed: int = 0
    ) -> "ArrayStore":
        """Allocate every array of ``nest`` with seeded random initial data."""
        bounds: Dict[str, Tuple[int, int, int, int]] = {}

        def touch(name: str, off: IVec) -> None:
            lo0, hi0, lo1, hi1 = bounds.get(name, (0, 0, 0, 0))
            bounds[name] = (
                min(lo0, off[0]),
                max(hi0, off[0]),
                min(lo1, off[1]),
                max(hi1, off[1]),
            )

        for loop in nest.loops:
            for stmt in loop.statements:
                touch(stmt.target.array, stmt.target.offset)
                for ref in stmt.reads():
                    touch(ref.array, ref.offset)

        rng = np.random.default_rng(seed)
        data: Dict[str, np.ndarray] = {}
        origins: Dict[str, Tuple[int, int]] = {}
        for name, (lo0, hi0, lo1, hi1) in sorted(bounds.items()):
            shape = (n + hi0 - lo0 + 1, m + hi1 - lo1 + 1)
            data[name] = rng.uniform(-1.0, 1.0, size=shape)
            origins[name] = (lo0, lo1)
        return cls(data, origins)

    def copy(self) -> "ArrayStore":
        return ArrayStore(
            {k: v.copy() for k, v in self._data.items()}, dict(self._origins)
        )

    # -------------------------------------------------------------- #
    # access
    # -------------------------------------------------------------- #

    def get(self, array: str, i: int, j: int) -> float:
        o0, o1 = self._origins[array]
        return float(self._data[array][i - o0, j - o1])

    def set(self, array: str, i: int, j: int, value: float) -> None:
        o0, o1 = self._origins[array]
        self._data[array][i - o0, j - o1] = value

    def arrays(self) -> Dict[str, np.ndarray]:
        """The raw storage (shared, not copied)."""
        return self._data

    def equal(self, other: "ArrayStore") -> bool:
        """Exact equality of every array (bit-identical values)."""
        if set(self._data) != set(other._data):
            return False
        return all(
            self._origins[k] == other._origins[k]
            and self._data[k].shape == other._data[k].shape
            and np.array_equal(self._data[k], other._data[k])
            for k in self._data
        )

    def max_abs_difference(self, other: "ArrayStore") -> float:
        """Largest absolute elementwise difference across common arrays."""
        worst = 0.0
        for k in self._data:
            if k in other._data and self._data[k].shape == other._data[k].shape:
                worst = max(worst, float(np.max(np.abs(self._data[k] - other._data[k]))))
            else:
                return float("inf")
        return worst


# ------------------------------------------------------------------ #
# expression evaluation
# ------------------------------------------------------------------ #


def _eval(expr: Expr, store: ArrayStore, i: int, j: int) -> float:
    if isinstance(expr, ArrayRef):
        return store.get(expr.array, i + expr.offset[0], j + expr.offset[1])
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, UnaryOp):
        return -_eval(expr.operand, store, i, j)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, store, i, j)
        right = _eval(expr.right, store, i, j)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    raise TypeError(f"unknown expression node {expr!r}")


def _exec_statement(stmt: Assignment, store: ArrayStore, i: int, j: int) -> None:
    value = _eval(stmt.expr, store, i, j)
    t = stmt.target
    store.set(t.array, i + t.offset[0], j + t.offset[1], value)


# ------------------------------------------------------------------ #
# original program execution
# ------------------------------------------------------------------ #


def run_original(
    nest: LoopNest,
    n: int,
    m: int,
    *,
    store: Optional[ArrayStore] = None,
    seed: int = 0,
) -> ArrayStore:
    """Execute the Figure-1 loop sequence as written.

    ``store`` supplies initial array contents (it is mutated and returned);
    when omitted a seeded random store is allocated.
    """
    if store is None:
        store = ArrayStore.for_program(nest, n, m, seed=seed)
    obs.counter("exec.interp.runs").inc()
    with obs.trace_span("exec.interp.run_original", n=n, m=m):
        for i in range(n + 1):
            for loop in nest.loops:
                for j in range(m + 1):
                    for stmt in loop.statements:
                        _exec_statement(stmt, store, i, j)
    return store


# ------------------------------------------------------------------ #
# fused program execution
# ------------------------------------------------------------------ #


def _fused_instance(
    fp: FusedProgram, store: ArrayStore, i: int, j: int, n: int, m: int
) -> None:
    """Execute every in-bounds node of the fused body at fused ``(i, j)``."""
    for node in fp.body:
        oi, oj = i + node.shift[0], j + node.shift[1]
        if 0 <= oi <= n and 0 <= oj <= m:
            for stmt in node.statements:
                _exec_statement(stmt, store, oi, oj)


def run_fused(
    fp: FusedProgram,
    n: int,
    m: int,
    *,
    store: Optional[ArrayStore] = None,
    seed: int = 0,
    mode: str = "serial",
    schedule: Optional[IVec] = None,
    order_seed: int = 12345,
) -> ArrayStore:
    """Execute a fused program in the requested mode (see module docstring).

    ``schedule`` is required for ``mode="hyperplane"`` (the Lemma-4.3
    schedule vector ``s``); ``order_seed`` drives the random intra-phase
    permutations of the parallel modes.
    """
    if store is None:
        store = ArrayStore.for_program(fp.original, n, m, seed=seed)
    lo_i, hi_i = fp.full_outer_range(n)
    lo_j, hi_j = fp.full_inner_range(m)
    rng = random.Random(order_seed)

    obs.counter("exec.interp.runs").inc()
    with obs.trace_span("exec.interp.run_fused", mode=mode, n=n, m=m):
        if mode == "serial":
            for i in range(lo_i, hi_i + 1):
                for j in range(lo_j, hi_j + 1):
                    _fused_instance(fp, store, i, j, n, m)
            return store

        if mode == "doall":
            # The ascending base list is row-invariant; copying it per row feeds
            # shuffle the same input (and thus the same draws) as rebuilding it,
            # so results for a given order_seed are unchanged.
            base_js = list(range(lo_j, hi_j + 1))
            for i in range(lo_i, hi_i + 1):
                js = base_js.copy()
                rng.shuffle(js)
                for j in js:
                    _fused_instance(fp, store, i, j, n, m)
            return store

        if mode == "hyperplane":
            if schedule is None:
                raise ExecutionOrderError("hyperplane mode needs a schedule vector")
            phases: Dict[int, List[Tuple[int, int]]] = {}
            for i in range(lo_i, hi_i + 1):
                for j in range(lo_j, hi_j + 1):
                    phases.setdefault(
                        schedule[0] * i + schedule[1] * j, []
                    ).append((i, j))
            for t in sorted(phases):
                cells = phases[t]
                rng.shuffle(cells)
                for (i, j) in cells:
                    _fused_instance(fp, store, i, j, n, m)
            return store

    raise ExecutionOrderError(f"unknown execution mode {mode!r}")
