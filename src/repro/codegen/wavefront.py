"""Emit Algorithm 5's wavefront schedule as skewed loop code.

The paper stops short of showing code for the hyperplane case ("the code
representing the resulting graph [requires] a detailed description beyond
the scope of this paper", Section 4.4).  This module supplies it: the
wavefront execution is exactly the fused nest under the unimodular
transformation whose first row is the schedule vector
(:func:`repro.transforms.wavefront_transform`), so we emit

.. code-block:: text

    do t = t_lo, t_hi                      ! wavefront level = s . (i, j)
      doall p = ceil-bound, floor-bound    ! all points on the front
        i = <linear in t, p>;  j = <linear in t, p>
        <fused body at original iteration (i, j) + r(node)>

The transformed iteration polytope of the fused rectangle
``[lo_i, hi_i] x [lo_j, hi_j]`` is a parallelogram, so the inner bounds are
max/min expressions of ``t``; the emitted text keeps them symbolic.  An
enumeration helper (:func:`wavefront_iterations`) yields the concrete
``(t, p, i, j)`` tuples and is tested to visit exactly the fused rectangle,
level by level -- the proof that the emitted nest is the wavefront.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.codegen.fused import FusedProgram
from repro.transforms.unimodular import wavefront_transform
from repro.vectors import IVec

__all__ = ["emit_wavefront_program", "wavefront_iterations"]


def _lin(coef_t: int, coef_p: int, const: int) -> str:
    """Readable text for ``coef_t * t + coef_p * p + const``."""
    parts: List[str] = []
    for coef, sym in ((coef_t, "t"), (coef_p, "p")):
        if coef == 0:
            continue
        if coef == 1:
            parts.append(sym if not parts else f"+ {sym}")
        elif coef == -1:
            parts.append(f"-{sym}" if not parts else f"- {sym}")
        else:
            text = f"{coef}*{sym}"
            if not parts:
                parts.append(text)
            else:
                parts.append(f"+ {text}" if coef > 0 else f"- {abs(coef)}*{sym}")
    if const or not parts:
        parts.append(
            str(const)
            if not parts
            else (f"+ {const}" if const > 0 else f"- {abs(const)}")
        )
    return " ".join(parts)


def wavefront_iterations(
    fp: FusedProgram, schedule: IVec, n: int, m: int
) -> Iterator[Tuple[int, List[Tuple[int, int, int]]]]:
    """Yield ``(t, [(p, i, j), ...])`` per wavefront level, in order.

    ``(i, j)`` ranges over the fused program's full iteration rectangle;
    ``t = s . (i, j)`` and ``p`` is the second transformed coordinate.
    """
    T = wavefront_transform(schedule)
    lo_i, hi_i = fp.full_outer_range(n)
    lo_j, hi_j = fp.full_inner_range(m)
    levels: dict = {}
    for i in range(lo_i, hi_i + 1):
        for j in range(lo_j, hi_j + 1):
            t, p = T.apply(IVec(i, j))
            levels.setdefault(t, []).append((p, i, j))
    for t in sorted(levels):
        yield t, sorted(levels[t])


def emit_wavefront_program(fp: FusedProgram, schedule: IVec) -> str:
    """Skewed source text realising the Lemma-4.3 wavefront execution."""
    T = wavefront_transform(schedule)
    inv = T.inverse()
    (a, b), (c, d) = inv.rows  # (i, j) = (a*t + b*p, c*t + d*p)
    nest = fp.original
    i_name, j_name = nest.index_names

    lines: List[str] = []
    lines.append(
        f"! wavefront execution: t = {schedule[0]}*{i_name} + {schedule[1]}*{j_name}; "
        f"T = {T}, T_inv = {inv}"
    )
    lines.append(
        f"! fused rectangle: {i_name} in [lo_i, hi_i], {j_name} in [lo_j, hi_j] "
        "(see core/full ranges)"
    )
    lines.append("do t = t_lo, t_hi")
    lines.append(
        f"  doall p over {{ p : lo_i <= {_lin(a, b, 0)} <= hi_i  and  "
        f"lo_j <= {_lin(c, d, 0)} <= hi_j }}"
    )
    lines.append(f"    {i_name} = {_lin(a, b, 0)}")
    lines.append(f"    {j_name} = {_lin(c, d, 0)}")
    for node in fp.body:
        s0, s1 = node.shift[0], node.shift[1]
        lines.append(
            f"    if 0 <= {i_name}+({s0}) <= {nest.outer_bound} and "
            f"0 <= {j_name}+({s1}) <= {nest.inner_bound}:"
        )
        for stmt in node.shifted_statements():
            lines.append(f"      {stmt}")
    lines.append("  end")
    lines.append("end")
    return "\n".join(lines)
