"""Iteration-space renderings (the paper's Figures 7, 13 and 16).

All functions work on an (already retimed) MLDG: a dependence vector ``d``
on any edge means fused iteration ``(i, j)`` consumes a value produced at
``(i, j) - d``.  Self-pairs (``d == 0``) are intra-iteration and omitted.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.graph.mldg import MLDG
from repro.vectors import IVec

__all__ = [
    "dependence_arrows",
    "intra_row_arrows",
    "format_iteration_space",
    "format_hyperplane_grid",
]

_Cell = Tuple[int, int]


def dependence_arrows(
    g_retimed: MLDG, rows: int, cols: int
) -> List[Tuple[_Cell, _Cell]]:
    """All producer -> consumer iteration pairs inside a ``rows x cols`` window.

    Iterations are ``(i, j)`` with ``0 <= i < rows`` and ``0 <= j < cols``;
    an arrow exists for every non-zero dependence vector whose endpoints
    both land in the window.  Duplicate arrows (several edges with the same
    vector) are collapsed.
    """
    vectors: Set[IVec] = {d for d in g_retimed.all_vectors() if not d.is_zero()}
    arrows: List[Tuple[_Cell, _Cell]] = []
    for d in sorted(vectors):
        for i in range(rows):
            for j in range(cols):
                pi, pj = i - d[0], j - d[1]
                if 0 <= pi < rows and 0 <= pj < cols:
                    arrows.append(((pi, pj), (i, j)))
    return sorted(set(arrows))


def intra_row_arrows(
    g_retimed: MLDG, rows: int, cols: int
) -> List[Tuple[_Cell, _Cell]]:
    """The arrows that serialise rows: producer and consumer share ``i``.

    Empty exactly when the fused innermost loop is DOALL on this window --
    the visual difference between the paper's Figure 7 (non-empty) and
    Figure 13 (empty).
    """
    arrows = dependence_arrows(g_retimed, rows, cols)
    return [(src, dst) for (src, dst) in arrows if src[0] == dst[0]]


def format_iteration_space(g_retimed: MLDG, rows: int = 4, cols: int = 4) -> str:
    """A Figure-7/13-style picture of a small iteration space.

    Rows are printed top-down from the largest ``i`` (matching the paper's
    figures); cells are labelled ``i,j``.  Below the grid, each dependence
    vector is listed with an example arrow, and intra-row arrows -- the
    parallelism killers -- are called out explicitly.
    """
    lines: List[str] = []
    for i in range(rows - 1, -1, -1):
        lines.append("   " + "   ".join(f"{i},{j}" for j in range(cols)))
    lines.append("")

    vectors = sorted({d for d in g_retimed.all_vectors() if not d.is_zero()})
    if not vectors:
        lines.append("no inter-iteration dependencies")
        return "\n".join(lines)

    lines.append("dependence vectors (consumer - producer):")
    for d in vectors:
        kind = "INTRA-ROW (serialises the row)" if d[0] == 0 else "crosses rows"
        example_src = (max(d[0], 0), max(d[1], 0))
        example_dst = (example_src[0] + d[0], example_src[1] + d[1])
        lines.append(
            f"  {d}: {example_src[0]},{example_src[1]} -> "
            f"{example_dst[0]},{example_dst[1]}  [{kind}]"
        )
    intra = intra_row_arrows(g_retimed, rows, cols)
    if intra:
        lines.append(
            f"rows carry {len(intra)} dependence pair(s) on this window: "
            "the innermost loop is SERIAL (as in the paper's Figure 7)"
        )
    else:
        lines.append(
            "rows carry no dependencies: the innermost loop is DOALL "
            "(as in the paper's Figure 13)"
        )
    return "\n".join(lines)


def format_hyperplane_grid(schedule: IVec, rows: int = 4, cols: int = 8) -> str:
    """A Figure-16-style picture: each cell shows its wavefront level.

    Cells with equal ``t = s . (i, j)`` execute concurrently; the grid makes
    the skew of the hyperplane ``h`` perpendicular to ``s`` visible.
    """
    if schedule.dim != 2:
        raise ValueError("hyperplane grids are two-dimensional")
    width = max(
        len(str(schedule[0] * i + schedule[1] * j))
        for i in range(rows)
        for j in range(cols)
    )
    lines = [f"wavefront levels t = {schedule[0]}*i + {schedule[1]}*j:"]
    for i in range(rows - 1, -1, -1):
        cells = [f"{schedule[0] * i + schedule[1] * j:>{width}}" for j in range(cols)]
        lines.append(f"  i={i}: " + "  ".join(cells))
    lines.append("  (equal numbers run in parallel; levels execute in order)")
    return "\n".join(lines)
