"""Algorithm 5: full hyperplane parallelism for cyclic 2LDGs.

When Theorem 4.2's conditions fail -- some cycle forces a same-outer-
iteration dependence to survive -- full *row* parallelism is impossible, but
Theorem 4.4 shows a wavefront execution always exists: retime with LLOFRA so
every dependence vector is ``>= (0, 0)``, then pick the Lemma-4.3 schedule
vector ``s`` and hyperplane ``h`` perpendicular to it.  Every iteration on a
common hyperplane ``s . (i, j) = t`` can execute in parallel.

On the paper's Figure 14 this yields ``s = (5, 1)`` and ``h = (1, -5)``
(Figure 16), with the retiming of Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fusion.legal import legal_fusion_retiming
from repro.graph.mldg import MLDG
from repro.resilience.budget import Budget
from repro.retiming import Retiming, hyperplane_for_schedule, schedule_vector_for
from repro.vectors import IVec

__all__ = ["HyperplaneFusion", "hyperplane_parallel_fusion"]


@dataclass(frozen=True)
class HyperplaneFusion:
    """Result of Algorithm 5.

    Attributes
    ----------
    retiming:
        The LLOFRA retiming making fusion legal.
    schedule:
        The strict schedule vector ``s`` for the retimed dependence set.
    hyperplane:
        ``h = (s[1], -s[0])``, the DOALL hyperplane direction.
    retimed:
        The retimed graph ``G_r``.
    """

    retiming: Retiming
    schedule: IVec
    hyperplane: IVec
    retimed: MLDG

    @property
    def retimed_vectors(self) -> List[IVec]:
        """All retimed dependence vectors (for reporting and verification)."""
        return sorted(self.retimed.all_vectors())

    @property
    def is_row_parallel(self) -> bool:
        """True when the wavefront degenerates to plain row parallelism."""
        return self.schedule == IVec(1, 0)


def hyperplane_parallel_fusion(
    g: MLDG,
    *,
    check: bool = True,
    budget: Optional[Budget] = None,
    solution: Optional[Dict[str, IVec]] = None,
) -> HyperplaneFusion:
    """Algorithm 5: LLOFRA retiming plus wavefront schedule and hyperplane.

    Always succeeds on a legal 2-D MLDG (Theorem 4.4).  Raises
    :class:`~repro.fusion.errors.IllegalMLDGError` otherwise, and
    ``ValueError`` for non-2-D graphs (the hyperplane construction is
    two-dimensional).  ``solution`` is a LLOFRA solution already in hand
    (see :func:`~repro.fusion.legal.legal_fusion_retiming`).
    """
    if g.dim != 2:
        raise ValueError("Algorithm 5's hyperplane construction is two-dimensional")
    r = legal_fusion_retiming(g, check=check, budget=budget, solution=solution)
    gr = r.apply(g)
    s = schedule_vector_for(sorted(gr.all_vectors()))
    h = hyperplane_for_schedule(s)
    return HyperplaneFusion(retiming=r, schedule=s, hyperplane=h, retimed=gr)
