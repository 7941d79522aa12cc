"""Flow-dependence extraction from loop nests.

The program model is single-assignment per array (enforced by
:func:`repro.loopir.validate.validate_program`), so every read of a written
array has exactly one producer statement and one constant dependence
vector.  Reads of input arrays (never written) carry no dependence.

Intra-loop same-iteration dependencies (vector ``(0, 0)`` inside one loop
body) are *not* recorded as MLDG self-loops: statement order within the
body preserves them under any fusion, and a ``(0,0)`` self-loop would
wrongly mark the graph deadlocked.  Every other flow dependence becomes an
edge vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.mldg import MLDG
from repro.loopir.ast_nodes import ArrayRef, Assignment, LoopNest
from repro.loopir.validate import validate_program
from repro.vectors import IVec

__all__ = [
    "extract_mldg",
    "mldg_from_records",
    "dependence_table",
    "records_by_edge",
    "DependenceRecord",
]


@dataclass(frozen=True)
class DependenceRecord:
    """One flow dependence: producer/consumer loops, statements and vector.

    ``ref`` is the consuming :class:`~repro.loopir.ast_nodes.ArrayRef`
    itself, so diagnostics can point at the exact read (its ``span``) that
    induces the dependence.
    """

    array: str
    src: str  # producer loop label
    dst: str  # consumer loop label
    vector: IVec
    producer: Assignment
    consumer: Assignment
    ref: Optional[ArrayRef] = None  # the consuming read

    def __str__(self) -> str:
        return (
            f"{self.src} -> {self.dst} {self.vector} via '{self.array}' "
            f"({self.producer.target} ... read {self.array})"
        )


def dependence_table(nest: LoopNest, *, check: bool = True) -> List[DependenceRecord]:
    """All flow dependencies of the nest (Definition 2.1).

    One record per *distinct offset* a statement reads an array at: an
    expression like ``a[i][j-1] + a[i][j-1]`` induces one dependence, not
    two, while ``a[i][j-1] + a[i][j-2]`` induces two.  Each record's ``ref``
    is a consuming :class:`~repro.loopir.ast_nodes.ArrayRef`, preferring one
    that carries a source span so diagnostics (LF204, witness reporting)
    can always point at the exact read.

    With ``check`` (default) the nest is validated against the program model
    first, so the resulting vectors are guaranteed meaningful.
    """
    if check:
        validate_program(nest)

    writers: Dict[str, Tuple[str, Assignment]] = nest.writers()
    records: List[DependenceRecord] = []
    for loop in nest.loops:
        for stmt in loop.statements:
            seen: Dict[Tuple[str, IVec], int] = {}
            for ref in stmt.reads():
                if ref.array not in writers:
                    continue
                w_label, w_stmt = writers[ref.array]
                vector = w_stmt.target.offset - ref.offset
                if w_label == loop.label and vector.is_zero():
                    # intra-body same-iteration flow: preserved by statement
                    # order, not an MLDG edge (see module docstring)
                    continue
                key = (ref.array, ref.offset)
                if key in seen:
                    # duplicate read at the same offset: keep one record,
                    # upgrading its ref if this occurrence has a span and
                    # the recorded one does not
                    k = seen[key]
                    old_ref = records[k].ref
                    if old_ref is not None and old_ref.span is None and ref.span is not None:
                        records[k] = DependenceRecord(
                            array=ref.array,
                            src=w_label,
                            dst=loop.label,
                            vector=vector,
                            producer=w_stmt,
                            consumer=stmt,
                            ref=ref,
                        )
                    continue
                seen[key] = len(records)
                records.append(
                    DependenceRecord(
                        array=ref.array,
                        src=w_label,
                        dst=loop.label,
                        vector=vector,
                        producer=w_stmt,
                        consumer=stmt,
                        ref=ref,
                    )
                )
    return records


def records_by_edge(
    records: List[DependenceRecord],
) -> Dict[Tuple[str, str], List[DependenceRecord]]:
    """Index dependence records by MLDG edge ``(src, dst)``.

    The per-edge lists preserve extraction order, so the first record of an
    edge is the textually first read inducing it -- the natural anchor for
    edge-level diagnostics.
    """
    index: Dict[Tuple[str, str], List[DependenceRecord]] = {}
    for rec in records:
        index.setdefault((rec.src, rec.dst), []).append(rec)
    return index


def extract_mldg(nest: LoopNest, *, check: bool = True) -> MLDG:
    """Build the MLDG of a loop nest (Definition 2.2).

    Nodes appear in program order (one per DOALL loop, including loops with
    no dependencies); edges accumulate the full ``D_L`` vector sets.
    """
    return mldg_from_records(nest, dependence_table(nest, check=check))


def mldg_from_records(nest: LoopNest, records: List[DependenceRecord]) -> MLDG:
    """The MLDG of ``nest`` built from its already-computed dependence table."""
    g = MLDG(dim=nest.dim)
    for loop in nest.loops:
        g.add_node(loop.label)
    for rec in records:
        g.add_dependence(rec.src, rec.dst, rec.vector)
    return g
