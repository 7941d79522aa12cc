"""One analysis per compile: every front-end product is computed once.

A strict ``fuse_program`` used to re-run the analysis engine, the
dependence table, MLDG extraction and the LLOFRA legality solve in several
passes.  These tests count the calls per compile by wrapping each function
wherever the package imported it, and pin that sharing the products left
the pipeline's diagnostics identical to the standalone linter's.  Products
no rule reads -- the dataflow fixpoints, and access regions on symbolic
domains -- are not computed at all.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.analysis.dataflow as dataflow
import repro.analysis.engine as analysis_engine
import repro.depend.extract as extract
import repro.graph.legality as legality
from repro.core.session import Session
from repro.gallery.common import phantom_dependence_code
from repro.gallery.paper import figure2_code, figure14_mldg
from repro.graph import MLDG
from repro.graph.random_gen import random_legal_mldg
from repro.lint.engine import lint_mldg, lint_source
from repro.loopir.printer import format_program
from repro.loopir.synthesize import program_from_mldg
from repro.resilience import Budget
from repro.retiming import Retiming

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.loop"))

#: Every MLDG extraction goes through ``mldg_from_records``; every LLOFRA
#: solve -- the legality check, LF203's zero-weight cycle, Algorithm 2 and
#: Algorithm 5 -- builds its system with ``graph.legality._llofra_system``.
COUNTED = (
    (analysis_engine, "analyze_nest"),
    (extract, "dependence_table"),
    (extract, "mldg_from_records"),
    (legality, "_llofra_system"),
    (dataflow, "access_regions"),
    (dataflow, "reaching_definitions"),
    (dataflow, "liveness"),
)


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the :data:`COUNTED` functions and ``Retiming.apply``."""
    counts: Counter = Counter()

    def counting(label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in COUNTED:
        original = getattr(module, name)
        wrapper = counting(name, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    monkeypatch.setattr(Retiming, "apply", counting("apply", Retiming.apply))
    monkeypatch.setattr(MLDG, "retimed", counting("retimed", MLDG.retimed))
    return counts


def _generated_program(loops: int, seed: int) -> str:
    return format_program(program_from_mldg(random_legal_mldg(loops, seed=seed)))


PROGRAMS = pytest.mark.parametrize(
    "source, strategy, rung",
    [
        (figure2_code(), "cyclic", "doall"),
        (_generated_program(8, 3), "cyclic", "doall"),
        (_generated_program(10, 11), "hyperplane", "hyperplane"),
    ],
    ids=["fig2", "generated", "generated-hyperplane"],
)


@PROGRAMS
def test_each_product_is_computed_once(calls, source, strategy, rung):
    out = Session.isolated().fuse_program(source)
    assert out.fusion.strategy.value == strategy
    assert calls["analyze_nest"] == 1
    assert calls["dependence_table"] == 1
    assert calls["mldg_from_records"] == 1
    assert calls["apply"] == 1
    # Algorithm 5 takes the legality check's LLOFRA solution (Theorem 4.4)
    assert calls["_llofra_system"] == 1


@PROGRAMS
def test_resilient_compile_solves_llofra_once(calls, source, strategy, rung):
    out = Session.isolated().fuse_program_resilient(source)
    assert out.rung.label == rung
    assert calls["analyze_nest"] == 1
    assert calls["mldg_from_records"] == 1
    # the rungs reuse the legality report: no rung re-checks or re-solves
    assert calls["_llofra_system"] == 1


def test_pruning_decides_legality_again_on_the_pruned_graph(calls):
    out = Session.isolated().fuse_program(phantom_dependence_code())
    assert any(n.startswith("pruned ") for n in out.notes)
    assert calls["analyze_nest"] == 1
    assert calls["dependence_table"] == 1
    assert calls["mldg_from_records"] == 1
    assert calls["apply"] == 1
    # once on the extracted graph (lint), once on the pruned one
    assert calls["_llofra_system"] == 2
    calls.clear()
    Session.isolated().fuse_program_resilient(phantom_dependence_code())
    assert calls["_llofra_system"] == 2


def test_work_limiting_budget_solves_under_the_budget(calls):
    """A relaxation cap must still trip: the LLOFRA reuse obeys the same
    rule as a cache hit, so a capped compile solves again."""
    session = Session.isolated(budget=Budget(max_relaxation_rounds=10_000))
    out = session.fuse_program(_generated_program(10, 11))
    assert out.fusion.strategy.value == "hyperplane"
    assert calls["_llofra_system"] == 2


def test_cache_hits_still_verify_with_one_apply(calls):
    session = Session.isolated()
    session.fuse_program(figure2_code())
    calls.clear()
    out = session.fuse_program(figure2_code())
    assert out.fusion.verification.ok_for_parallel_fusion
    assert calls["apply"] == 1


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_pipeline_diagnostics_equal_the_linter(path):
    source = path.read_text()
    out = Session.isolated().fuse_program(source)
    assert out.diagnostics == lint_source(source, path=str(path)).diagnostics


@pytest.mark.parametrize(
    "source",
    [figure2_code(), _generated_program(8, 3)],
    ids=["fig2", "generated"],
)
def test_unread_dataflow_facts_are_not_computed(calls, source):
    Session.isolated().fuse_program(source)
    assert calls["access_regions"] == 0
    assert calls["reaching_definitions"] == 0
    assert calls["liveness"] == 0


def test_regions_are_computed_once_on_a_bounded_domain(calls):
    """LF403 is the one rule that reads the access regions, and only on a
    domain with concrete bounds."""
    out = Session.isolated().fuse_program((ROOT / "tests/fixtures/lint/lf403.loop").read_text())
    assert calls["access_regions"] == 1
    assert calls["reaching_definitions"] == calls["liveness"] == 0
    (hit,) = [d for d in out.diagnostics if d.code == "LF403"]
    assert hit.message == (
        "read a[i][j-1] in loop B spans a[0, 4][-1, 3], escaping the written "
        "hull in dim 1: boundary iterations load initial (seed) memory from the halo"
    )
    assert str(hit.span) == "10:15"


def test_zero_weight_cycle_lint_does_not_retime_the_graph(calls):
    result = lint_mldg(figure14_mldg())
    (hit,) = result.by_code("LF203")
    assert "B -> C -> D -> E -> B" in hit.message
    assert calls["retimed"] == 0
