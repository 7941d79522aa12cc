"""Failure injection: every verification layer must catch a corrupted
transformation.

The suite's confidence rests on the checkers, so here we corrupt known-good
retimings/schedules in targeted ways and assert each layer fails loudly:
graph-level invariants, instance-level DOALL scans, randomised execution
equivalence, and the dataflow order checker.

The targeted corruption helper now lives in :mod:`repro.resilience.faults`
(as ``perturb_retiming``); the seeded chaos suite built on top of it is
``tests/test_resilience_faults.py``.
"""

import pytest

from repro.codegen import ArrayStore, apply_fusion, run_fused, run_original
from repro.fusion import fuse
from repro.gallery import figure2_mldg
from repro.gallery.paper import figure2_code
from repro.loopir import parse_program
from repro.resilience.faults import perturb_retiming as _corrupt
from repro.retiming import verify_retiming
from repro.vectors import IVec
from repro.verify import (
    DataflowSemantics,
    OrderViolation,
    execute_retimed,
    runtime_doall_violations,
    verify_retimed_execution,
)


@pytest.fixture
def good():
    g = figure2_mldg()
    return g, fuse(g).retiming


class TestGraphLevelCatches:
    def test_legality_corruption_detected(self, good):
        """Pushing C one extra iteration forward drives B->C negative."""
        g, r = good
        bad = _corrupt(r, "C", IVec(1, 0))
        v = verify_retiming(g, bad)
        assert not v.fusion_legal
        assert v.cycles_preserved  # cycle weights survive ANY retiming

    def test_doall_corruption_detected(self, good):
        """A second-coordinate nudge leaves fusion legal but not DOALL
        (C->D becomes (0,1))."""
        g, r = good
        bad = _corrupt(r, "D", IVec(0, -1))
        v = verify_retiming(g, bad)
        assert v.fusion_legal
        assert not v.doall

    def test_driver_rejects_internal_corruption(self, good):
        """_result re-verifies: a driver bug producing an illegal retiming
        would surface as FusionError, not a silent wrong answer."""
        from repro.fusion.driver import Strategy, _result
        from repro.fusion import FusionError

        g, r = good
        bad = _corrupt(r, "C", IVec(1, 0))
        with pytest.raises(FusionError, match="invalid retiming"):
            _result(g, bad, Strategy.CYCLIC, schedule=IVec(1, 0), hyperplane=None)


class TestInstanceLevelCatches:
    def test_runtime_scan_catches_non_doall(self, good):
        g, r = good
        nest = parse_program(figure2_code())
        bad = _corrupt(r, "D", IVec(0, -1))
        fp = apply_fusion(nest, bad, mldg=g)
        assert runtime_doall_violations(fp, 8, 8)

    def test_execution_equivalence_catches_non_doall(self, good):
        g, r = good
        nest = parse_program(figure2_code())
        bad = _corrupt(r, "D", IVec(0, -1))
        fp = apply_fusion(nest, bad, mldg=g)
        n, m = 8, 8
        base = ArrayStore.for_program(nest, n, m, seed=4)
        ref = run_original(nest, n, m, store=base.copy())
        # serial still matches (the fusion is legal) ...
        assert ref.equal(run_fused(fp, n, m, store=base.copy(), mode="serial"))
        # ... but the DOALL claim is false and randomised rows expose it
        mismatches = sum(
            not ref.equal(
                run_fused(fp, n, m, store=base.copy(), mode="doall", order_seed=k)
            )
            for k in range(5)
        )
        assert mismatches > 0

    def test_dataflow_order_checker_catches_non_doall(self, good):
        g, r = good
        bad = _corrupt(r, "D", IVec(0, -1))
        sem = DataflowSemantics(g, (6, 6))
        with pytest.raises(OrderViolation):
            # some shuffle will schedule the consumer first; several seeds
            # make the probe deterministic-ish
            for k in range(6):
                execute_retimed(sem, bad, mode="doall", order_seed=k)


class TestScheduleCorruption:
    def test_wrong_wavefront_schedule_caught(self):
        """Figure 2 forced through Algorithm 5 has a valid s; a shallower
        skew is not strict and the dataflow executor rejects it."""
        g = figure2_mldg()
        res = fuse(g, strategy="hyperplane")
        assert verify_retimed_execution(
            g, res.retiming, (6, 6), mode="hyperplane", schedule=res.schedule
        )
        too_shallow = IVec(0, 1)  # serialises columns; (k,0) deps break it
        sem = DataflowSemantics(g, (6, 6))
        with pytest.raises(OrderViolation):
            execute_retimed(
                sem, res.retiming, mode="hyperplane", schedule=too_shallow
            )

    def test_schedule_constructor_rejects_corrupt_inputs(self):
        from repro.retiming import schedule_vector_for

        with pytest.raises(ValueError):
            schedule_vector_for([IVec(0, -3)])
