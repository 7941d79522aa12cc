"""Unit tests for fused-program construction, emission and execution."""

import pytest

from repro.codegen import (
    ArrayStore,
    DeadlockError,
    apply_fusion,
    emit_fused_program,
    run_fused,
    run_original,
)
from repro.fusion import fuse
from repro.gallery.paper import (
    figure2_code,
    figure2_expected_alg4_retiming,
    figure2_expected_llofra_retiming,
)
from repro.loopir import parse_program
from repro.retiming import Retiming
from repro.vectors import IVec


@pytest.fixture
def fig2_nest():
    return parse_program(figure2_code())


@pytest.fixture
def fig2_fused(fig2_nest):
    return apply_fusion(fig2_nest, figure2_expected_alg4_retiming())


class TestApplyFusion:
    def test_geometry_matches_figure12(self, fig2_fused):
        # Figure 12b: DO 50 i=1,n ... DOALL 70 j=1,m
        assert fig2_fused.core_outer_range(10) == (1, 10)
        assert fig2_fused.core_inner_range(7) == (1, 7)
        assert fig2_fused.full_outer_range(10) == (0, 11)

    def test_body_in_program_order_here(self, fig2_fused):
        assert tuple(n.label for n in fig2_fused.body) == ("A", "B", "C", "D")

    def test_zero_dep_reorders_body(self):
        """A (0,0) dependence from a later loop forces body reordering."""
        nest = parse_program(
            "do i = 0, n\n"
            "  A: doall j = 0, m\n    a[i][j] = b[i-1][j]\n  end\n"
            "  B: doall j = 0, m\n    b[i][j] = 1\n  end\n"
            "end"
        )
        # advancing A one outer iteration makes the B -> A edge (0,0), so B's
        # statement must precede A's inside the fused body
        r = Retiming({"A": IVec(1, 0)}, dim=2)
        fp = apply_fusion(nest, r)
        assert tuple(n.label for n in fp.body) == ("B", "A")
        # and the transformed program still computes the original's results
        base = ArrayStore.for_program(nest, 7, 6, seed=2)
        ref = run_original(nest, 7, 6, store=base.copy())
        assert ref.equal(run_fused(fp, 7, 6, store=base.copy(), mode="serial"))

    def test_illegal_retiming_rejected(self, fig2_nest):
        with pytest.raises(ValueError, match="illegal"):
            apply_fusion(fig2_nest, Retiming.zero(dim=2))

    def test_deadlock_detected(self):
        """A crafted zero-weight dependence cycle admits no body order."""
        from repro.graph import mldg_from_table

        nest = parse_program(
            "do i = 0, n\n"
            "  A: doall j = 0, m\n    a[i][j] = 1\n  end\n"
            "  B: doall j = 0, m\n    b[i][j] = 2\n  end\n"
            "end"
        )
        crafted = mldg_from_table(
            {("A", "B"): [(0, 0)], ("B", "A"): [(0, 0)]}, nodes=["A", "B"]
        )
        with pytest.raises(DeadlockError):
            apply_fusion(nest, Retiming.zero(dim=2), mldg=crafted)

    def test_sync_count_figure8_accounting(self):
        from repro.gallery import figure8_mldg
        from repro.loopir import program_from_mldg

        g = figure8_mldg()
        nest = program_from_mldg(g)
        res = fuse(g)
        fp = apply_fusion(nest, res.retiming, mldg=g)
        n = 100
        assert fp.synchronization_count(n) == n - 2  # the paper's count
        assert fp.synchronization_count(n, include_boundary=True) == n + 2


class TestEmission:
    def test_figure12b_landmarks(self, fig2_fused):
        text = emit_fused_program(fig2_fused)
        assert "do i = 1, n" in text
        assert "doall j = 1, m" in text
        assert "c[i-1][j] = b[i-1][j+2] - a[i-1][j-1] + b[i-1][j-1]" in text
        assert "e[i-1][j-1] = c[i-1][j]" in text
        assert "e[i-1][m] = c[i-1][m+1]" in text  # post-DOALL boundary
        assert "a[0][j] = e[-2][j-1]" in text  # prologue row A at i = 0
        assert "e[n][j] = c[n][j+1]" in text  # epilogue row D at i = n

    def test_figure6b_landmarks(self, fig2_nest):
        fp = apply_fusion(fig2_nest, figure2_expected_llofra_retiming())
        text = emit_fused_program(fp)
        # Figure 6b: DO 70 j=3,m with c[i][j-2] = b[i][j] - a[i][j-3] + b[i][j-3]
        assert "j = 3, m" in text
        assert "c[i][j-2] = b[i][j] - a[i][j-3] + b[i][j-3]" in text
        assert "e[i][j-3] = c[i][j-2]" in text

    def test_no_boundary_sections_when_unshifted(self):
        nest = parse_program(
            "do i = 0, n\n"
            "  A: doall j = 0, m\n    a[i][j] = 1\n  end\n"
            "  B: doall j = 0, m\n    b[i][j] = a[i][j]\n  end\n"
            "end"
        )
        fp = apply_fusion(nest, Retiming.zero(dim=2))
        text = emit_fused_program(fp)
        assert "prologue" not in text and "epilogue" not in text
        assert "do i = 0, n" in text and "doall j = 0, m" in text


class TestExecution:
    def test_store_halo_reads(self, fig2_nest):
        store = ArrayStore.for_program(fig2_nest, 4, 4, seed=1)
        # e[-2][-1] must be addressable (read by a[0][0])
        value = store.get("e", -2, -1)
        assert isinstance(value, float)

    def test_store_copy_independent(self, fig2_nest):
        a = ArrayStore.for_program(fig2_nest, 4, 4, seed=1)
        b = a.copy()
        b.set("a", 0, 0, 123.0)
        assert a.get("a", 0, 0) != 123.0
        assert not a.equal(b)

    def test_same_seed_same_store(self, fig2_nest):
        a = ArrayStore.for_program(fig2_nest, 4, 4, seed=7)
        b = ArrayStore.for_program(fig2_nest, 4, 4, seed=7)
        assert a.equal(b)

    def test_serial_fused_matches_original(self, fig2_nest, fig2_fused):
        base = ArrayStore.for_program(fig2_nest, 8, 9, seed=5)
        ref = run_original(fig2_nest, 8, 9, store=base.copy())
        out = run_fused(fig2_fused, 8, 9, store=base.copy(), mode="serial")
        assert ref.equal(out)

    def test_doall_fused_matches_original(self, fig2_nest, fig2_fused):
        base = ArrayStore.for_program(fig2_nest, 8, 9, seed=5)
        ref = run_original(fig2_nest, 8, 9, store=base.copy())
        for order_seed in (1, 2, 3):
            out = run_fused(
                fig2_fused, 8, 9, store=base.copy(), mode="doall", order_seed=order_seed
            )
            assert ref.equal(out)

    def test_llofra_only_fusion_is_not_doall(self, fig2_nest):
        """Randomised row order must break the serialised (Figure 7) fusion."""
        fp = apply_fusion(fig2_nest, figure2_expected_llofra_retiming())
        base = ArrayStore.for_program(fig2_nest, 8, 9, seed=5)
        ref = run_original(fig2_nest, 8, 9, store=base.copy())
        assert ref.equal(run_fused(fp, 8, 9, store=base.copy(), mode="serial"))
        broken = run_fused(fp, 8, 9, store=base.copy(), mode="doall", order_seed=99)
        assert not ref.equal(broken)

    def test_hyperplane_mode_requires_schedule(self, fig2_fused):
        from repro.codegen import ExecutionOrderError

        with pytest.raises(ExecutionOrderError):
            run_fused(fig2_fused, 4, 4, mode="hyperplane")

    def test_unknown_mode(self, fig2_fused):
        from repro.codegen import ExecutionOrderError

        with pytest.raises(ExecutionOrderError):
            run_fused(fig2_fused, 4, 4, mode="warp")


class TestEmissionCorners:
    def test_positive_shift_emission(self):
        """Positive retiming components put boundaries on the other side:
        epilogue rows for positive-shift nodes, prologue for the rest."""
        from repro.retiming import Retiming

        nest = parse_program(
            "do i = 0, n\n"
            "  A: doall j = 0, m\n    a[i][j] = x[i][j]\n  end\n"
            "  B: doall j = 0, m\n    b[i][j] = a[i-1][j]\n  end\n"
            "end"
        )
        fp = apply_fusion(nest, Retiming({"A": IVec(1, 0)}, dim=2))
        text = emit_fused_program(fp)
        # A runs one iteration ahead: its last original row lands in the
        # epilogue and B's first original row in the prologue
        assert "prologue" in text and "epilogue" in text
        assert "do i = 0, n-1" in text
        # and execution agrees
        from repro.codegen import ArrayStore, run_fused, run_original

        base = ArrayStore.for_program(nest, 6, 5, seed=3)
        ref = run_original(nest, 6, 5, store=base.copy())
        assert ref.equal(run_fused(fp, 6, 5, store=base.copy(), mode="serial"))

    def test_emitted_dsl_core_reparses(self, fig2_fused):
        """The fused DOALL core is valid DSL when wrapped appropriately --
        a sanity check that emission produces parseable index expressions."""
        text = emit_fused_program(fig2_fused)
        core_lines = []
        in_outer = False
        in_core = False
        for line in text.splitlines():
            if line.startswith("do i"):
                in_outer = True
                continue
            if in_outer and line.strip().startswith("doall"):
                in_core = True
                continue
            if in_core and line.strip() == "end":
                break
            if in_core:
                core_lines.append(line.strip())
        assert len(core_lines) == 5  # the five statements of Figure 12b
        for stmt in core_lines:
            assert "=" in stmt and "[" in stmt
