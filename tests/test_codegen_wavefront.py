"""Unit tests for the wavefront (skewed) code emission."""

import pytest

from repro.codegen import emit_wavefront_program, wavefront_iterations
from repro.gallery.extended import extended_kernels
from repro.pipeline import fuse_program
from repro.vectors import IVec


@pytest.fixture
def aniso():
    kernel = next(k for k in extended_kernels() if k.key == "anisotropic-sweep")
    return fuse_program(kernel.code)


class TestEnumeration:
    def test_covers_fused_rectangle_exactly(self, aniso):
        n, m = 5, 6
        fp, s = aniso.fused, aniso.fusion.schedule
        seen = []
        for t, pts in wavefront_iterations(fp, s, n, m):
            for (p, i, j) in pts:
                assert s.dot((i, j)) == t
                seen.append((i, j))
        lo_i, hi_i = fp.full_outer_range(n)
        lo_j, hi_j = fp.full_inner_range(m)
        expect = [(i, j) for i in range(lo_i, hi_i + 1) for j in range(lo_j, hi_j + 1)]
        assert sorted(seen) == sorted(expect)
        assert len(seen) == len(set(seen))

    def test_levels_ascending(self, aniso):
        levels = [t for t, _ in wavefront_iterations(aniso.fused, aniso.fusion.schedule, 4, 4)]
        assert levels == sorted(levels)

    def test_row_schedule_levels_are_rows(self, aniso):
        """With s = (1,0) every level is one fused row."""
        fp = aniso.fused
        n, m = 3, 4
        lo_j, hi_j = fp.full_inner_range(m)
        for t, pts in wavefront_iterations(fp, IVec(1, 0), n, m):
            assert {i for (_p, i, _j) in pts} == {t}
            assert len(pts) == hi_j - lo_j + 1


class TestEmission:
    def test_structure(self, aniso):
        text = emit_wavefront_program(aniso.fused, aniso.fusion.schedule)
        assert "do t = t_lo, t_hi" in text
        assert "doall p over" in text
        assert "wavefront execution" in text
        # the inverse-transform index definitions appear
        assert "i = " in text and "j = " in text

    def test_contains_shifted_statements(self, aniso):
        text = emit_wavefront_program(aniso.fused, aniso.fusion.schedule)
        assert "s[i][j-1] = d[i][j] + 0.5 * d[i][j-2]" in text

    def test_non_coprime_schedule_rejected(self, aniso):
        with pytest.raises(ValueError):
            emit_wavefront_program(aniso.fused, IVec(4, 2))
