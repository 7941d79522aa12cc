"""The numpy whole-array lowering backend, verified bit-for-bit.

Three independent implementations of fused-program semantics guard
each other: interp (ground truth), compiled (per-row) and numpy (staged
whole-array), plus ``auto``, which runs whichever the planner picks.
These tests sweep

* the full runnable gallery x sizes x every backend (identity),
* seeded random single-writer programs through the same sweep,
* resilience-ladder rungs that reach execution,
* hand-permuted fused bodies that force the slab classifier to give up
  (exercising the wavefront and scalar-fallback stages),

asserting exact array equality every time, plus trace-skeleton
determinism (``tree_shape``) and the lowering-decision counters.
"""

import dataclasses
import random

import pytest

from repro import obs
from repro.codegen import apply_fusion
from repro.codegen.interp import ArrayStore, run_fused
from repro.codegen.nplower import compile_numpy, plan_lowering
from repro.codegen.pycompile import compile_fused
from repro.core.backends import backend_names, execute_fused, get
from repro.core.session import Session, SessionOptions
from repro.depend import extract_mldg
from repro.fusion import FusionError, fuse
from repro.gallery.common import iir2d_code
from repro.gallery.extended import extended_kernels
from repro.gallery.paper import figure2_code
from repro.loopir import parse_program
from repro.loopir.ast_nodes import ArrayRef
from repro.vectors import IVec

N, M = 17, 23  # deliberately not round, not square, not slab-aligned
SIZES = [(5, 7), (N, M), (32, 31)]

ALL_BACKENDS = ("interp", "compiled", "numpy", "auto")


def _workloads():
    sources = {"fig2": figure2_code(), "iir2d": iir2d_code()}
    for k in extended_kernels():
        sources[k.key] = k.code
    out = []
    for key, src in sorted(sources.items()):
        nest = parse_program(src)
        g = extract_mldg(nest)
        result = fuse(g)
        out.append((key, nest, apply_fusion(nest, result.retiming, mldg=g), result))
    return out


_WORKLOADS = _workloads()


def _reference(nest, fp, n, m, seed=11):
    store = ArrayStore.for_program(nest, n, m, seed=seed)
    return run_fused(fp, n, m, store=store, mode="serial")


# ------------------------------------------------------------------ #
# gallery identity across every backend
# ------------------------------------------------------------------ #


class TestGalleryIdentity:
    @pytest.mark.parametrize("key,nest,fp,result", _WORKLOADS,
                             ids=[w[0] for w in _WORKLOADS])
    @pytest.mark.parametrize("n,m", SIZES, ids=[f"{n}x{m}" for n, m in SIZES])
    def test_numpy_bit_identical(self, key, nest, fp, result, n, m):
        ref = _reference(nest, fp, n, m)
        got = ArrayStore.for_program(nest, n, m, seed=11)
        compile_numpy(fp, schedule=result.schedule)(got, n, m)
        assert ref.equal(got)

    @pytest.mark.parametrize("key,nest,fp,result", _WORKLOADS,
                             ids=[w[0] for w in _WORKLOADS])
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_all_backends_agree(self, key, nest, fp, result, backend):
        # (24, 24) is the smoke size the benchmark's bit-identity gate uses
        for n, m in SIZES + [(24, 24)]:
            ref = _reference(nest, fp, n, m)
            got = ArrayStore.for_program(nest, n, m, seed=11)
            execute_fused(
                backend, fp, n, m, store=got,
                schedule=result.schedule, is_doall=result.is_doall,
            )
            assert ref.equal(got), f"{backend} diverged on {key} at {n}x{m}"

    def test_no_fallback_on_core_gallery(self):
        """Every gallery statement lowers to an array-op stage."""
        for key, nest, fp, result in _WORKLOADS:
            plan = plan_lowering(fp, schedule=result.schedule)
            assert plan.fallback_statements == 0, (
                f"{key} fell back to scalar: {plan.describe()}"
            )

    def test_fig2_plan_shape(self):
        fp, result = next(
            (fp, r) for key, _, fp, r in _WORKLOADS if key == "fig2"
        )
        plan = plan_lowering(fp, schedule=result.schedule)
        summary = plan.summary()
        # the d-statement is a sink singleton; the {a,b,c,e} recurrence
        # slabs at height 2 (its min dependence-cycle row total)
        assert summary["wholeArray"] == 1
        assert summary["slab"] == 4
        assert summary["slabHeights"] == [2]


# ------------------------------------------------------------------ #
# random single-writer programs
# ------------------------------------------------------------------ #


def _random_program(seed: int) -> str:
    """A random legal single-writer two-level program.

    Every statement writes a fresh array.  Reads follow the model rules:
    earlier-written arrays at row offsets <= 0, feedback (textually later
    writers, including self) strictly below at row offsets <= -1, plus
    unconstrained external inputs.
    """
    rng = random.Random(seed)
    n_loops = rng.randint(2, 4)
    per_loop = [rng.randint(1, 2) for _ in range(n_loops)]
    written = [f"w{i}" for i in range(sum(per_loop))]
    inputs = ["x0", "x1"]

    def ref(name, lo_i, hi_i, same_loop=False):
        di = rng.randint(lo_i, hi_i)
        # a DOALL loop may only read its own iteration's same-loop
        # values at exactly (0, 0); any column offset needs di <= -1
        dj = 0 if (same_loop and di == 0) else rng.randint(-2, 2)
        i_s = f"i{di:+d}" if di else "i"
        j_s = f"j{dj:+d}" if dj else "j"
        return f"{name}[{i_s}][{j_s}]"

    lines = ["do i = 0, n"]
    stmt = 0
    loop_start = 0
    for loop in range(n_loops):
        lines.append(f"  doall j = 0, m        ! loop L{loop}")
        for _ in range(per_loop[loop]):
            prior_loops = written[:loop_start]
            same_loop_earlier = written[loop_start:stmt]
            later = written[stmt:]
            terms = [ref(rng.choice(inputs), -2, 2)]
            for _ in range(rng.randint(1, 2)):
                pick = rng.random()
                if pick < 0.35 and prior_loops:
                    terms.append(ref(rng.choice(prior_loops), -2, 0))
                elif pick < 0.6 and same_loop_earlier:
                    terms.append(
                        ref(rng.choice(same_loop_earlier), -2, 0, same_loop=True)
                    )
                elif pick < 0.8 and later:
                    terms.append(ref(rng.choice(later), -2, -1, same_loop=True))
                else:
                    terms.append(ref(rng.choice(inputs), -2, 2))
            op = rng.choice([" + ", " - "])
            lines.append(f"    {written[stmt]}[i][j] = {op.join(terms)}")
            stmt += 1
        lines.append("  end")
        loop_start = stmt
    lines.append("end")
    return "\n".join(lines)


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(30))
    def test_backends_agree_on_random_programs(self, seed):
        src = _random_program(seed)
        nest = parse_program(src)
        g = extract_mldg(nest)
        try:
            result = fuse(g)
        except FusionError:
            pytest.skip("random graph not fusible under any strategy")
        fp = apply_fusion(nest, result.retiming, mldg=g)
        for n, m in ((6, 9), (19, 16)):
            ref = _reference(nest, fp, n, m, seed=seed)
            for backend in ALL_BACKENDS:
                got = ArrayStore.for_program(nest, n, m, seed=seed)
                execute_fused(
                    backend, fp, n, m, store=got,
                    schedule=result.schedule, is_doall=result.is_doall,
                )
                assert ref.equal(got), (
                    f"{backend} diverged on seed {seed} at {n}x{m}:\n{src}"
                )

    def test_random_programs_never_fall_back(self):
        """Body order keeps zero-row dependences forward, so the slab and
        whole-array stages cover every legal fused program -- scalar
        fallback stays reserved for adversarial (hand-built) orders."""
        lowered = 0
        for seed in range(30):
            nest = parse_program(_random_program(seed))
            g = extract_mldg(nest)
            try:
                result = fuse(g)
            except FusionError:
                continue
            fp = apply_fusion(nest, result.retiming, mldg=g)
            plan = plan_lowering(fp, schedule=result.schedule)
            assert plan.fallback_statements == 0, plan.describe()
            lowered += plan.lowered_statements
        assert lowered > 0  # the sweep must actually exercise programs


# ------------------------------------------------------------------ #
# resilience-ladder rungs
# ------------------------------------------------------------------ #


class TestLadderRungs:
    @pytest.mark.parametrize("src_key", ["fig2", "iir2d"])
    def test_rung_results_bit_identical(self, src_key):
        src = figure2_code() if src_key == "fig2" else iir2d_code()
        session = Session()
        out = session.fuse_program_resilient(src)
        assert out.fused is not None, "gallery programs reach an executable rung"
        fp = out.fused
        ref = _reference(out.nest, fp, N, M)
        got = ArrayStore.for_program(out.nest, N, M, seed=11)
        compile_numpy(fp)(got, N, M)
        assert ref.equal(got), f"{src_key} rung {out.rung.label!r} diverged"


# ------------------------------------------------------------------ #
# wavefront and scalar stages (adversarial body orders)
# ------------------------------------------------------------------ #


# The program model keeps inner loops DOALL, so no *source* program ever
# carries a same-row self-recurrence -- which is exactly the shape that
# defeats the slab stage (a self-edge cannot be skewed away) while still
# agreeing with serial order under a wavefront schedule.  We manufacture
# it by offset surgery on a legally fused program: rewrite the feedback
# read ``a[i-1][j-1]`` to ``a[i][j-1]`` *after* fusion.  The surgered
# read stays inside the halo the original nest allocated, and serial
# execution of the surgered FusedProgram is the reference semantics.

_COUPLED_SRC = """\
do i = 0, n
  doall j = 0, m        ! loop A
    a[i][j] = x[i][j] + a[i-1][j-1] + b[i-1][j]
  end
  doall j = 0, m        ! loop B
    b[i][j] = a[i][j]
  end
end
"""

_CHAIN_SRC = """\
do i = 0, n
  doall j = 0, m        ! loop A
    a[i][j] = x[i][j] + a[i-1][j-1]
  end
  doall j = 0, m        ! loop B
    b[i][j] = a[i][j-2]
  end
end
"""


def _rewrite_self_read(expr):
    """Rewrite ``a[i-1][j-1]`` reads to ``a[i][j-1]`` throughout ``expr``."""
    if isinstance(expr, ArrayRef):
        if expr.array == "a" and expr.offset == IVec(-1, -1):
            return dataclasses.replace(expr, offset=IVec(0, -1))
        return expr
    fields = {}
    for f in dataclasses.fields(expr):
        value = getattr(expr, f.name)
        if hasattr(value, "__dataclass_fields__"):
            fields[f.name] = _rewrite_self_read(value)
    return dataclasses.replace(expr, **fields) if fields else expr


def _surgered(src):
    nest = parse_program(src)
    g = extract_mldg(nest)
    result = fuse(g)
    fp = apply_fusion(nest, result.retiming, mldg=g)
    body = tuple(
        dataclasses.replace(
            node,
            statements=tuple(
                dataclasses.replace(s, expr=_rewrite_self_read(s.expr))
                for s in node.statements
            ),
        )
        for node in fp.body
    )
    return nest, dataclasses.replace(fp, body=body)


class TestAdversarialGroups:
    """Slab-defeating recurrences: wavefront and scalar stages."""

    def _check(self, src, schedule, expected_kinds):
        nest, fp = _surgered(src)
        plan = plan_lowering(fp, schedule=schedule)
        assert [s.kind for s in plan.stages] == expected_kinds, plan.describe()
        ref = _reference(nest, fp, N, M)
        got = ArrayStore.for_program(nest, N, M, seed=11)
        compile_numpy(fp, schedule=schedule)(got, N, M)
        assert ref.equal(got)
        return plan

    def test_wavefront_general_schedule_two_member_group(self):
        # the coupled pair {a, b} is one SCC: a's same-row self-edge
        # (0,1) defeats the slab, the (0,0) a->b edge exercises the
        # same-iteration member-order exception, and s0=1 drives the
        # arange gather/scatter path
        self._check(_COUPLED_SRC, IVec(1, 1), ["wavefront"])

    def test_wavefront_column_schedule_with_shifted_member(self):
        # the chain splits into a self-recurrent singleton (wavefront)
        # and a pure sink (whole-array); s=(0,1) drives the column-slice
        # path, and fusion's nonzero shift on A exercises the shifted
        # wavefront bounds
        nest, fp = _surgered(_CHAIN_SRC)
        assert any(not node.shift.is_zero() for node in fp.body)
        self._check(_CHAIN_SRC, IVec(0, 1), ["wavefront", "whole-array"])

    def test_scalar_fallback_without_schedule(self):
        plan = self._check(_COUPLED_SRC, None, ["scalar"])
        assert plan.fallback_statements == 2
        assert plan.lowered_statements == 0

    def test_row_schedule_never_claims_wavefront(self):
        """A row schedule (1, 0) fails the per-edge s.delta >= 1
        re-verification on the same-row self-edge -- the schedule is
        checked, not trusted."""
        self._check(_COUPLED_SRC, IVec(1, 0), ["scalar"])

    def test_scalar_group_beside_whole_array_stage(self):
        plan = self._check(_CHAIN_SRC, None, ["scalar", "whole-array"])
        assert plan.fallback_statements == 1
        assert plan.lowered_statements == 1


# ------------------------------------------------------------------ #
# observability: counters + trace-skeleton determinism
# ------------------------------------------------------------------ #


class TestObservability:
    def test_fallback_counter(self):
        nest, fp = _surgered(_COUPLED_SRC)
        reg = obs.MetricsRegistry()
        with obs.use_registry(reg):
            compile_numpy(fp)  # no schedule -> both statements scalar
        assert reg.counter("exec.numpy.fallback").value == 2
        assert reg.counter("exec.numpy.lowered").value == 0

    def test_lowered_counter(self):
        key, nest, fp, result = _WORKLOADS[0]
        reg = obs.MetricsRegistry()
        with obs.use_registry(reg):
            compile_numpy(fp, schedule=result.schedule)
        total = sum(len(node.statements) for node in fp.body)
        assert reg.counter("exec.numpy.lowered").value == total
        assert reg.counter("exec.numpy.fallback").value == 0

    def test_traced_runs_deterministic_and_bit_identical(self):
        nest, fp = _surgered(_CHAIN_SRC)  # wavefront emits detail spans
        kernel = compile_numpy(fp, schedule=IVec(0, 1))

        untraced = ArrayStore.for_program(nest, N, M, seed=11)
        kernel(untraced, N, M)

        shapes = detailed = None
        for _ in range(2):
            tracer = obs.Tracer()
            store = ArrayStore.for_program(nest, N, M, seed=11)
            with obs.overriding_tracer(tracer):
                kernel(store, N, M)
            assert untraced.equal(store)  # tracing never changes results
            shape = obs.tree_shape(tracer)
            assert shapes is None or shape == shapes  # deterministic skeleton
            shapes = shape
            detailed = obs.tree_shape(tracer, include_detail=True)
        # per-wavefront spans are detail-only: hidden by default, and the
        # wavefront loop really did emit one span per _t value
        flat = repr(detailed)
        assert "exec.numpy.wavefront" in flat
        assert "exec.numpy.wavefront" not in repr(shapes)


# ------------------------------------------------------------------ #
# registry + session plumbing
# ------------------------------------------------------------------ #


class TestBackendRegistry:
    def test_registry_names(self):
        assert backend_names() == ("interp", "compiled", "numpy")
        assert get("numpy").name == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown execution backend"):
            get("fortran")

    def test_session_execute_fused_uses_options_backend(self):
        key, nest, fp, result = _WORKLOADS[0]
        session = Session(options=SessionOptions(backend="numpy"))
        ref = _reference(nest, fp, N, M)
        got = ArrayStore.for_program(nest, N, M, seed=11)
        session.execute_fused(
            fp, N, M, store=got,
            schedule=result.schedule, is_doall=result.is_doall,
        )
        assert ref.equal(got)

    def test_kernel_reuses_pycompile_cache(self):
        key, nest, fp, result = _WORKLOADS[0]
        k1 = compile_numpy(fp, schedule=result.schedule)
        k2 = compile_numpy(fp, schedule=result.schedule)
        assert k1 is k2  # source-keyed kernel cache hit
        assert compile_fused(fp) is not k1  # distinct source, distinct kernel
