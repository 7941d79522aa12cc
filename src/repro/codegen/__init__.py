"""Retiming-aware code generation and execution.

Turns a loop nest plus a fusion result into:

* a :class:`~repro.codegen.fused.FusedProgram` -- the fused single loop with
  per-node retiming shifts and a dependence-respecting body order;
* pretty-printed transformed source in the shape of the paper's Figures 3b,
  6b and 12b (prologue / per-iteration boundary code / fused DOALL loop /
  epilogue) via :mod:`~repro.codegen.emit`;
* actual execution over numpy-backed array stores via
  :mod:`~repro.codegen.interp`, in serial, DOALL (randomised row order) or
  hyperplane (wavefront) mode -- the basis of the semantic-equivalence
  verification in :mod:`repro.verify`.
"""

from importlib import import_module

from repro.codegen.fused import DeadlockError, FusedProgram, FusedNode, apply_fusion
from repro.codegen.emit import emit_fused_program
from repro.codegen.wavefront import emit_wavefront_program, wavefront_iterations

# The executors need numpy; they load on first use (PEP 562), so fusing and
# emitting code imports no array library.
_EXECUTORS = {
    "ArrayStore": "interp",
    "ExecutionOrderError": "interp",
    "run_fused": "interp",
    "run_original": "interp",
    "LoweringPlan": "nplower",
    "compile_numpy": "nplower",
    "plan_lowering": "nplower",
    "CompiledKernel": "pycompile",
    "compile_fused": "pycompile",
    "compile_original": "pycompile",
}


def __getattr__(name: str):
    module = _EXECUTORS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


__all__ = [
    "compile_original",
    "compile_fused",
    "compile_numpy",
    "plan_lowering",
    "LoweringPlan",
    "CompiledKernel",
    "emit_wavefront_program",
    "wavefront_iterations",
    "FusedProgram",
    "FusedNode",
    "DeadlockError",
    "apply_fusion",
    "emit_fused_program",
    "ArrayStore",
    "run_original",
    "run_fused",
    "ExecutionOrderError",
]
