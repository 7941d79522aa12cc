"""Command-line interface.

Main subcommands::

    repro-fuse analyze  program.loop   # dependence report + MLDG
    repro-fuse lint     program.loop   # static diagnostics (text/json/sarif)
    repro-fuse fuse     program.loop   # retime + fuse + emit code
    repro-fuse run      program.loop   # hardened pipeline (budgets, --resilient,
                                       # --backend interp|compiled|numpy|auto)
    repro-fuse batch    a.loop b.loop  # compile many programs, one per
                                       # worker process (--jobs; 1 = in
                                       # process), --timeout-ms
    repro-fuse serve                   # fault-tolerant compilation daemon
                                       # (repro-serve/1; docs/SERVING.md)
    repro-fuse loadgen                 # drive the daemon under load/chaos
                                       # (writes BENCH_serve.json)
    repro-fuse stats                   # dump the observability metrics registry
    repro-fuse cache    stats          # inspect/maintain the persistent store
                                       # (stats|verify|prune|clear; docs/CACHING.md)
    repro-fuse demo     fig2           # run a gallery example end to end

``python -m repro.cli`` works identically.  ``fuse`` and ``run``
accept ``--trace PATH --trace-format text|json|chrome`` to export a span
trace of the invocation, and ``--metrics PATH`` to persist the metrics
registry (render it later with ``repro-fuse stats --input PATH``); see
docs/OBSERVABILITY.md.

``fuse``, ``run``, ``batch``, ``serve`` and ``loadgen`` accept
``--store PATH``: a persistent sqlite-backed compilation cache (the L2
disk tier under the in-memory memo caches) shared safely across processes
and serve workers.  ``REPRO_FUSE_STORE`` sets the same default from the
environment; ``REPRO_FUSE_STORE_MAX_ENTRIES`` / ``REPRO_FUSE_STORE_MAX_MB``
set its caps.  See docs/CACHING.md.

Performance is measured by the benchmark at ``bench/`` (``python3
bench/run.py``, see bench/README.md), not by a subcommand.

Exit codes follow the single shared table in
:class:`repro.core.ExitCode` (documented in docs/DIAGNOSTICS.md):
``analyze``/``fuse``/``run``/``demo``/``report`` return 0 (``OK``) on
success, 1 (``FAILURE``) on input errors (parse/validation/fusion/budget)
and 2 (``USAGE``) on usage errors.  ``run --format json`` always prints a
JSON document -- a result report on success, an error report
(``{"error": ...}``) on failure.  ``batch`` returns 0 only when *every*
program compiled.  ``lint`` maps the same codes onto the linter
convention: 0 = clean (notes allowed), 1 = warnings only, 2 = errors or
an unreadable/unparseable input.  ``stats`` exits 1 when the registry has
nothing to report (so CI smoke checks catch silently-uninstrumented
builds).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from repro import __version__, obs
from repro.baselines import direct_fusion
from repro.core.codes import ExitCode
from repro.codegen import apply_fusion, emit_fused_program
from repro.depend import dependence_table, describe_dependencies, extract_mldg
from repro.formats import DOT, JSON, SARIF, TEXT, add_format_argument
from repro.fusion import FusionError, Strategy, fuse
from repro.graph import mldg_to_dot, mldg_to_json
from repro.loopir import ParseError, ValidationError, parse_program
from repro.obs import TRACE_FORMATS
from repro.resilience.budget import BudgetExceededError as _BudgetExceededError

__all__ = ["main", "build_arg_parser"]

_DEMOS = {
    "fig2": "figure 2 (running example; Algorithm 4, DOALL)",
    "fig8": "figure 8 (acyclic; Algorithm 3, DOALL)",
    "fig14": "figure 14 (cyclic; Algorithm 5, hyperplane)",
    "iir2d": "2-D IIR filter section (reconstructed example 4)",
    "sor": "SOR-style sweep (reconstructed example 5)",
}


def _positive_int(text: str) -> int:
    """Argparse type for worker/job counts: an integer >= 1.

    Rejecting ``0``/negatives here turns them into argparse usage errors
    (exit 2 with the subcommand's usage line) instead of a deadlock or an
    obscure pool failure deep inside an executor.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer >= 1, got {value}"
        )
    return value


def _size(text: str) -> Tuple[int, int]:
    """Argparse type for ``--size N,M``: two positive integers.

    A malformed or non-positive size is a usage error (exit 2 with the
    subcommand's usage line), not a traceback from the executor.
    """
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected N,M, got {text!r}")
    n, m = (_positive_int(part) for part in parts)
    return n, m


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability options shared by ``fuse`` and ``run``."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="collect a span trace of this invocation and write it to PATH",
    )
    add_format_argument(
        group,
        list(TRACE_FORMATS),
        default=JSON,
        flag="--trace-format",
        help_suffix="chrome output loads at chrome://tracing or ui.perfetto.dev",
    )
    group.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the metrics registry (repro-stats/1 JSON) to PATH on exit",
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    """The persistent-store option shared by the compiling subcommands."""
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="persistent compilation cache (sqlite file; L2 tier under the "
        "memo caches, shared across processes; default $REPRO_FUSE_STORE; "
        "see docs/CACHING.md)",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuse",
        description="Polynomial-time nested loop fusion with full parallelism "
        "(Sha/O'Neil/Passos, ICPP 1996)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="dependence analysis of a DSL program")
    p_an.add_argument("file", help="loop DSL source file ('-' for stdin)")
    add_format_argument(
        p_an,
        [TEXT, JSON, DOT, SARIF],
        default=None,
        help_suffix="sarif emits lint diagnostics",
    )
    p_an.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p_an.add_argument("--json", action="store_true", help="emit MLDG JSON")

    p_li = sub.add_parser(
        "lint", help="static diagnostics (model, legality, hygiene rules)"
    )
    p_li.add_argument("file", help="loop DSL source file ('-' for stdin)")
    add_format_argument(p_li, [TEXT, JSON, SARIF])

    p_fu = sub.add_parser("fuse", help="fuse a DSL program with full parallelism")
    p_fu.add_argument("file", help="loop DSL source file ('-' for stdin)")
    p_fu.add_argument(
        "--strategy",
        default="auto",
        choices=[s.value for s in Strategy],
        help="force a specific algorithm (default: auto)",
    )
    p_fu.add_argument("--no-emit", action="store_true", help="skip code emission")
    p_fu.add_argument(
        "--verify",
        action="store_true",
        help="execute original and fused programs and compare results",
    )
    p_fu.add_argument(
        "--profile",
        metavar="N,M,P",
        help="simulate on an N x M iteration space with P processors",
    )
    p_fu.add_argument(
        "--iterspace",
        action="store_true",
        help="render the fused iteration space (Figures 7/13 style)",
    )
    p_fu.add_argument(
        "--locality",
        action="store_true",
        help="report reuse distances before and after fusion",
    )
    p_fu.add_argument(
        "--compile",
        action="store_true",
        dest="compile_kernel",
        help="print the compiled Python/numpy kernel for the fused program",
    )
    _add_store_argument(p_fu)
    _add_trace_arguments(p_fu)

    p_run = sub.add_parser(
        "run",
        help="hardened pipeline: resource budgets and verified degradation",
    )
    p_run.add_argument("file", help="loop DSL source file ('-' for stdin)")
    p_run.add_argument(
        "--resilient",
        action="store_true",
        help="degrade through the ladder (doall -> hyperplane -> legal-only "
        "-> partition -> original) instead of failing on the first error",
    )
    p_run.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="N",
        help="wall-clock budget in milliseconds",
    )
    p_run.add_argument(
        "--max-nodes", type=int, default=None, metavar="N", help="MLDG node cap"
    )
    p_run.add_argument(
        "--max-edges", type=int, default=None, metavar="N", help="MLDG edge cap"
    )
    p_run.add_argument(
        "--max-relaxation-rounds",
        type=int,
        default=None,
        metavar="N",
        help="Bellman-Ford relaxation-round cap",
    )
    p_run.add_argument(
        "--min-rung",
        default="none",
        choices=["none", "partition", "legal-only", "hyperplane", "doall"],
        help="weakest acceptable ladder rung with --resilient (default: none)",
    )
    add_format_argument(p_run, [TEXT, JSON])
    p_run.add_argument("--no-emit", action="store_true", help="skip code emission")
    p_run.add_argument(
        "--backend",
        choices=["interp", "compiled", "numpy", "auto", "parallel"],
        default=None,
        help="also execute the fused program with this backend "
        "(compiled/numpy results are verified bit-identical against "
        "the interpreter; auto = the execution planner's stage-mix rule "
        "picks, docs/PLANNING.md; parallel is a deprecated name for auto; "
        "not available with --resilient)",
    )
    p_run.add_argument(
        "--size",
        metavar="N,M",
        type=_size,
        default="64,64",
        help="iteration-space size for --backend execution (default 64,64)",
    )
    _add_store_argument(p_run)
    _add_trace_arguments(p_run)

    p_ba = sub.add_parser(
        "batch",
        help="compile many programs under one session, one per worker "
        "process",
    )
    p_ba.add_argument(
        "files", nargs="+", help="loop DSL source files (one program each)"
    )
    p_ba.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes, at most one per file (default: 1, "
        "compile in this process)",
    )
    p_ba.add_argument(
        "--strategy",
        default="auto",
        choices=[s.value for s in Strategy],
        help="fusion strategy for every program (default: auto)",
    )
    p_ba.add_argument(
        "--resilient",
        action="store_true",
        help="compile through the degradation ladder instead of the "
        "strict pipeline",
    )
    p_ba.add_argument(
        "--min-rung",
        default="none",
        choices=["none", "partition", "legal-only", "hyperplane", "doall"],
        help="weakest acceptable ladder rung with --resilient (default: none)",
    )
    p_ba.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="N",
        help="wall-clock budget of the whole batch in milliseconds",
    )
    p_ba.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        metavar="N",
        help="each program's own deadline in milliseconds; next to "
        "--deadline-ms, --jobs 1 uses this one and worker processes the "
        "smaller of the two",
    )
    add_format_argument(p_ba, [TEXT, JSON])
    _add_store_argument(p_ba)
    _add_trace_arguments(p_ba)

    p_sv = sub.add_parser(
        "serve",
        help="run the fault-tolerant compilation daemon (repro-serve/1)",
    )
    p_sv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_sv.add_argument("--port", type=int, default=8337, metavar="N",
                      help="bind port (default 8337; 0 = ephemeral)")
    p_sv.add_argument("--workers", type=_positive_int, default=2, metavar="N",
                      help="pool worker processes (default 2)")
    p_sv.add_argument("--backend",
                      choices=["interp", "compiled", "numpy", "auto", "parallel"],
                      default="interp",
                      help="default execution backend stamped onto requests "
                      "that carry none (auto = execution planner resolves "
                      "per program, docs/PLANNING.md; explicit request "
                      "backends always win)")
    p_sv.add_argument("--max-inflight", type=int, default=None, metavar="N",
                      help="admission quota before shedding (default workers*4)")
    p_sv.add_argument("--deadline-ms", type=float, default=10_000.0, metavar="N",
                      help="default per-request deadline (default 10000)")
    p_sv.add_argument("--max-attempts", type=int, default=3, metavar="N",
                      help="worker dispatch attempts per request (default 3)")
    p_sv.add_argument("--breaker-threshold", type=int, default=3, metavar="N",
                      help="consecutive worker faults per workload class "
                      "before the circuit opens (default 3)")
    p_sv.add_argument("--breaker-cooldown-ms", type=float, default=1_000.0,
                      metavar="N", help="open-circuit cooldown (default 1000)")
    p_sv.add_argument("--chaos", action="store_true",
                      help="honor request fault specs in workers "
                      "(testing only; never in production)")
    p_sv.add_argument("--seed", type=int, default=0, metavar="N",
                      help="backoff-jitter rng seed (default 0)")
    _add_store_argument(p_sv)

    p_lg = sub.add_parser(
        "loadgen",
        help="drive a compile service under load (writes BENCH_serve.json)",
    )
    p_lg.add_argument("--requests", type=int, default=50, metavar="N",
                      help="total requests (default 50)")
    p_lg.add_argument("--concurrency", type=_positive_int, default=8, metavar="N",
                      help="client threads (default 8)")
    p_lg.add_argument("--workers", type=_positive_int, default=2, metavar="N",
                      help="daemon pool workers when spawning (default 2)")
    p_lg.add_argument("--auto-every", type=int, default=0, metavar="N",
                      dest="auto_every",
                      help="every Nth request asks for backend=auto, so the "
                      "report's plan block shows the planner's picks "
                      "(default 0 = never)")
    p_lg.add_argument("--deadline-ms", type=float, default=10_000.0, metavar="N",
                      help="per-request deadline (default 10000)")
    p_lg.add_argument("--resilient-every", type=int, default=3, metavar="N",
                      help="every Nth request uses the resilient pipeline "
                      "(default 3; 0 = never)")
    p_lg.add_argument("--chaos-kill", type=int, default=0, metavar="N",
                      dest="chaos_kills",
                      help="requests carrying a seeded WorkerCrash (default 0)")
    p_lg.add_argument("--chaos-hang", type=int, default=0, metavar="N",
                      dest="chaos_hangs",
                      help="requests carrying a seeded WorkerHang (default 0)")
    p_lg.add_argument("--seed", type=int, default=0, metavar="N",
                      help="chaos/jitter seed (default 0)")
    p_lg.add_argument("--url", default=None, metavar="URL",
                      help="target a running daemon instead of spawning one")
    p_lg.add_argument("--out", default=None, metavar="PATH",
                      help="write the repro-bench-serve/1 JSON here "
                      "(e.g. BENCH_serve.json)")
    p_lg.add_argument("--warm-passes", type=int, default=1, metavar="N",
                      dest="warm_passes",
                      help="replay the request stream N times against the "
                      "same daemon to measure store warm-up (default 1)")
    _add_store_argument(p_lg)
    add_format_argument(p_lg, [TEXT, JSON])

    p_st = sub.add_parser(
        "stats", help="dump the observability metrics registry (repro-stats/1)"
    )
    p_st.add_argument(
        "file",
        nargs="?",
        default=None,
        help="optional loop DSL source ('-' for stdin): run the instrumented "
        "pipeline and one fused execution on it first, so the registry has "
        "solver/cache/execution activity to report",
    )
    p_st.add_argument(
        "--input",
        metavar="PATH",
        default=None,
        help="render a repro-stats/1 JSON document previously written with "
        "--metrics instead of this process's registry",
    )
    p_st.add_argument(
        "--size", metavar="N,M", type=_size, default="16,16",
        help="iteration-space size for the instrumented execution (default 16,16)",
    )
    add_format_argument(p_st, [TEXT, JSON])

    p_ca = sub.add_parser(
        "cache",
        help="inspect and maintain the persistent compilation store (L2)",
    )
    p_ca.add_argument(
        "action",
        choices=["stats", "verify", "prune", "clear"],
        help="stats: counters and sizes; verify: audit every row "
        "(exit 1 unless clean); prune: evict LRU rows to the caps; "
        "clear: delete every entry",
    )
    p_ca.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="store path (default: $REPRO_FUSE_STORE)",
    )
    add_format_argument(p_ca, [TEXT, JSON])
    p_ca.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="row cap for prune (default: the store's configured cap)",
    )
    p_ca.add_argument(
        "--max-mb", type=float, default=None, metavar="N",
        help="payload-size cap in MiB for prune (default: configured cap)",
    )
    p_ca.add_argument(
        "--repair", action="store_true",
        help="with verify: delete the rows that fail the audit",
    )

    p_demo = sub.add_parser("demo", help="run a gallery example")
    p_demo.add_argument("name", choices=sorted(_DEMOS), help="example name")

    p_rep = sub.add_parser(
        "report", help="regenerate every experiment table (no timing)"
    )
    p_rep.add_argument("--size", metavar="N,M", type=_size, default="100,63",
                       help="iteration-space size (default 100,63)")

    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json as _json

    source = _read_source(args.file)
    path = "<stdin>" if args.file == "-" else args.file
    fmt = args.format or ("dot" if args.dot else "json" if args.json else "text")
    if fmt == "sarif":
        from repro.lint import lint_source, render_sarif

        result = lint_source(source, path=path)
        print(render_sarif(result))
        return ExitCode.FAILURE if result.has_errors else ExitCode.OK
    nest = parse_program(source)
    records = dependence_table(nest)
    g = extract_mldg(nest, check=False)
    if fmt == "dot":
        print(mldg_to_dot(g))
        return ExitCode.OK
    from repro.analysis.engine import analyze_nest
    from repro.lint import lint_source

    report = analyze_nest(nest, records=records, path=path)
    # error-severity lint findings (e.g. a must-race) fail the command, so
    # `repro-fuse analyze` doubles as a CI gate; warnings and notes do not.
    errors = lint_source(source, path=path).has_errors
    if fmt == "json":
        # additive superset of the MLDG JSON schema: nodes/edges unchanged,
        # with the semantic analysis report alongside
        payload = _json.loads(mldg_to_json(g))
        payload["analysis"] = report.to_dict()
        print(_json.dumps(payload, indent=2))
        return ExitCode.FAILURE if errors else ExitCode.OK
    from repro.graph import mldg_stats

    print(g.describe())
    print()
    print(mldg_stats(g).describe())
    print()
    print(describe_dependencies(records))
    outcome = direct_fusion(g)
    print()
    print(f"direct fusion: {outcome.describe()}")
    print()
    print(report.render_text())
    return ExitCode.FAILURE if errors else ExitCode.OK


def _report_fusion(
    g,
    result,
    nest=None,
    *,
    emit=True,
    verify=False,
    profile=None,
    iterspace=False,
    locality=False,
    compile_kernel=False,
) -> int:
    print(result.summary())
    if nest is not None and emit:
        fused = apply_fusion(nest, result.retiming, mldg=result.original)
        print()
        print("! ===== transformed program =====")
        print(emit_fused_program(fused))
    if nest is not None and verify:
        from repro.verify import verify_fusion_result

        reports = verify_fusion_result(nest, result)
        ok = all(r.equivalent for r in reports)
        print()
        print(
            f"verification: {len(reports)} executions "
            f"({', '.join(sorted({r.mode for r in reports}))}) -> "
            + ("ALL EQUIVALENT" if ok else "MISMATCH")
        )
        if not ok:
            return ExitCode.FAILURE
    if iterspace:
        from repro.viz import format_hyperplane_grid, format_iteration_space

        print()
        print("iteration space after retiming and fusion:")
        print(format_iteration_space(result.retimed))
        if result.hyperplane is not None:
            print()
            print(format_hyperplane_grid(result.schedule))
    if locality:
        from repro.machine import locality_report

        print()
        print("reuse distances (mean / max / hit-ratio @ 8, 64, 512):")
        for row in locality_report(g, 63, result.retiming):
            shape, mean, worst, *hits = row
            hits_text = ", ".join(f"{h:.2f}" for h in hits)
            print(f"  {shape:>8}: {mean:9.1f} / {worst:6d} / {hits_text}")
    if nest is not None and compile_kernel:
        from repro.codegen.pycompile import compile_fused

        fused = apply_fusion(nest, result.retiming, mldg=result.original)
        print()
        print("# compiled Python/numpy kernel")
        print(compile_fused(fused).source)
    if profile:
        from repro.machine import profile_fusion, unfused_profile

        try:
            n, m, p = (int(x) for x in profile.split(","))
        except ValueError:
            print(f"bad --profile value {profile!r}; expected N,M,P", file=sys.stderr)
            return ExitCode.USAGE
        before = unfused_profile(g, n, m)
        after = profile_fusion(result, n, m)
        print()
        print(f"machine simulation (n={n}, m={m}, P={p}):")
        print(f"  unfused: {before.sync_count} syncs, T(P)={before.parallel_time(p, sync_cost=10)}")
        print(f"  fused  : {after.sync_count} syncs, T(P)={after.parallel_time(p, sync_cost=10)}")
    return ExitCode.OK


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lint import lint_source, render_sarif

    try:
        source = _read_source(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    path = "<stdin>" if args.file == "-" else args.file
    result = lint_source(source, path=path)
    if args.format == "json":
        print(_json.dumps(result.to_dict(), indent=2))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(result.render_text())
    # the linter convention maps onto the shared table: 0 clean, 1 warnings,
    # 2 errors (docs/DIAGNOSTICS.md)
    return ExitCode(result.exit_code)


def _cmd_fuse(args: argparse.Namespace) -> int:
    nest = parse_program(_read_source(args.file))
    g = extract_mldg(nest)
    result = fuse(g, strategy=args.strategy)
    return _report_fusion(
        g,
        result,
        nest,
        emit=not args.no_emit,
        verify=args.verify,
        profile=args.profile,
        iterspace=args.iterspace,
        locality=args.locality,
        compile_kernel=args.compile_kernel,
    )


def _run_error_dict(exc: BaseException) -> dict:
    """JSON error report for ``run --format json`` failures."""
    out: dict = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "diagnostics": [
                d.to_dict() for d in getattr(exc, "diagnostics", []) or []
            ],
        }
    }
    report = getattr(exc, "report", None)
    if report is not None and hasattr(report, "to_dict"):
        out["error"]["report"] = report.to_dict()
    return out


def _execute_backend(out, args: argparse.Namespace) -> dict:
    """Execute the strict pipeline's fused program with the chosen backend.

    Dispatches through the :mod:`repro.core.backends` registry and returns
    a JSON-shaped record: backend, size, wall seconds and (for every
    backend but ``interp`` itself) whether the result matched the
    interpreter bit for bit.  A mismatch raises -- executing a wrong
    answer fast is not a feature.
    """
    import time as _time

    from repro.codegen.interp import ArrayStore, run_fused
    from repro.core.backends import DEPRECATED_BACKENDS, execute_fused

    n, m = args.size
    fp = out.fused
    if fp is None:
        raise FusionError("nothing to execute: the pipeline emitted no fused program")
    base = ArrayStore.for_program(out.nest, n, m, seed=0)
    backend = args.backend
    if backend in DEPRECATED_BACKENDS:
        backend = DEPRECATED_BACKENDS[backend]
        print(
            f"note: backend {args.backend!r} was removed; running as {backend!r}",
            file=sys.stderr,
        )
    record: dict = {"backend": backend, "n": n, "m": m}
    is_doall = out.fusion.is_doall
    schedule = out.fusion.schedule

    if backend == "interp":
        t0 = _time.perf_counter()
        execute_fused("interp", fp, n, m, store=base.copy())
        record["seconds"] = round(_time.perf_counter() - t0, 6)
        return record

    reference = run_fused(fp, n, m, store=base.copy(), mode="serial")
    if backend == "auto":
        from repro.plan import default_planner

        plan = default_planner().plan_execution(
            fp, n, m, schedule=schedule, is_doall=is_doall, requested="auto",
        )
        record["resolved"] = backend = plan.backend
        record["plan"] = plan.to_dict()
    elif backend == "numpy":
        from repro.codegen.nplower import compile_numpy

        record["plan"] = compile_numpy(fp, schedule=schedule).plan
    # compile outside the timed region: the kernel is what recurs
    execute_fused(backend, fp, 1, 1,
                  store=ArrayStore.for_program(out.nest, 1, 1, seed=0),
                  schedule=schedule, is_doall=is_doall)
    got = base.copy()
    t0 = _time.perf_counter()
    execute_fused(backend, fp, n, m, store=got, schedule=schedule, is_doall=is_doall)
    record["seconds"] = round(_time.perf_counter() - t0, 6)
    if not reference.equal(got):  # pragma: no cover - correctness guard
        raise FusionError(
            f"{backend} backend diverged from the interpreter at {n}x{m}"
        )
    record["verified"] = "bit-identical to interpreter"
    return record


def _cmd_run(args: argparse.Namespace) -> int:
    import json as _json

    from repro.loopir.printer import format_program
    from repro.pipeline import fuse_program
    from repro.resilience.budget import Budget, BudgetExceededError
    from repro.resilience.pipeline import fuse_program_resilient

    if args.backend is not None and args.resilient:
        print("error: --backend is not available with --resilient", file=sys.stderr)
        return ExitCode.USAGE
    budget = Budget(
        deadline_ms=args.deadline_ms,
        max_nodes=args.max_nodes,
        max_edges=args.max_edges,
        max_relaxation_rounds=args.max_relaxation_rounds,
    )
    try:
        source = _read_source(args.file)
        if args.resilient:
            result = fuse_program_resilient(
                source, budget=budget, min_rung=args.min_rung
            )
            if args.format == "json":
                doc = result.to_dict()
                if args.no_emit:
                    doc.pop("emitted", None)
                print(_json.dumps(doc, indent=2))
                return ExitCode.OK
            print(result.report.describe())
            for note in result.notes:
                print(f"note: {note}")
            if not args.no_emit:
                print()
                print("! ===== emitted program =====")
                print(result.emitted_code())
            return ExitCode.OK
        out = fuse_program(source, budget=budget)
        execution = (
            _execute_backend(out, args) if args.backend is not None else None
        )
        if args.format == "json":
            doc = {
                "strategy": out.fusion.strategy.value,
                "parallelism": out.fusion.parallelism.value,
                "retiming": {
                    k: list(v) for k, v in out.fusion.retiming.as_dict().items()
                },
                "notes": list(out.notes),
            }
            if execution is not None:
                doc["execution"] = execution
            if not args.no_emit and out.fused is not None:
                doc["emitted"] = emit_fused_program(out.fused)
            print(_json.dumps(doc, indent=2))
            return ExitCode.OK
        print(out.fusion.summary())
        if execution is not None:
            parts = [f"backend={execution['backend']}"]
            if "resolved" in execution:
                parts.append(f"resolved={execution['resolved']}")
            parts.append(f"size={execution['n']}x{execution['m']}")
            parts.append(f"wall={execution['seconds'] * 1e3:.2f} ms")
            if "verified" in execution:
                parts.append(execution["verified"])
            print("execution   : " + ", ".join(parts))
            plan = execution.get("plan")
            if plan is not None and "rationale" in plan:
                print(f"plan        : [{plan['source']}] {plan['rationale']}")
        if not args.no_emit:
            print()
            print("! ===== emitted program =====")
            if out.fused is not None:
                print(emit_fused_program(out.fused))
            else:
                print(format_program(out.nest))
        return ExitCode.OK
    except (ParseError, ValidationError, FusionError, BudgetExceededError, OSError) as exc:
        if args.format == "json":
            print(_json.dumps(_run_error_dict(exc), indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return ExitCode.FAILURE


def _cmd_batch(args: argparse.Namespace) -> int:
    import json as _json

    from repro.core.session import Session, SessionOptions
    from repro.resilience.budget import Budget

    try:
        programs = [
            (os.path.basename(path) or path, _read_source(path))
            for path in args.files
        ]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.FAILURE
    budget = (
        Budget(deadline_ms=args.deadline_ms)
        if args.deadline_ms is not None
        else None
    )
    # when --trace installed an ambient tracer, hand it to the session so
    # per-program child tracers (and trace ids) are minted for the batch
    ambient = obs.current_tracer()
    session = Session(
        options=SessionOptions(min_rung=args.min_rung, jobs=args.jobs),
        budget=budget,
        tracer=ambient if getattr(ambient, "active", False) else None,
    )
    report = session.fuse_many(
        programs,
        jobs=args.jobs,
        strategy=args.strategy,
        resilient=args.resilient,
        timeout_ms=args.timeout_ms,
    )
    if args.format == "json":
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return ExitCode.OK if report.ok else ExitCode.FAILURE


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import ServeDaemon
    from repro.serve.service import ServeConfig

    config = ServeConfig(
        workers=args.workers,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
        max_attempts=args.max_attempts,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_ms=args.breaker_cooldown_ms,
        allow_faults=args.chaos,
        seed=args.seed,
        backend=args.backend,
        store_path=args.store,
    )
    daemon = ServeDaemon(config, host=args.host, port=args.port)
    print(f"repro-fuse serve: listening on {daemon.url} "
          f"({args.workers} workers"
          + (f", backend {args.backend}" if args.backend != "interp" else "")
          + (f", store {args.store}" if args.store else "")
          + (", CHAOS MODE" if args.chaos else "") + ")",
          file=sys.stderr, flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.shutdown()
    return ExitCode.OK


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.loadgen import (
        LoadgenOptions,
        render_report_text,
        run_loadgen,
    )

    opts = LoadgenOptions(
        requests=args.requests,
        concurrency=args.concurrency,
        workers=args.workers,
        deadline_ms=args.deadline_ms,
        resilient_every=args.resilient_every,
        chaos_kills=args.chaos_kills,
        chaos_hangs=args.chaos_hangs,
        seed=args.seed,
        url=args.url,
        out=args.out,
        store_path=args.store,
        warm_passes=args.warm_passes,
        auto_every=args.auto_every,
    )
    report = run_loadgen(opts)
    if args.format == "json":
        print(_json.dumps(report, indent=2))
    else:
        print(render_report_text(report))
    return ExitCode.OK if not report["malformed"] else ExitCode.FAILURE


def _stats_workload(path: str, n: int, m: int) -> None:
    """Run the instrumented pipeline on ``path`` to populate the registry.

    Each stage runs twice where that exercises a cache (fusion memo, kernel
    cache), then the fused program executes once interpreted and once
    compiled -- so the stats report shows non-zero solver, cache and
    execution counters from one self-contained invocation.
    """
    from repro.codegen.interp import ArrayStore, run_fused
    from repro.codegen.pycompile import compile_fused
    from repro.core.backends import execute_fused
    from repro.pipeline import fuse_program

    source = _read_source(path)
    out = fuse_program(source)
    fuse_program(source)  # structural repeat -> fusion-cache hit
    if out.fused is None:
        return
    run_fused(out.fused, n, m, store=ArrayStore.for_program(out.nest, n, m, seed=0))
    compile_fused(out.fused)
    kernel = compile_fused(out.fused)  # repeat -> kernel-cache hit
    kernel(ArrayStore.for_program(out.nest, n, m, seed=0), n, m)
    # one planned execution so the report carries plan.* counters and a
    # recent-decision line (docs/PLANNING.md)
    execute_fused(
        "auto", out.fused, n, m,
        store=ArrayStore.for_program(out.nest, n, m, seed=0),
        schedule=out.fusion.schedule, is_doall=out.fusion.is_doall,
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = _json.load(fh)
    else:
        if args.file is not None:
            _stats_workload(args.file, *args.size)
        # judge emptiness before the cache snapshot: the snapshot gauges
        # exist even in a process that did no instrumented work
        empty = obs.default_registry().empty
        obs.snapshot_caches()
        doc = obs.stats_document()
    if args.format == "json":
        print(_json.dumps(doc, indent=2))
    else:
        print(obs.render_stats_text(doc))
    if args.input is not None:
        metrics = doc.get("metrics", {})
        empty = not any(
            metrics.get(kind) for kind in ("counters", "gauges", "histograms")
        )
    return ExitCode.FAILURE if empty else ExitCode.OK


def _cmd_cache(args: argparse.Namespace) -> int:
    import json as _json

    from repro.store import open_store

    path = args.store or os.environ.get("REPRO_FUSE_STORE")
    if not path:
        print(
            "error: no store given (use --store PATH or set REPRO_FUSE_STORE)",
            file=sys.stderr,
        )
        return ExitCode.USAGE
    store = open_store(path)
    if args.action == "stats":
        stats = store.stats()
        if args.format == "json":
            print(_json.dumps(stats.to_dict(), indent=2))
        else:
            kib = stats.size_bytes / 1024
            cap_mb = stats.max_bytes / (1024 * 1024)
            print(f"store   : {stats.path}")
            print(
                f"entries : {stats.entries} ({stats.fingerprints} "
                f"fingerprint(s)), file {kib:.1f} KiB, "
                f"schema v{stats.schema_version}"
            )
            print(f"caps    : {stats.max_entries} entries / {cap_mb:.1f} MiB")
            print(
                f"process : {stats.hits} hits / {stats.misses} misses / "
                f"{stats.puts} puts / {stats.evictions} evictions "
                f"(hit ratio {stats.hit_ratio:.2f})"
            )
            print(f"file    : {stats.stored_hits} stored hit(s) all-time")
            if stats.disabled:
                print("state   : DISABLED (unreadable or newer schema)")
        return ExitCode.FAILURE if stats.disabled else ExitCode.OK
    if args.action == "verify":
        report = store.verify(repair=args.repair)
        if args.format == "json":
            print(_json.dumps(report, indent=2))
        else:
            print(
                f"verify {path}: checked {report['checked']} row(s), "
                f"{len(report['corrupt'])} corrupt, "
                f"{report['repaired']} repaired -> "
                + ("CLEAN" if report["ok"] else "FAILED")
            )
            for skey, reason in report["corrupt"]:
                print(f"  corrupt: {skey} ({reason})")
        return ExitCode.OK if report["ok"] else ExitCode.FAILURE
    if args.action == "prune":
        max_bytes = (
            int(args.max_mb * 1024 * 1024) if args.max_mb is not None else None
        )
        removed = store.prune(max_entries=args.max_entries, max_bytes=max_bytes)
        doc = {"removed": removed, "entries": store.stats().entries}
        if args.format == "json":
            print(_json.dumps(doc, indent=2))
        else:
            print(f"pruned {removed} row(s); {doc['entries']} remain")
        return ExitCode.OK
    # clear
    removed = store.clear()
    if args.format == "json":
        print(_json.dumps({"removed": removed}, indent=2))
    else:
        print(f"cleared {removed} row(s) from {path}")
    return ExitCode.OK


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.gallery import (
        figure2_mldg,
        figure8_mldg,
        figure14_mldg,
        floyd_steinberg_mldg,
        iir2d_mldg,
    )
    from repro.gallery.common import iir2d_code
    from repro.gallery.paper import figure2_code

    builders = {
        "fig2": (figure2_mldg, figure2_code()),
        "fig8": (figure8_mldg, None),
        "fig14": (figure14_mldg, None),
        "iir2d": (iir2d_mldg, iir2d_code()),
        "sor": (floyd_steinberg_mldg, None),
    }
    build, code = builders[args.name]
    g = build()
    print(f"demo: {_DEMOS[args.name]}")
    print()
    print(g.describe())
    print()
    result = fuse(g)
    nest = parse_program(code) if code else None
    return _report_fusion(g, result, nest, emit=True, verify=nest is not None)


def _dispatch(args: argparse.Namespace) -> int:
    # --store makes the persistent cache ambient for the invocation (and,
    # via REPRO_FUSE_STORE, for any worker process it spawns); serve and
    # loadgen additionally thread it through their explicit configs, and
    # `cache` addresses the file directly.  The previous value comes back
    # on the way out, so an in-process caller sees no lasting change.
    from repro.store import set_default_store_path

    scoped_store = bool(getattr(args, "store", None)) and args.command != "cache"
    previous_store = os.environ.get("REPRO_FUSE_STORE")
    if scoped_store:
        set_default_store_path(args.store)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "fuse":
            return _cmd_fuse(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "loadgen":
            return _cmd_loadgen(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "report":
            from repro.experiments import full_report

            print(full_report(*args.size))
            return ExitCode.OK
    except (ParseError, ValidationError, FusionError, _BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.FAILURE
    finally:
        if scoped_store:
            if previous_store is None:
                os.environ.pop("REPRO_FUSE_STORE", None)
            else:
                os.environ["REPRO_FUSE_STORE"] = previous_store
    return ExitCode.USAGE


def _write_observability(args: argparse.Namespace, tracer) -> None:
    """Persist the trace and/or metrics files requested on the command line.

    Runs on every exit path (including handled errors), so a traced
    invocation that degrades or fails still leaves its partial trace.
    """
    trace_path = getattr(args, "trace", None)
    if tracer is not None and trace_path:
        obs.write_trace(tracer, trace_path, getattr(args, "trace_format", "json"))
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        import json as _json

        obs.snapshot_caches()
        doc = obs.stats_document()
        with open(metrics_path, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2)
            fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    tracer = obs.Tracer() if getattr(args, "trace", None) else None
    try:
        if tracer is not None:
            with obs.tracing(tracer):
                return _dispatch(args)
        return _dispatch(args)
    finally:
        _write_observability(args, tracer)


if __name__ == "__main__":
    sys.exit(main())
