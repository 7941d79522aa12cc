"""Batch compilation and cross-session isolation (repro.core.batch)."""

from __future__ import annotations

import io
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout

import pytest

from repro import obs
from repro.core.batch import BATCH_SCHEMA, DEFAULT_BATCH_JOBS
from repro.core.session import Session, SessionCaches, SessionOptions
from repro.gallery.common import iir2d_code
from repro.gallery.paper import figure2_code

HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLES = os.path.join(os.path.dirname(HERE), "examples")


def _gallery():
    with open(
        os.path.join(EXAMPLES, "fusion_preventing.loop"), encoding="utf-8"
    ) as fh:
        fusion_preventing = fh.read()
    return [
        ("fig2", figure2_code()),
        ("iir2d", iir2d_code()),
        ("fusion_preventing", fusion_preventing),
    ]


def _entry_key(e):
    return (
        e.name,
        e.status,
        e.strategy,
        e.parallelism,
        e.rung,
        tuple(e.notes),
        len(e.diagnostics),
        e.error,
    )


def test_fuse_many_compiles_gallery_concurrently():
    report = Session().fuse_many(_gallery(), jobs=4)
    assert report.ok and report.ok_count == 3 and report.error_count == 0
    assert [e.index for e in report.entries] == [0, 1, 2]  # input order
    assert report.entry("fig2").strategy == "cyclic"
    assert report.entry("fig2").parallelism == "doall"
    assert report.entry("fusion_preventing").strategy == "acyclic"


def test_serial_and_parallel_batches_are_equivalent():
    serial = Session().fuse_many(_gallery(), jobs=1)
    parallel = Session().fuse_many(_gallery(), jobs=4)
    assert [_entry_key(e) for e in serial.entries] == [
        _entry_key(e) for e in parallel.entries
    ]


def test_batch_default_preserved():
    # the old SessionOptions.jobs = 4 literal
    assert DEFAULT_BATCH_JOBS == 4


def test_fuse_many_resilient():
    report = Session().fuse_many(_gallery(), jobs=4, resilient=True)
    assert report.ok
    assert report.entry("fig2").rung == "doall"
    assert all(e.rung is not None for e in report.entries)


def test_one_bad_program_never_sinks_the_batch():
    programs = _gallery() + [("broken", "this is not a loop program")]
    report = Session().fuse_many(programs, jobs=4)
    assert not report.ok
    assert report.ok_count == 3 and report.error_count == 1
    bad = report.entry("broken")
    assert bad.status == "error"
    assert bad.error is not None and bad.error["type"] == "ParseError"
    # the good entries are untouched
    assert report.entry("fig2").status == "ok"


def test_batch_report_schema_and_renderings():
    report = Session().fuse_many(_gallery(), jobs=2)
    doc = report.to_dict()
    assert doc["schema"] == BATCH_SCHEMA == "repro-batch/1"
    assert doc["jobs"] == 2 and doc["okCount"] == 3
    assert [p["name"] for p in doc["programs"]] == [
        "fig2", "iir2d", "fusion_preventing",
    ]
    json.dumps(doc)  # JSON-serializable all the way down
    text = report.render_text()
    assert "3 programs" in text and "fig2" in text


def test_per_program_trace_ids_when_session_traces():
    session = Session(tracer=obs.Tracer())
    report = session.fuse_many(_gallery(), jobs=4)
    ids = [e.trace_id for e in report.entries]
    assert all(ids) and len(set(ids)) == len(ids)
    for e in report.entries:
        assert e.tracer is not None
        names = [s.name for s in e.tracer.spans()]
        assert "batch.program" in names
        assert "pipeline.fuse_program" in names
    # without a session tracer, no per-program tracers are minted
    plain = Session().fuse_many(_gallery()[:1])
    assert plain.entries[0].trace_id is None


def test_names_parameter_labels_positional_programs():
    report = Session().fuse_many(
        [figure2_code(), iir2d_code()], jobs=2, names=["a", "b"]
    )
    assert [e.name for e in report.entries] == ["a", "b"]
    with pytest.raises(ValueError, match="names for"):
        Session().fuse_many([figure2_code()], names=["a", "b"])


def test_concurrent_sessions_never_observe_each_other():
    """Two sessions with different ladders running concurrently stay isolated."""
    serial = Session.isolated(
        options=SessionOptions(ladder=("legal-only", "partition", "none"))
    )
    full = Session.isolated(options=SessionOptions(ladder="full"))
    barrier = threading.Barrier(2)

    def run(session):
        barrier.wait(timeout=30)
        return session.fuse_many(
            [("fig2", figure2_code())] * 3, jobs=3, resilient=True, names=None
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        f_serial = pool.submit(run, serial)
        f_full = pool.submit(run, full)
        serial_report, full_report = f_serial.result(), f_full.result()

    assert {e.rung for e in serial_report.entries} == {"legal-only"}
    assert {e.rung for e in full_report.entries} == {"doall"}


def test_concurrent_sessions_keep_private_registries_and_diagnostics():
    a = Session.isolated()
    b = Session.isolated()
    barrier = threading.Barrier(2)

    def run(session, source):
        barrier.wait(timeout=30)
        return session.fuse_many([("p", source)] * 4, jobs=4)

    with ThreadPoolExecutor(max_workers=2) as pool:
        ra = pool.submit(run, a, figure2_code())
        rb = pool.submit(run, b, iir2d_code())
        ra.result(), rb.result()

    assert a.registry is not None and b.registry is not None
    assert a.registry.counter("core.pass.fuse.runs").value == 4
    assert b.registry.counter("core.pass.fuse.runs").value == 4
    assert a.registry.counter("core.batch.programs").value == 4
    # diagnostics stay per session (fig2 lints findings, 4 runs' worth)
    assert len(a.diagnostics) == 4 * 4
    assert len(b.diagnostics) == 0  # iir2d is clean


def test_concurrent_sessions_keep_private_caches():
    a = Session(caches=SessionCaches.private())
    b = Session(caches=SessionCaches.private())
    a.fuse_many([("p", figure2_code())] * 3, jobs=3)
    b.fuse_many([("p", figure2_code())] * 3, jobs=3)
    assert a.caches.fusion is not None and b.caches.fusion is not None
    assert a.caches.fusion.cache_info().currsize >= 1
    assert b.caches.fusion.cache_info().currsize >= 1
    assert a.caches.fusion is not b.caches.fusion


def test_session_budget_applies_to_every_batch_program():
    from repro.resilience.budget import Budget

    session = Session(budget=Budget(max_nodes=1))
    report = session.fuse_many(_gallery(), jobs=4)
    assert report.error_count == 3
    assert all(
        e.error is not None and e.error["type"] == "BudgetExceededError"
        for e in report.entries
    )


def test_trace_ids_survive_worker_exceptions():
    """Regression: an exception whose own __str__ raises must neither
    sink the batch nor cost the entry its trace id."""

    class HostileError(Exception):
        def __str__(self):
            raise RuntimeError("no message for you")

        @property
        def diagnostics(self):
            raise RuntimeError("no diagnostics either")

    session = Session(tracer=obs.Tracer())

    def explode(source, strategy=None):
        raise HostileError()

    original = session.fuse_program
    session.fuse_program = explode
    try:
        report = session.fuse_many(_gallery(), jobs=3)
    finally:
        session.fuse_program = original

    assert report.error_count == 3
    for e in report.entries:
        assert e.trace_id is not None  # assigned before the compile
        assert e.tracer is not None  # attached in the finally
        assert e.error["type"] == "HostileError"
        assert "unprintable" in e.error["message"]
        assert e.diagnostics == []
    json.dumps(report.to_dict())


def test_timeout_ms_budgets_each_program_separately():
    from repro.perf.memo import clear_all_caches

    session = Session()
    report = session.fuse_many(_gallery(), jobs=2, timeout_ms=60_000.0)
    assert report.ok
    # an unmeetable per-program deadline trips every program's own budget
    # without mutating the shared session.  Deadline-only budgets are
    # allowed to take cache hits (a hit is how a deadline gets met), so
    # the caches the first run warmed are cleared to make every tight
    # compile actually do (and be billed for) solver work.
    clear_all_caches()
    tight = session.fuse_many(_gallery(), jobs=2, timeout_ms=0.000001)
    assert tight.error_count == 3
    assert all(
        e.error["type"] == "BudgetExceededError" for e in tight.entries
    )
    assert session.budget is None
    assert session.fuse_many(_gallery()[:1], jobs=1).ok


def test_budget_scope_override_wins_over_session_budget():
    from repro.core import context as _context
    from repro.resilience.budget import Budget

    session = Session(budget=Budget(max_nodes=1))
    assert session.effective_budget is session.budget
    override = Budget(deadline_ms=60_000.0).start()
    with _context.budget_scope(override):
        assert session.effective_budget is override
    assert session.effective_budget is session.budget


def test_process_pool_matches_thread_pool_results():
    session = Session()
    threaded = session.fuse_many(_gallery(), jobs=2)
    processed = session.fuse_many(_gallery(), jobs=2, pool="process")
    assert processed.ok_count == threaded.ok_count == 3
    for t, p in zip(threaded.entries, processed.entries):
        assert (t.name, t.status, t.strategy, t.parallelism) == (
            p.name, p.status, p.strategy, p.parallelism
        )
        assert [d.to_dict() for d in t.diagnostics] == [
            d.to_dict() for d in p.diagnostics
        ]
    json.dumps(processed.to_dict())


def test_process_pool_reports_typed_errors():
    report = Session().fuse_many(
        [("bad", "not a ( program"), ("good", figure2_code())],
        jobs=2,
        pool="process",
    )
    assert report.entry("good").ok
    bad = report.entry("bad")
    assert bad.status == "error" and bad.error["type"] == "ParseError"


def test_unknown_pool_rejected():
    with pytest.raises(ValueError, match="unknown pool"):
        Session().fuse_many(_gallery(), pool="fiber")


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #


def _cli(argv):
    from repro.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
    return int(code), buf.getvalue()


def test_cli_version():
    from repro import __version__

    code, text = _cli(["--version"])
    assert code == 0
    assert text.strip() == f"repro-fuse {__version__}"


def test_cli_batch_text(tmp_path):
    paths = []
    for name, source in _gallery():
        p = tmp_path / f"{name}.loop"
        p.write_text(source, encoding="utf-8")
        paths.append(str(p))
    code, text = _cli(["batch", *paths, "--jobs", "4"])
    assert code == 0
    assert "3 programs" in text and "fig2.loop" in text


def test_cli_batch_json_and_failure_exit(tmp_path):
    good = tmp_path / "good.loop"
    good.write_text(figure2_code(), encoding="utf-8")
    bad = tmp_path / "bad.loop"
    bad.write_text("not a program", encoding="utf-8")
    code, text = _cli(
        ["batch", str(good), str(bad), "--format", "json", "--jobs", "2"]
    )
    assert code == 1  # ExitCode.FAILURE: one program failed
    doc = json.loads(text)
    assert doc["schema"] == "repro-batch/1"
    assert doc["okCount"] == 1 and doc["errorCount"] == 1
    by_name = {p["name"]: p for p in doc["programs"]}
    assert by_name["good.loop"]["status"] == "ok"
    assert by_name["bad.loop"]["error"]["type"] == "ParseError"


def test_cli_batch_resilient(tmp_path):
    p = tmp_path / "fig2.loop"
    p.write_text(figure2_code(), encoding="utf-8")
    code, text = _cli(
        ["batch", str(p), "--resilient", "--format", "json", "--jobs", "1"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["resilient"] is True
    assert doc["programs"][0]["rung"] == "doall"


def test_cli_batch_timeout_ms_and_process_pool(tmp_path):
    p = tmp_path / "fig2.loop"
    p.write_text(figure2_code(), encoding="utf-8")
    code, text = _cli(
        ["batch", str(p), "--jobs", "2", "--timeout-ms", "60000",
         "--batch-pool", "process", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["okCount"] == 1
    assert doc["programs"][0]["strategy"] is not None
    # a hopeless per-program deadline fails the batch with a typed error
    # (cold caches: deadline-only budgets may legitimately be served from
    # a warm cache without doing any billable solver work)
    from repro.perf.memo import clear_all_caches

    clear_all_caches()
    code2, text2 = _cli(
        ["batch", str(p), "--jobs", "1", "--timeout-ms", "0.000001",
         "--format", "json"]
    )
    assert code2 == 1
    doc2 = json.loads(text2)
    assert doc2["programs"][0]["error"]["type"] == "BudgetExceededError"


def test_cli_exit_codes_are_intenum_members():
    from repro.core import ExitCode

    assert int(ExitCode.OK) == 0
    assert int(ExitCode.FAILURE) == 1
    assert int(ExitCode.USAGE) == 2
    assert isinstance(ExitCode.OK, int)
