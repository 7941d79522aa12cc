"""Warm-store acceptance: the gallery twice, and warmth across workers.

The PR-level acceptance criteria, as tests:

- the whole gallery compiled twice through one shared store is
  bit-identical cold vs warm with an L2 hit ratio >= 90%, and
  ``repro-fuse cache verify`` reports the store clean afterwards;
- a serve pool with several workers shows *cross-worker* warm hits: a
  structure compiled by one worker is served from the store to another,
  visible as the file-level ``storedHits`` aggregate.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.core.session import Session, SessionCaches, SessionOptions
from repro.depend import extract_mldg
from repro.fusion import fuse
from repro.gallery.common import iir2d_code
from repro.gallery.extended import extended_kernels
from repro.gallery.paper import figure2_code
from repro.loopir import parse_program
from repro.perf.memo import clear_all_caches
from repro.store import open_store, reset_open_stores


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    monkeypatch.delenv("REPRO_FUSE_STORE", raising=False)
    clear_all_caches()
    reset_open_stores()
    yield
    clear_all_caches()
    reset_open_stores()


def _outcome(result):
    """Everything a fusion result pins down, in comparable form."""
    return (
        result.strategy.value,
        tuple(sorted(
            (k, tuple(v)) for k, v in result.retiming.as_dict().items()
        )),
        tuple(result.schedule),
        tuple(result.hyperplane) if result.hyperplane is not None else None,
    )


def _gallery_pass(path, graphs):
    """Fuse every graph in a session with a fresh private L1 on ``path``."""
    session = Session(
        options=SessionOptions(store_path=path),
        caches=SessionCaches.private(),
    )
    with session.activate():
        outcomes = {name: _outcome(fuse(g)) for name, g in graphs}
    return outcomes, session.caches.store


def test_gallery_twice_is_warm_and_bit_identical(tmp_path):
    path = str(tmp_path / "gallery.db")
    sources = {"fig2": figure2_code(), "iir2d": iir2d_code()}
    sources.update((k.key, k.code) for k in extended_kernels())
    graphs = [
        (name, extract_mldg(parse_program(src)))
        for name, src in sorted(sources.items())
    ]
    assert len(graphs) >= 5  # the sweep really covers the gallery

    # the cold pass populates the store; the warm pass has an empty L1, so
    # every compile must come off the disk tier (after re-verification)
    cold, store = _gallery_pass(path, graphs)
    before = store.stats()
    warm, _ = _gallery_pass(path, graphs)
    after = store.stats()
    assert warm == cold  # bit-identical
    hits = after.hits - before.hits
    looked_up = hits + after.misses - before.misses
    assert looked_up and hits / looked_up >= 0.90

    # and the store the two passes left behind audits clean
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cache", "verify", "--store", path])
    assert code == 0 and "CLEAN" in out.getvalue()


def test_serve_workers_share_warmth_through_the_store(tmp_path):
    """A structure compiled by one worker warms every other worker."""
    from repro.gallery.paper import figure2_code
    from repro.serve.service import CompileService, ServeConfig
    from repro.serve.wire import request_from_program

    path = str(tmp_path / "serve.db")
    service = CompileService(ServeConfig(workers=2, store_path=path))
    try:
        responses = [
            service.handle(
                request_from_program(f"fig2#{k}", figure2_code())
            )
            for k in range(6)
        ]
    finally:
        service.shutdown()
    assert all(r.status == "ok" for r in responses)
    # round-robin dispatch lands the repeat requests on the *other*
    # worker, whose first sight of the structure must come off the disk
    stats = open_store(path).stats()
    assert stats.stored_hits > 0
    # the parallelism answers agree across workers (same store row)
    assert len({r.parallelism for r in responses}) == 1


def test_loadgen_warm_pass_reports_store_block(tmp_path):
    """One loadgen invocation measures cold-vs-warm serving end to end."""
    from repro.serve.loadgen import LoadgenOptions, run_loadgen

    path = str(tmp_path / "loadgen.db")
    report = run_loadgen(
        LoadgenOptions(
            requests=4,
            concurrency=2,
            workers=2,
            store_path=path,
            warm_passes=2,
        )
    )
    assert report["wellFormed"] == 8 and report["malformed"] == []
    assert len(report["passes"]) == 2
    store = report["service"]["store"]
    assert store["currsize"] >= 1
    assert json.dumps(report)  # the whole document stays JSON-serialisable
