"""The serve load generator / benchmark harness (repro.serve.loadgen)."""

from __future__ import annotations

import json

import pytest

from repro.serve.loadgen import (
    BENCH_SCHEMA,
    LoadgenOptions,
    platform_block,
    render_report_text,
    run_loadgen,
)


def test_clean_run_report_shape(tmp_path):
    out = tmp_path / "BENCH_serve.json"
    report = run_loadgen(
        LoadgenOptions(requests=6, concurrency=3, workers=1, out=str(out))
    )
    assert report["schema"] == BENCH_SCHEMA
    assert report["wellFormed"] == 6 and report["malformed"] == []
    assert report["byStatus"].get("ok", 0) >= 1
    assert report["requestsPerSecond"] > 0
    for key in ("p50", "p90", "p99", "max", "mean"):
        assert report["latencyMs"][key] >= 0
    assert "admission" in report["service"]
    on_disk = json.loads(out.read_text(encoding="utf-8"))
    assert on_disk["schema"] == BENCH_SCHEMA
    text = render_report_text(report)
    assert "well-formed=6/6" in text


@pytest.mark.chaos
def test_chaos_run_stays_well_formed(tmp_path):
    report = run_loadgen(
        LoadgenOptions(
            requests=12, concurrency=4, workers=2,
            chaos_kills=1, chaos_hangs=1, seed=5,
        )
    )
    assert report["wellFormed"] == 12 and report["malformed"] == []
    assert report["options"]["chaosKills"] == 1


def test_platform_block_records_library_versions():
    import networkx
    import numpy

    block = platform_block()
    assert block["numpy"] == numpy.__version__
    assert block["networkx"] == networkx.__version__
    assert "python" in block and "cpuCount" in block
