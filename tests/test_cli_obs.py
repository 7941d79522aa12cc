"""CLI observability: --trace/--metrics plumbing and the stats subcommand.

Every ``main()`` call runs under a private registry
(:func:`repro.obs.use_registry`), because the stats subcommand reads the
process-wide default registry and the rest of the suite writes into it.
Trace-sensitive tests clear the fusion/kernel caches first -- a warm cache
legitimately skips the solver spans.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.codegen.pycompile import clear_kernel_cache
from repro.gallery.paper import figure2_code
from repro.perf.memo import clear_all_caches

pytestmark = pytest.mark.obs


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.loop"
    path.write_text(figure2_code())
    return str(path)


@pytest.fixture
def cold_caches():
    clear_all_caches()
    clear_kernel_cache()


class TestTraceFlag:
    def test_run_auto_writes_chrome_trace(self, fig2_file, tmp_path, capsys,
                                          cold_caches):
        trace = tmp_path / "t.json"
        with obs.use_registry():
            code = main([
                "run", fig2_file, "--backend", "auto",
                "--size", "16,16", "--no-emit",
                "--trace", str(trace), "--trace-format", "chrome",
            ])
        assert code == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        # the acceptance shape: pipeline, solver, planner and execution
        # spans in one chrome-loadable trace
        assert "pipeline.fuse_program" in names
        assert "solver.bellman_ford" in names
        assert "plan.select" in names
        assert "exec.interp.run_fused" in names  # the verification reference
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert doc["otherData"]["schema"] == "repro-trace/1"

    def test_fuse_writes_json_trace_by_default(self, fig2_file, tmp_path,
                                               capsys, cold_caches):
        trace = tmp_path / "t.json"
        with obs.use_registry():
            assert main(["fuse", fig2_file, "--no-emit",
                         "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["schema"] == "repro-trace/1"
        assert doc["traceId"]
        names = [s["name"] for s in doc["spans"]]
        assert "fusion.fuse" in names

    def test_trace_format_text(self, fig2_file, tmp_path, capsys, cold_caches):
        trace = tmp_path / "t.txt"
        with obs.use_registry():
            assert main(["fuse", fig2_file, "--no-emit", "--trace", str(trace),
                         "--trace-format", "text"]) == 0
        assert trace.read_text().startswith("trace ")

    def test_trace_written_even_when_the_command_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("do i = 1, n\nend")
        trace = tmp_path / "t.json"
        with obs.use_registry():
            assert main(["fuse", str(bad), "--trace", str(trace)]) == 1
        # the parse spans collected before the failure still get flushed
        assert json.loads(trace.read_text())["schema"] == "repro-trace/1"

    def test_unknown_trace_format_rejected(self, fig2_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuse", fig2_file, "--trace", str(tmp_path / "t"),
                  "--trace-format", "yaml"])
        assert exc.value.code == 2

    def test_tracing_does_not_change_the_result(self, fig2_file, tmp_path,
                                                capsys, cold_caches):
        with obs.use_registry():
            assert main(["run", fig2_file, "--format", "json",
                         "--no-emit"]) == 0
            plain = json.loads(capsys.readouterr().out)
            assert main(["run", fig2_file, "--format", "json", "--no-emit",
                         "--trace", str(tmp_path / "t.json")]) == 0
            traced = json.loads(capsys.readouterr().out)
        # the JSON document carries no timing fields: it must be identical
        assert plain == traced


class TestStatsCommand:
    def test_stats_after_workload_reports_counters(self, fig2_file, capsys,
                                                   cold_caches):
        with obs.use_registry():
            assert main(["stats", fig2_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-stats/1"
        counters = doc["metrics"]["counters"]
        assert counters.get("solver.bellman_ford.calls", 0) > 0
        assert counters.get("fusion.cache.hits", 0) > 0
        assert counters.get("kernel.cache.hits", 0) > 0
        assert counters.get("exec.interp.runs", 0) > 0
        assert "caches" in doc

    def test_stats_text_output(self, fig2_file, capsys, cold_caches):
        with obs.use_registry():
            assert main(["stats", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "solver.bellman_ford.calls" in out

    def test_empty_registry_exits_nonzero(self, capsys):
        with obs.use_registry():
            assert main(["stats", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["counters"] == {}

    def test_empty_registry_text_exits_nonzero(self, capsys):
        with obs.use_registry():
            assert main(["stats"]) == 1

    def test_bad_size_value(self, fig2_file, capsys):
        with obs.use_registry():
            assert main(["stats", fig2_file, "--size", "nope"]) == 2


class TestMetricsFlag:
    def test_metrics_file_roundtrips_through_stats_input(self, fig2_file,
                                                         tmp_path, capsys,
                                                         cold_caches):
        metrics = tmp_path / "m.json"
        with obs.use_registry():
            assert main(["run", fig2_file, "--backend", "numpy",
                         "--size", "16,16", "--no-emit",
                         "--metrics", str(metrics)]) == 0
        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro-stats/1"
        assert doc["metrics"]["counters"].get("exec.numpy.runs", 0) > 0
        capsys.readouterr()
        with obs.use_registry():
            # a fresh (empty) registry: the rendered numbers come from the file
            assert main(["stats", "--input", str(metrics)]) == 0
        assert "exec.numpy.runs" in capsys.readouterr().out

    def test_stats_input_empty_document_exits_nonzero(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({
            "schema": "repro-stats/1",
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "caches": {},
        }))
        with obs.use_registry():
            assert main(["stats", "--input", str(empty)]) == 1
