"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.gallery.common import iir2d_code
from repro.gallery.paper import figure2_code


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.loop"
    path.write_text(figure2_code())
    return str(path)


@pytest.fixture
def iir_file(tmp_path):
    path = tmp_path / "iir.loop"
    path.write_text(iir2d_code())
    return str(path)


class TestAnalyze:
    def test_report(self, fig2_file, capsys):
        assert main(["analyze", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "B -> C *" in out
        assert "fusion-preventing" in out
        assert "cannot fuse" in out

    def test_json(self, fig2_file, capsys):
        assert main(["analyze", fig2_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == ["A", "B", "C", "D"]

    def test_dot(self, fig2_file, capsys):
        assert main(["analyze", fig2_file, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_text_includes_semantic_analysis(self, fig2_file, capsys):
        assert main(["analyze", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "analysis of" in out
        assert "domain: i in [0, n] x j in [0, m]" in out
        assert "prunable: none" in out  # symbolic bounds prove nothing away

    def test_json_carries_analysis_report(self, fig2_file, capsys):
        assert main(["analyze", fig2_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == ["A", "B", "C", "D"]  # MLDG schema intact
        assert payload["analysis"]["schema"] == "repro-analysis/1"
        assert payload["analysis"]["summary"]["may"] == 0

    def test_phantom_example_reports_prunable_edges(self, tmp_path, capsys):
        from repro.gallery import phantom_dependence_code

        path = tmp_path / "phantom.loop"
        path.write_text(phantom_dependence_code())
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "prunable: A -> B {(9, 0)}" in out
        assert "prunable: A -> C {(8, 0)}" in out


class TestFuse:
    def test_default(self, fig2_file, capsys):
        assert main(["fuse", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "strategy     : cyclic" in out
        assert "doall j = 1, m" in out  # the emitted Figure-12b core

    def test_verify_flag(self, fig2_file, capsys):
        assert main(["fuse", fig2_file, "--verify"]) == 0
        assert "ALL EQUIVALENT" in capsys.readouterr().out

    def test_profile_flag(self, iir_file, capsys):
        assert main(["fuse", iir_file, "--profile", "40,40,4"]) == 0
        out = capsys.readouterr().out
        assert "machine simulation" in out
        assert "unfused:" in out and "fused  :" in out

    def test_bad_profile_value(self, iir_file, capsys):
        assert main(["fuse", iir_file, "--profile", "nope"]) == 2

    def test_forced_strategy(self, fig2_file, capsys):
        assert main(["fuse", fig2_file, "--strategy", "legal-only", "--no-emit"]) == 0
        out = capsys.readouterr().out
        assert "legal-only" in out
        assert "transformed program" not in out

    def test_inapplicable_strategy_fails_cleanly(self, fig2_file, capsys):
        assert main(["fuse", fig2_file, "--strategy", "direct"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("do i = 1, n\nend")
        assert main(["fuse", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["fuse", "/nonexistent/x.loop"]) == 1


class TestDemo:
    @pytest.mark.parametrize("name", ["fig2", "fig8", "fig14", "iir2d", "sor"])
    def test_demos_run(self, name, capsys):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out

    def test_fig14_reports_hyperplane(self, capsys):
        main(["demo", "fig14"])
        out = capsys.readouterr().out
        assert "hyperplane h : (1, -5)" in out


class TestExtendedFlags:
    def test_iterspace_flag(self, fig2_file, capsys):
        assert main(["fuse", fig2_file, "--no-emit", "--iterspace"]) == 0
        out = capsys.readouterr().out
        assert "iteration space after retiming" in out
        assert "DOALL" in out

    def test_locality_flag(self, fig2_file, capsys):
        assert main(["fuse", fig2_file, "--no-emit", "--locality"]) == 0
        out = capsys.readouterr().out
        assert "reuse distances" in out
        assert "unfused" in out and "fused" in out

    def test_compile_flag(self, iir_file, capsys):
        assert main(["fuse", iir_file, "--no-emit", "--compile"]) == 0
        out = capsys.readouterr().out
        assert "def kernel(store, n, m):" in out

    def test_all_flags_together(self, iir_file, capsys):
        assert (
            main(
                [
                    "fuse",
                    iir_file,
                    "--verify",
                    "--iterspace",
                    "--locality",
                    "--compile",
                    "--profile",
                    "30,30,4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ALL EQUIVALENT" in out and "machine simulation" in out


class TestReport:
    def test_report_command(self, capsys):
        assert main(["report", "--size", "20,10"]) == 0
        out = capsys.readouterr().out
        assert "Section 5: synchronization reduction" in out
        assert "Shift-and-peel crossover" in out

    def test_bad_size(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["report", "--size", "potato"])
        assert err.value.code == 2

    def test_analyze_shows_stats(self, fig2_file, capsys):
        assert main(["analyze", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "4 loops" in out and "hard-edge" in out


@pytest.fixture
def race_file(tmp_path):
    path = tmp_path / "race.loop"
    path.write_text(
        "do i = 0, n\n"
        "  doall j = 0, m\n"
        "    a[i][j] = a[i][j-1]\n"
        "  end\n"
        "end\n"
    )
    return str(path)


@pytest.fixture
def fusion_preventing_file(tmp_path):
    import pathlib

    src = (
        pathlib.Path(__file__).parent.parent / "examples" / "fusion_preventing.loop"
    ).read_text()
    path = tmp_path / "fp.loop"
    path.write_text(src)
    return str(path)


class TestRun:
    """The hardened entry point: 0 = verified result, 1 = typed failure
    (JSON error report with --format json), 2 = usage errors."""

    def test_strict_success(self, fig2_file, capsys):
        assert main(["run", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "strategy     : cyclic" in out
        assert "emitted program" in out

    def test_strict_budget_exhaustion_exit_1(self, fig2_file, capsys):
        assert main(["run", fig2_file, "--max-relaxation-rounds", "0"]) == 1
        err = capsys.readouterr().err
        assert "budget exceeded" in err

    def test_strict_budget_exhaustion_json(self, fig2_file, capsys):
        assert (
            main(
                [
                    "run",
                    fig2_file,
                    "--max-relaxation-rounds",
                    "0",
                    "--format",
                    "json",
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "BudgetExceededError"
        assert "relaxation-rounds" in payload["error"]["message"]

    def test_resilient_success_text(self, fig2_file, capsys):
        assert main(["run", fig2_file, "--resilient"]) == 0
        out = capsys.readouterr().out
        assert "final rung   : doall" in out
        assert "doall       ok" in out

    def test_resilient_json_report(self, fig2_file, capsys):
        assert main(["run", fig2_file, "--resilient", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rung"] == "doall"
        assert payload["parallelism"] == "doall"
        assert payload["report"]["attempts"][0]["status"] == "ok"
        assert "emitted" in payload

    def test_resilient_fusion_preventing_reaches_doall(
        self, fusion_preventing_file, capsys
    ):
        assert (
            main(
                [
                    "run",
                    fusion_preventing_file,
                    "--resilient",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["rung"] == "doall"

    def test_resilient_degrades_under_budget(self, fig2_file, capsys):
        assert (
            main(
                [
                    "run",
                    fig2_file,
                    "--resilient",
                    "--max-relaxation-rounds",
                    "0",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["rung"] == "partition"
        statuses = [(a["rung"], a["status"]) for a in payload["report"]["attempts"]]
        assert ("doall", "failed") in statuses
        assert ("partition", "ok") in statuses

    def test_resilient_min_rung_failure_json(self, fig2_file, capsys):
        assert (
            main(
                [
                    "run",
                    fig2_file,
                    "--resilient",
                    "--deadline-ms",
                    "0",
                    "--min-rung",
                    "doall",
                    "--format",
                    "json",
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ResilienceError"
        codes = {d["code"] for d in payload["error"]["diagnostics"]}
        assert "RS004" in codes
        assert payload["error"]["report"]["finalRung"] == "none"

    def test_malformed_input_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("x = broken\n")
        assert main(["run", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ParseError"
        assert payload["error"]["message"]

    def test_illegal_model_program_json_error(self, race_file, capsys):
        assert main(["run", race_file, "--resilient", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ValidationError"

    def test_missing_file_exit_1(self, capsys):
        assert main(["run", "/nonexistent/x.loop"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_min_rung_is_usage_error(self, fig2_file):
        with pytest.raises(SystemExit) as exc:
            main(["run", fig2_file, "--resilient", "--min-rung", "bogus"])
        assert exc.value.code == 2

    def test_no_emit_json_omits_program(self, fig2_file, capsys):
        assert (
            main(["run", fig2_file, "--resilient", "--format", "json", "--no-emit"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert "emitted" not in payload


class TestLint:
    """Exit-code convention: 0 = clean (notes allowed), 1 = warnings, 2 = errors."""

    def test_warnings_exit_1(self, fig2_file, capsys):
        assert main(["lint", fig2_file]) == 1
        out = capsys.readouterr().out
        assert "warning[LF201]" in out
        assert "info[LF301]" in out
        assert "hint:" in out

    def test_clean_exit_0(self, iir_file, capsys):
        assert main(["lint", iir_file]) == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_errors_exit_2(self, race_file, capsys):
        assert main(["lint", race_file]) == 2
        assert "error[LF103]" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("do i = 1, n\nend")
        assert main(["lint", str(bad)]) == 2
        assert "error[LF001]" in capsys.readouterr().out

    def test_missing_file_exit_2(self, capsys):
        assert main(["lint", "/nonexistent/x.loop"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, fig2_file, capsys):
        assert main(["lint", fig2_file, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == fig2_file
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "LF201" in codes
        assert payload["summary"]["exitCode"] == 1
        assert all("line" in d and "column" in d for d in payload["diagnostics"])

    def test_sarif_format(self, fig2_file, capsys):
        assert main(["lint", fig2_file, "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        lf201 = [r for r in results if r["ruleId"] == "LF201"]
        assert lf201
        region = lf201[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] > 1 and region["startColumn"] > 1

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("do i = 0, n\n  doall j = 0, m\n    a[i][j] = x[i][j]\n  end\nend\n"),
        )
        assert main(["lint", "-"]) == 0
        assert "<stdin>" in capsys.readouterr().out

    def test_analyze_shares_sarif_format(self, fig2_file, capsys):
        assert main(["analyze", fig2_file, "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_analyze_format_flag_matches_legacy_flags(self, fig2_file, capsys):
        assert main(["analyze", fig2_file, "--format", "json"]) == 0
        via_format = capsys.readouterr().out
        assert main(["analyze", fig2_file, "--json"]) == 0
        assert capsys.readouterr().out == via_format


class TestRunBackend:
    """``run --backend`` executes the fused program after fusing it."""

    def test_backend_parallel_verified(self, fig2_file, capsys):
        # the removed backend's name still runs, as auto, with a note
        assert (
            main(
                [
                    "run", fig2_file, "--backend", "parallel",
                    "--size", "16,16", "--no-emit",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "backend=auto" in captured.out
        assert "bit-identical to interpreter" in captured.out
        assert "'parallel' was removed" in captured.err

    def test_backend_compiled_json(self, fig2_file, capsys):
        assert (
            main(
                [
                    "run", fig2_file, "--backend", "compiled",
                    "--size", "12,12", "--format", "json", "--no-emit",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["execution"]["backend"] == "compiled"
        assert payload["execution"]["n"] == 12
        assert payload["execution"]["verified"] == "bit-identical to interpreter"

    def test_backend_interp_times_only(self, fig2_file, capsys):
        assert (
            main(
                ["run", fig2_file, "--backend", "interp", "--size", "8,8",
                 "--format", "json", "--no-emit"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["execution"]["backend"] == "interp"
        assert "verified" not in payload["execution"]

    def test_backend_with_resilient_is_usage_error(self, fig2_file, capsys):
        assert main(["run", fig2_file, "--resilient", "--backend", "interp"]) == 2
        assert "--backend" in capsys.readouterr().err


class TestSizeValidation:
    """``--size`` is one argparse type on every subcommand that takes it.

    A malformed or non-positive size exits 2 with a one-line message
    instead of a traceback from deep inside the executor.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "FIG2", "--backend", "numpy", "--size", "5"],
            ["stats", "FIG2", "--size=-3,5"],
            ["report", "--size=0,-2"],
        ],
        ids=["run-one-value", "stats-negative", "report-zero"],
    )
    def test_malformed_size_is_usage_error(self, fig2_file, capsys, argv):
        argv = [fig2_file if a == "FIG2" else a for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text
        message = err_text.strip().splitlines()[-1]
        assert "error: argument --size:" in message


class TestJobsValidation:
    """Worker counts below 1 are argparse usage errors, not pool hangs.

    ``--jobs 0`` used to reach the executor layer and fail obscurely (or
    deadlock); every worker-count flag now validates at parse time and
    exits 2 with the subcommand's usage line.
    """

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_batch_jobs(self, fig2_file, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["batch", fig2_file, "--jobs", value])
        assert err.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_serve_workers(self, capsys):
        # rejected at parse time, before any port is bound
        with pytest.raises(SystemExit) as err:
            main(["serve", "--workers", "0"])
        assert err.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--concurrency", "--workers"])
    def test_loadgen_counts(self, capsys, flag):
        with pytest.raises(SystemExit) as err:
            main(["loadgen", flag, "0"])
        assert err.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_valid_jobs_still_accepted(self, fig2_file, capsys):
        assert main(["batch", fig2_file, "--jobs", "1"]) == 0
        assert "jobs=1" in capsys.readouterr().out


class TestStoreFlag:
    """``--store`` is scoped to one invocation."""

    def test_store_flag_does_not_leak_into_the_environment(
        self, fig2_file, tmp_path, capsys, monkeypatch
    ):
        import os

        from repro.store import reset_open_stores

        monkeypatch.delenv("REPRO_FUSE_STORE", raising=False)
        store = str(tmp_path / "s.db")
        try:
            assert main(["fuse", fig2_file, "--no-emit", "--store", store]) == 0
        finally:
            reset_open_stores()
        assert "REPRO_FUSE_STORE" not in os.environ

    def test_store_flag_restores_a_previous_value(
        self, fig2_file, tmp_path, capsys, monkeypatch
    ):
        import os

        from repro.store import reset_open_stores

        monkeypatch.setenv("REPRO_FUSE_STORE", "ambient.db")
        try:
            assert main(["fuse", fig2_file, "--no-emit",
                         "--store", str(tmp_path / "s.db")]) == 0
        finally:
            reset_open_stores()
        assert os.environ["REPRO_FUSE_STORE"] == "ambient.db"


class TestRunAutoBackend:
    """``run --backend auto`` delegates to the execution planner."""

    def test_auto_resolves_and_verifies(self, fig2_file, capsys):
        assert (
            main(
                ["run", fig2_file, "--backend", "auto", "--size", "12,12",
                 "--no-emit"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend=auto" in out
        assert "resolved=" in out
        assert "bit-identical to interpreter" in out
        assert "plan        :" in out  # the [source] rationale line

    def test_auto_json_carries_the_plan(self, fig2_file, capsys):
        assert (
            main(
                ["run", fig2_file, "--backend", "auto", "--size", "12,12",
                 "--format", "json", "--no-emit"]
            )
            == 0
        )
        execution = json.loads(capsys.readouterr().out)["execution"]
        assert execution["backend"] == "auto"
        assert execution["resolved"] in ("interp", "compiled", "numpy")
        plan = execution["plan"]
        assert plan["backend"] == execution["resolved"]
        assert plan["source"] == "rule"
        assert plan["rationale"]
        assert execution["verified"] == "bit-identical to interpreter"
