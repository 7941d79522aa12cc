"""The degradation ladder: fault-free parity with ``fuse()``, verified
degradation under exhausted budgets, ``min_rung`` gating, the greedy
partition rung, and the program-level pipeline with its recovery report.
"""

import json

import pytest

from repro.fusion import fuse
from repro.gallery import (
    figure2_mldg,
    figure8_mldg,
    figure14_mldg,
    floyd_steinberg_mldg,
    iir2d_mldg,
)
from repro.gallery.common import iir2d_code
from repro.gallery.paper import figure2_code
from repro.resilience import (
    Budget,
    ResilienceError,
    Rung,
    fuse_program_resilient,
    fuse_resilient,
)
from repro.resilience.partition import greedy_partition, validate_partition
from repro.resilience.report import rung_from_label

GALLERY = {
    "fig2": figure2_mldg,
    "fig8": figure8_mldg,
    "fig14": figure14_mldg,
    "iir2d": iir2d_mldg,
    "sor": floyd_steinberg_mldg,
}

EXPECTED_RUNG = {
    "fig2": Rung.DOALL,
    "fig8": Rung.DOALL,
    "fig14": Rung.HYPERPLANE,
    "iir2d": Rung.DOALL,
    "sor": Rung.HYPERPLANE,
}


class TestFaultFreeParity:
    """Acceptance gate: the ladder's top surviving rung reproduces exactly
    what the strict driver computes for every paper figure."""

    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_matches_strict_fuse(self, name):
        g = GALLERY[name]()
        base = fuse(g)
        res = fuse_resilient(g)
        assert res.rung is EXPECTED_RUNG[name]
        assert res.parallelism is base.parallelism
        assert res.retiming.as_dict() == base.retiming.as_dict()
        assert res.schedule == base.schedule
        assert not res.degraded or name in ("fig14", "sor")

    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_report_attached_and_serializable(self, name):
        res = fuse_resilient(GALLERY[name]())
        report = res.report
        assert report is not None
        assert report.final_rung is res.rung
        d = report.to_dict()
        json.dumps(d)  # must round-trip through JSON
        assert d["finalRung"] == res.rung.label
        assert d["attempts"][-1]["status"] == "ok"
        assert all(a["wallMs"] >= 0 for a in d["attempts"])
        assert report.total_ms >= 0
        # text rendering mentions the final rung
        assert res.rung.label in report.describe()


class TestDegradation:
    def test_exhausted_solver_budget_degrades_to_partition(self):
        res = fuse_resilient(figure2_mldg(), budget=Budget(max_relaxation_rounds=0))
        assert res.rung is Rung.PARTITION
        assert res.partition is not None
        assert [c.labels for c in res.partition.clusters] == [
            ("A", "B"),
            ("C",),
            ("D",),
        ]
        assert res.partition.clusters[0].doall
        # every retiming rung was attempted and failed before partition won
        statuses = {a.rung: a.status for a in res.report.attempts}
        assert statuses[Rung.DOALL] == "failed"
        assert statuses[Rung.HYPERPLANE] == "failed"
        assert statuses[Rung.LEGAL_FUSION] == "failed"
        assert statuses[Rung.PARTITION] == "ok"
        assert res.report.diagnostics  # failures carried diagnostics

    def test_iir2d_partitions_into_single_serial_cluster(self):
        res = fuse_resilient(iir2d_mldg(), budget=Budget(max_relaxation_rounds=0))
        assert res.rung is Rung.PARTITION
        assert len(res.partition.clusters) == 1
        assert not res.partition.clusters[0].doall

    def test_sor_has_no_fusible_pair_and_returns_original(self):
        # floyd-steinberg's neighbours can't legally fuse pairwise, so the
        # partition rung degenerates to singletons and is rejected; the
        # ladder bottoms out at the (always safe) original program
        res = fuse_resilient(
            floyd_steinberg_mldg(), budget=Budget(max_relaxation_rounds=0)
        )
        assert res.rung is Rung.ORIGINAL
        assert res.parallelism.value == "serial"

    def test_zero_deadline_skips_every_strategy(self):
        res = fuse_resilient(figure2_mldg(), budget=Budget(deadline_ms=0.0))
        assert res.rung is Rung.ORIGINAL
        skipped = [a for a in res.report.attempts if a.status == "skipped"]
        assert len(skipped) == 4  # doall, hyperplane, legal-only, partition
        assert all("RS003" in {d.code for d in a.diagnostics} for a in skipped)

    def test_oversize_graph_degrades_instead_of_crashing(self):
        res = fuse_resilient(figure2_mldg(), budget=Budget(max_nodes=2))
        assert res.rung is Rung.ORIGINAL

    def test_min_rung_failure_raises_typed_error(self):
        with pytest.raises(ResilienceError) as exc:
            fuse_resilient(
                figure2_mldg(),
                budget=Budget(deadline_ms=0.0),
                min_rung=Rung.DOALL,
            )
        err = exc.value
        assert err.report is not None
        assert err.diagnostics
        assert "RS004" in {d.code for d in err.diagnostics}
        assert "RS004" in str(err)  # FusionError.__str__ appends codes

    def test_min_rung_accepts_string_labels(self):
        res = fuse_resilient(figure2_mldg(), min_rung="doall")
        assert res.rung is Rung.DOALL
        with pytest.raises(ResilienceError):
            fuse_resilient(
                figure2_mldg(),
                budget=Budget(max_relaxation_rounds=0),
                min_rung="hyperplane",
            )

    def test_min_rung_partition_still_allows_partition(self):
        res = fuse_resilient(
            figure2_mldg(),
            budget=Budget(max_relaxation_rounds=0),
            min_rung="partition",
        )
        assert res.rung is Rung.PARTITION


class TestRungEnum:
    def test_order_and_labels(self):
        assert Rung.DOALL > Rung.HYPERPLANE > Rung.LEGAL_FUSION
        assert Rung.LEGAL_FUSION > Rung.PARTITION > Rung.ORIGINAL
        for rung in Rung:
            assert rung_from_label(rung.label) is rung
        with pytest.raises(ValueError):
            rung_from_label("nonsense")


class TestGreedyPartition:
    def test_fig8_partition_shape(self):
        g = figure8_mldg()
        p = greedy_partition(g)
        assert validate_partition(g, p) is None
        assert [c.labels for c in p.clusters] == [
            ("A", "B"),
            ("C", "D", "E", "F", "G"),
        ]
        assert p.num_fused == 2

    def test_describe_mentions_doall_clusters(self):
        p = greedy_partition(figure2_mldg())
        text = p.describe()
        assert "A+B" in text and "(doall)" in text

    def test_unexecutable_sequence_is_rejected(self):
        # floyd-steinberg's original order is not even sequence-executable,
        # so no direct (retiming-free) fusion of it is safe
        g = floyd_steinberg_mldg()
        p = greedy_partition(g)
        reason = validate_partition(g, p)
        assert reason is not None and "not executable" in reason

    def test_all_singletons_is_rejected(self):
        import pathlib

        from repro.depend import extract_mldg
        from repro.loopir import parse_program

        src = (
            pathlib.Path(__file__).parent.parent
            / "examples"
            / "fusion_preventing.loop"
        ).read_text()
        g = extract_mldg(parse_program(src), check=False)
        p = greedy_partition(g)
        assert all(len(c.labels) == 1 for c in p.clusters)
        reason = validate_partition(g, p)
        assert reason is not None and "singleton" in reason


class TestProgramPipeline:
    def test_fig2_program_fault_free(self):
        res = fuse_program_resilient(figure2_code())
        assert res.rung is Rung.DOALL
        assert res.fused is not None and res.partitioned is None
        assert "doall" in res.emitted_code()
        doc = res.to_dict()
        json.dumps(doc)
        assert doc["rung"] == "doall"
        assert doc["report"]["finalRung"] == "doall"

    def test_fig2_program_partition_codegen(self):
        res = fuse_program_resilient(
            figure2_code(), budget=Budget(max_relaxation_rounds=0)
        )
        assert res.rung is Rung.PARTITION
        assert res.fused is None and res.partitioned is not None
        assert [l.label for l in res.partitioned.loops] == ["AB", "C", "D"]
        # fused cluster keeps all four statements of A and B
        ab = res.partitioned.loop("AB")
        assert len(ab.statements) == len(
            res.nest.loop("A").statements + res.nest.loop("B").statements
        )
        assert "AB:" in res.emitted_code()

    def test_iir2d_program_round_trips(self):
        res = fuse_program_resilient(iir2d_code())
        assert res.rung is Rung.DOALL
        assert res.report.to_dict()["parallelism"] == "doall"

    def test_zero_deadline_returns_original_text(self):
        res = fuse_program_resilient(figure2_code(), budget=Budget(deadline_ms=0.0))
        assert res.rung is Rung.ORIGINAL
        # the emitted fallback is the original program, reformatted
        assert "A:" in res.emitted_code()

    def test_min_rung_propagates(self):
        with pytest.raises(ResilienceError):
            fuse_program_resilient(
                figure2_code(),
                budget=Budget(deadline_ms=0.0),
                min_rung="legal-only",
            )

    def test_malformed_source_raises_parse_error(self):
        from repro.loopir import ParseError

        with pytest.raises(ParseError):
            fuse_program_resilient("this is not a loop program")

    def test_model_violation_raises_validation_error(self):
        from repro.loopir import ValidationError

        bad = """\
do i = 0, n
  A: doall j = 0, m
    a[i][j] = a[i][j-1]
  end
end
"""
        with pytest.raises(ValidationError):
            fuse_program_resilient(bad)
