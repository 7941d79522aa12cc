"""Checks on the benchmark itself (run with ``pytest bench``).

A smoke run of every workload must emit every metric ``BENCHMARK.json``
names, finite and with its unit; each correctness gate must catch a
deliberately corrupted output; a checkout without the program must fail.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import workloads  # noqa: E402

from repro.core import backends  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.loopir.ast_nodes import Const  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = run_bench("--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)["runs"][0]


def test_spec_mirrors_the_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        workloads.PER_LAYER
    )


def test_every_metric_is_emitted_finite_with_its_unit(smoke_run):
    assert set(smoke_run["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in smoke_run["workloads"].items():
        for section, key in (("end_to_end", "endToEnd"), ("per_layer", "perLayer")):
            emitted = result[key]
            assert set(emitted) == {m["name"] for m in SPEC[section]}, (name, key)
            for metric in SPEC[section]:
                got = emitted[metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric["name"])
                assert math.isfinite(got["value"]), (name, metric["name"])
        for metric in SPEC["end_to_end"]:
            assert result["endToEnd"][metric["name"]]["value"] > 0, (name, metric["name"])
        assert result["failed"] == 0 and not result["errors"] and not result["mismatches"], name
        assert os.path.isfile(os.path.join(ROOT, result["trace"]))


def test_traced_layers_sum_to_the_operation_wall_time(smoke_run):
    for name, root, layers in (
        ("compile-cold", "compile", list(workloads.COMPILE_LAYERS.values())),
        ("exec-small", "exec.call", ["plan.select", "exec.kernel", "plan.record"]),
    ):
        spans = smoke_run["workloads"][name]["spans"]
        calls, wall, _ = spans[root]
        self_sum = spans[root][2] + sum(spans[layer][2] for layer in layers)
        assert self_sum == pytest.approx(wall, rel=1e-6), name
        assert spans[root][2] < 0.1 * wall, name  # unattributed under 10%


def test_final_line_format():
    proc = run_bench("--workload", "exec-small", "--smoke", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_exec_gate_catches_a_corrupted_backend():
    original = backends.get("numpy")

    def corrupting(fp, n, m, store, *rest):
        original.runner(fp, n, m, store, *rest)
        array = next(iter(store.arrays().values()))
        array[0, 0] += 1.0
        return store

    backends.register(dataclasses.replace(original, runner=corrupting))
    try:
        cfg = workloads.RunConfig(seed=3, seconds=0.2, trace=False, smoke=True)
        outcome = workloads.run_exec(cfg, 24)
    finally:
        backends.register(original)
    assert any("numpy differs from interp" in m for m in outcome.mismatches)
    assert outcome.failed > 0


def test_compile_gate_catches_a_wrong_fused_program():
    source = (
        "do i = 0, n\n"
        "  doall j = 0, m        ! loop A\n"
        "    a[i][j] = x[i][j] + 1.0\n"
        "  end\n"
        "  doall j = 0, m        ! loop B\n"
        "    b[i][j] = a[i][j] * 2.0\n"
        "  end\n"
        "end\n"
    )
    out = Session.isolated().fuse_program(source)
    assert workloads.gate_compile({0: out}) == {}
    # the last fused node now stores a constant instead of its expression
    *head, last = out.fused.body
    zeroed = tuple(dataclasses.replace(s, expr=Const(0.0)) for s in last.statements)
    body = (*head, dataclasses.replace(last, statements=zeroed))
    wrong = dataclasses.replace(out.fused, body=body)
    assert 0 in workloads.gate_compile({0: SimpleNamespace(nest=out.nest, fused=wrong)})


def test_serve_gate_catches_a_wrong_retiming():
    stream = workloads.RequestStream(seed=5)
    k = next(k for k in range(100) if k % 3 and stream.source(k)[0] == "fresh")
    out = Session.isolated().fuse_program(stream.source(k)[1])
    retiming = {n: list(v) for n, v in out.fusion.retiming.as_dict().items()}
    good = workloads.Reply(k, "fresh", 1.0, 200, {"status": "ok", "retiming": retiming})
    assert workloads.gate_serve([good], stream) == []
    node = next(iter(retiming))
    bad_retiming = dict(retiming, **{node: [retiming[node][0] + 1, retiming[node][1]]})
    bad = workloads.Reply(k, "fresh", 1.0, 200, {"status": "ok", "retiming": bad_retiming})
    assert len(workloads.gate_serve([bad], stream)) == 1


def test_rates_count_completed_operations():
    # two passes of 2 inputs, 1 s each; the second pass fails one operation
    ends = [(0.5, True), (1.0, True), (1.5, False), (2.0, True)]
    phase = workloads.Phase([(1.0, 0), (1.0, 1), (1.0, 1)], ops=4, elapsed=2.0, ends=ends)
    assert phase.rate == 1.5
    assert phase.pass_rate(2) == 1.5  # median of 2/s and 1/s
    assert workloads.Phase([], ops=3, elapsed=1.0, ends=[(1.0, False)] * 3).pass_rate(2) == 0.0


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, [10.02, 10.0, 9.95, 10.1, 10.0], 0.05, "lower") == "same"
    assert compare.verdict(base, [11.0, 11.1, 10.9, 11.0, 11.05], 0.05, "lower") == "worse"
    assert compare.verdict(base, [9.0, 9.1, 8.9, 9.0, 9.05], 0.05, "lower") == "better"
    assert compare.verdict(base, [9.0, 9.1, 8.9, 9.0, 9.05], 0.05, "higher") == "worse"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, 0.05, "lower") == "unresolved"


def test_a_checkout_without_the_program_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "exec-small", "--smoke", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
