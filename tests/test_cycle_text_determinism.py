"""Cycle certificates print the same text in every process.

The cycle enumeration of the graph library once walked sets of node
names, so the cycle it yielded first changed with ``PYTHONHASHSEED``:
serve workers, SARIF files and golden output could disagree between
processes.  LF203 and ``NotAcyclicError`` print
:func:`repro.graph.analysis.canonical_cycle`, and every routine of
:mod:`repro.graph.algorithms` walks nodes in program order.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.gallery import figure2_mldg
from repro.graph.analysis import canonical_cycle

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
from repro.fusion import NotAcyclicError, fuse
from repro.gallery import figure14_mldg
from repro.lint.engine import lint_mldg

for d in lint_mldg(figure14_mldg()).by_code("LF203"):
    print(d.message)
try:
    fuse(figure14_mldg(), "acyclic")
except NotAcyclicError as exc:
    print(exc)
"""


def _probe(seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_lf203_and_not_acyclic_text_is_hash_seed_independent():
    # seeds 1-4 printed two different LF203 cycles before the fix
    outputs = {seed: _probe(seed) for seed in (1, 2, 3, 4, 6)}
    assert len(set(outputs.values())) == 1, outputs
    lines = outputs[1].splitlines()
    assert len(lines) == 2
    assert "zero-weight dependence cycle B -> C -> D -> E -> B" in lines[0]
    assert lines[1] == "Algorithm 3 requires an acyclic MLDG (cycle: B -> E)"


def test_canonical_cycle_starts_at_the_earliest_node_on_a_cycle():
    g = figure2_mldg()
    cycle = canonical_cycle(g.structure_digraph(), g.nodes)
    assert cycle is not None and cycle[0] == g.nodes[0]
    digraph = g.structure_digraph()
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert v in digraph[u]


def test_canonical_cycle_is_shortest_through_its_start():
    graph = {"a": ["b"], "b": ["c", "a"], "c": ["a"]}
    assert canonical_cycle(graph, ["a", "b", "c"]) == ["a", "b"]
    graph["a"].append("a")
    assert canonical_cycle(graph, ["a", "b", "c"]) == ["a"]
    assert canonical_cycle({"a": ["b"], "b": []}, ["a", "b"]) is None
