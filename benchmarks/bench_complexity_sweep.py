"""E6 -- the polynomial-time claim (paper title, Sections 3-4).

All four algorithms reduce to O(|V| * |E|) Bellman-Ford runs.  This sweep
runs the full ``fuse()`` driver cold (a fresh isolated session, so no memo
cache hit) on random legal MLDGs of growing size.  The archived table holds
only deterministic columns -- |V|, |E| and the solver work counted by the
``solver.bellman_ford.*`` counters -- so rerunning it leaves
``results/bench_complexity_sweep.txt`` unchanged.  The wall-clock medians
and the empirical growth exponent of a log-log fit, which depend on the
host, are printed to the terminal only; the exponent must stay comfortably
polynomial (well under quartic in |V| for these dense-ish graphs), as the
title promises.
"""

import math
import time

from repro.core.session import Session
from repro.fusion import fuse, legal_fusion_retiming
from repro.graph import random_legal_mldg

SIZES = (4, 8, 16, 32, 64, 128)


def _cold_fuse(g):
    """One cold ``fuse(g)``: (seconds, Bellman-Ford calls, rounds, pops)."""
    session = Session.isolated()
    t0 = time.perf_counter()
    session.fuse(g)
    runtime = time.perf_counter() - t0
    counter = session.registry.counter
    return (
        runtime,
        counter("solver.bellman_ford.calls").value,
        counter("solver.bellman_ford.rounds").value,
        counter("solver.bellman_ford.pops").value,
    )


def test_runtime_scaling(benchmark, report):
    benchmark(fuse, random_legal_mldg(16, seed=16))
    rows = []
    timings = []
    points = []
    for size in SIZES:
        g = random_legal_mldg(size, seed=size)
        runs = [_cold_fuse(g) for _ in range(3)]
        assert len({run[1:] for run in runs}) == 1, "solver work is not deterministic"
        runtime = sorted(run[0] for run in runs)[1]
        rows.append((size, g.num_edges, *runs[0][1:]))
        timings.append((size, g.num_edges, f"{runtime * 1e3:.2f} ms"))
        points.append((math.log(size), math.log(runtime)))

    # least-squares slope of log(time) vs log(|V|)
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )

    report.table(
        "Polynomial-time claim: solver work of a cold fuse() on random legal MLDGs",
        ["|V|", "|E|", "Bellman-Ford calls", "relaxation rounds", "worklist pops"],
        rows,
    )
    report.echo(
        "\n".join(
            [f"cold fuse() median runtime (this host): |V|={v} |E|={e}: {t}"
             for v, e, t in timings]
            + [f"empirical growth exponent (log-log slope in |V|): {slope:.2f}"]
        )
    )
    # |E| grows ~quadratically in |V| here, and Bellman-Ford is O(|V||E|),
    # so anything clearly below |V|^4 is consistent with the claim; in
    # practice the early-exit Bellman-Ford lands far lower.
    assert slope < 3.5, f"super-polynomial-looking growth: slope {slope:.2f}"


def test_fuse_medium_graph(benchmark):
    g = random_legal_mldg(48, seed=7)
    benchmark(fuse, g)


def test_llofra_large_graph(benchmark):
    g = random_legal_mldg(128, seed=11)
    benchmark(legal_fusion_retiming, g)
